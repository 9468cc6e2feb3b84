"""Integration tests for the sharded scheduler federation (X13).

End-to-end federation runs (cross-shard workloads, shard kill and
recovery mid-run), the ``federation`` CLI command's exit-code contract,
and ``repro explain`` naming the federation decision rules
(``fed-in-doubt-hold``, ``fed-termination-protocol``,
``fed-shard-unreachable``, ``fed-foreign-conflict``) from exported
traces, matching the existing explain contract.
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.obs import MemorySink, TraceBus
from repro.obs.explain import RULES, explain_trace
from repro.sim.federation import (
    FederationSpec,
    build_federation,
    run_federation,
)
from tests.golden.corpus import _REEXEC

FED_RULES = (
    "fed-in-doubt-hold",
    "fed-termination-protocol",
    "fed-shard-unreachable",
    "fed-foreign-conflict",
)


def _event_name(record):
    inverse = "" if record["direction"] == 1 else "^-1"
    return f"{record['process']}.{record['activity']}{inverse}"


class TestMergedHistoryOrder:
    """A surviving event sits in the merged history where it executed.

    When a 2PC veto rolls an activity back and F-REC re-executes it, the
    survivor is the re-execution: everything appended to any shard's log
    before it must precede it in the merged history.  The oracle is
    independent of the log's own numbering — the test watches the
    appends go by.
    """

    @pytest.mark.parametrize(
        "spec",
        [
            _REEXEC,
            # 3 shards, no kills, drops only: re-executes P3-1.a3.
            FederationSpec(
                shards=3,
                service_groups=6,
                processes_per_group=2,
                cross_shard_fraction=0.5,
                conflict_rate=0.05,
                drop_rate=0.35,
                seed=4,
            ),
        ],
        ids=["4-shards,kills", "3-shards,drops"],
    )
    def test_reexecuted_activity_is_merged_at_its_reexecution(self, spec):
        federation, runner = build_federation(spec)
        appended = []  # (shard, lsn) in global append order
        for shard_id, shard in federation.shards.items():

            def spy(
                record, force=False, shard_id=shard_id, append=shard.wal.append
            ):
                lsn = append(record, force)
                appended.append((shard_id, lsn))
                return lsn

            shard.wal.append = spy
        runner.run()

        merged = [str(event) for event in federation.merged_history().events]
        records = {
            (shard_id, record["lsn"]): record
            for shard_id, shard in federation.shards.items()
            for record in shard.wal.records()
        }
        activity = [
            records[key]
            for key in appended
            if records[key]["type"] in ("activity_commit", "activity_rollback")
        ]
        executions = Counter(
            _event_name(record)
            for record in activity
            if record["type"] == "activity_commit"
        )
        rolled_back, earlier, reexecutions = set(), [], 0
        for record in activity:
            key = (record["process"], record["activity"])
            if record["type"] == "activity_rollback":
                rolled_back.add(key)
                continue
            name = _event_name(record)
            if record["direction"] == 1 and key in rolled_back:
                rolled_back.discard(key)
                reexecutions += 1
                survivor = len(merged) - 1 - merged[::-1].index(name)
                late = [
                    other
                    for other in earlier
                    if executions[other] == 1
                    and other in merged
                    and merged.index(other) > survivor
                ]
                assert not late, (
                    f"{name} re-executed after {late} were logged, but the "
                    f"merged history places it before them"
                )
            earlier.append(name)
        assert reexecutions, "the shape no longer contains a re-execution"


class TestFederationRuns:
    def test_cross_shard_run_certifies(self):
        spec = FederationSpec(
            shards=3,
            service_groups=6,
            processes_per_group=2,
            cross_shard_fraction=0.5,
            conflict_rate=0.1,
            seed=7,
        )
        result = run_federation(spec)
        assert result.certified
        assert result.certification.pred
        assert result.certification.reducible
        total = spec.service_groups * spec.processes_per_group
        assert result.metrics.committed + result.metrics.aborted == total
        assert not result.audit.lost_processes

    def test_shard_kill_midrun_recovers_without_loss(self):
        spec = FederationSpec(
            shards=2,
            service_groups=4,
            processes_per_group=2,
            cross_shard_fraction=0.5,
            conflict_rate=0.1,
            drop_rate=0.1,
            delay_rate=0.1,
            duplicate_rate=0.1,
            kills=((4.0, 0, 3.0), (10.0, 1, 3.0)),
            seed=3,
        )
        result = run_federation(spec)
        assert result.certified
        assert result.counters["kills"] == 2
        assert result.counters["recoveries"] == 2
        assert not result.audit.lost_decisions
        assert not result.audit.dup_applications
        assert not result.audit.in_doubt_residue
        assert not result.audit.lost_processes

    def test_partitioned_links_heal_and_run_completes(self):
        spec = FederationSpec(
            shards=2,
            service_groups=4,
            processes_per_group=2,
            cross_shard_fraction=0.5,
            partitions=((1.0, 0, 1, 2.0),),
            seed=5,
        )
        result = run_federation(spec)
        assert result.certified
        assert result.counters["fault_partition"] >= 1

    def test_in_doubt_group_resolved_by_the_termination_protocol(self):
        # s0 is killed while a cross-shard group is in flight; s1 holds
        # its voted leg in doubt until asking s0, back up, resolves it.
        spec = FederationSpec(
            shards=3,
            cross_shard_fraction=1.0,
            drop_rate=0.3,
            kills=((4.0, 0, 3.0),),
            seed=2,
        )
        bus = TraceBus()
        sink = bus.subscribe(MemorySink())
        result = run_federation(spec, trace=bus)
        assert result.certified
        records = sink.records()
        rules = Counter(
            record["data"]["rule"]
            for record in records
            if record["kind"] == "deferred"
        )
        assert rules["fed-in-doubt-hold"] >= 1
        assert rules["fed-termination-protocol"] >= 1
        resolved = [r["data"] for r in records if r["kind"] == "xshard_resolved"]
        assert resolved and all("via" in data for data in resolved)
        assert (resolved[0]["via"], resolved[0]["commit"]) == ("s0", True)


class TestFederationCli:
    def test_federation_command_exits_zero(self, capsys):
        rc = main(["federation", "--shards", "2", "--seeds", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "runs certified" in out

    def test_federation_kill_chaos_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "fed.jsonl"
        rc = main([
            "federation", "--shards", "2", "--kill",
            "--drop", "0.1", "--delay", "0.1", "--duplicate", "0.1",
            "--seeds", "0", "--trace", str(trace),
        ])
        assert rc == 0
        assert trace.exists()
        content = trace.read_text()
        assert '"shard_kill"' in content
        assert '"shard_recovered"' in content

    def test_federation_scaling_exits_zero(self, capsys):
        rc = main([
            "federation", "--scaling", "--shards", "2", "--seeds", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "throughput" in out


class TestExplainFedRules:
    """``repro explain`` names the federation decision rules with the
    same exit-code contract as the scheduler rules."""

    def _write_trace(self, tmp_path, rule, reason):
        records = [
            {
                "seq": 0, "ts": 0.0, "kind": "submitted", "cat": "sched",
                "process": "P1", "activity": None, "data": {},
            },
            {
                "seq": 1, "ts": 1.0, "kind": "deferred", "cat": "sched",
                "process": "P1", "activity": "a1",
                "data": {
                    "rule": rule,
                    "reason": reason,
                    "waiting_for": ["s1"],
                },
            },
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        return str(path)

    @pytest.mark.parametrize("rule", FED_RULES)
    def test_fed_rule_named_and_exits_zero(self, tmp_path, capsys, rule):
        path = self._write_trace(tmp_path, rule, f"testing {rule}")
        capsys.readouterr()
        rc = main(["explain", path, "P1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert rule in out
        assert "reason:" in out

    @pytest.mark.parametrize("rule", FED_RULES)
    def test_fed_rules_have_prose(self, rule):
        assert rule in RULES
        assert RULES[rule]

    def test_unknown_target_still_exits_one(self, tmp_path, capsys):
        path = self._write_trace(
            tmp_path, "fed-in-doubt-hold", "held in doubt"
        )
        capsys.readouterr()
        rc = main(["explain", path, "no-such-process"])
        assert rc == 1
        assert "no blocking" in capsys.readouterr().err

    def test_organic_kill_trace_explains_fed_defer(self, tmp_path, capsys):
        """A real shard-kill run produces fed deferrals the explain
        command can name."""
        trace = tmp_path / "fed.jsonl"
        rc = main([
            "federation", "--shards", "2", "--kill",
            "--downtime", "6.0", "--cross", "0.6",
            "--seeds", "0", "--trace", str(trace),
        ])
        assert rc == 0
        deferred = [
            record
            for line in trace.read_text().splitlines()
            for record in (json.loads(line),)
            if record.get("kind") == "deferred"
            and (record.get("data") or {}).get("rule", "").startswith(
                "fed-"
            )
        ]
        assert deferred, "shard-kill run produced no federation deferrals"
        # explain reports the *last* decision per process; pick a
        # process whose final decision is a federation rule
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        target = rule = None
        for candidate in {record["process"] for record in deferred}:
            explanation = explain_trace(records, target=candidate)
            if explanation and explanation.decision.rule.startswith("fed-"):
                target, rule = candidate, explanation.decision.rule
                break
        assert target, "no process ended on a federation deferral"
        capsys.readouterr()
        rc = main(["explain", str(trace), target])
        out = capsys.readouterr().out
        assert rc == 0
        assert rule in out

"""X20/X26 — the 130-run federated parity script.

``PYTHONPATH=src python benchmarks/fed_parity.py OUT.json`` runs 130
seeded federated runs (the 3 federated golden shapes, 40 kill-sweep
seeds, 60 runs over five message-fault mixes on 3 shards — a fifth of
them with two shard kills — and 27 seeds of the 4-shard heavy-drop
shape) with a trace bus attached and writes, per run, sha256 digests of

* the merged history (``schedule_to_dict(merged_history())``),
* every log append in global order — shard, record bytes (``lsn`` and
  ``seq`` included) and the writer's ``force`` flag,
* the trace stream, event by event,
* outcome sets and terminal stores,

plus the decision audit, the network counters, makespan and iteration
count in the clear.  ``--compare A.json B.json`` exits non-zero unless
the two files agree run by run.  Run it in the parent tree and in the
change: a refactor of the protocol's write side must leave all of it
bit-identical.
"""

import hashlib
import json
import sys
from dataclasses import replace

from repro import schedule_to_dict
from repro.obs.bus import MemorySink, TraceBus
from repro.sim import federation as fed_sim
from repro.subsystems.wal import InMemoryWAL

FED2 = fed_sim.FederationSpec(
    shards=2, service_groups=4, processes_per_group=3,
    cross_shard_fraction=0.5, conflict_rate=0.05,
    delay_rate=0.2, duplicate_rate=0.1, seed=5,
)
FED4 = fed_sim.FederationSpec(
    shards=4, service_groups=8, processes_per_group=3,
    disjoint_processes=True, cross_shard_fraction=0.5,
    conflict_rate=0.01, delay_rate=0.1, seed=11,
)
FED4_KILL = replace(FED4, drop_rate=0.1, kills=((3.0, 1, 4.0),), seed=12)
KILL_SWEEP = fed_sim.FederationSpec(
    shards=3, service_groups=6, processes_per_group=2,
    cross_shard_fraction=0.35, conflict_rate=0.05,
    drop_rate=0.15, delay_rate=0.15, duplicate_rate=0.15,
    kills=tuple((4.0 + 8.0 * index, index, 4.0) for index in range(3)),
    partitions=((2.0, 0, 1, 2.0),),
)
HEAVY_DROP = fed_sim.FederationSpec(
    shards=4, service_groups=8, processes_per_group=3,
    cross_shard_fraction=0.8, conflict_rate=0.05,
    drop_rate=0.3, delay_rate=0.2, duplicate_rate=0.1,
    kills=((2.0, 0, 3.0), (6.0, 1, 2.0)),
)
MIX_BASE = fed_sim.FederationSpec(
    shards=3, service_groups=6, processes_per_group=3,
    cross_shard_fraction=0.6, conflict_rate=0.05,
)
MIXES = {
    "drops": dict(drop_rate=0.25),
    "delays": dict(delay_rate=0.3),
    "duplicates": dict(duplicate_rate=0.3),
    "all": dict(drop_rate=0.15, delay_rate=0.15, duplicate_rate=0.15),
    "drops+delays": dict(drop_rate=0.4, delay_rate=0.1),
}
TWO_KILLS = ((2.0, 0, 3.0), (7.0, 2, 3.0))


def specs():
    yield "golden/2-shards", FED2
    yield "golden/4-shards", FED4
    yield "golden/4-shards,kill", FED4_KILL
    for seed in range(40):
        yield f"kill-sweep/seed={seed}", KILL_SWEEP.with_seed(seed)
    for mix, rates in MIXES.items():
        for seed in range(12):
            # Every fifth run also loses two shards.
            kills = TWO_KILLS if seed % 5 == 0 else ()
            yield (
                f"mix/{mix}/seed={seed}",
                replace(MIX_BASE, kills=kills, seed=seed, **rates),
            )
    for seed in range(27):
        yield f"heavy-drop/seed={seed}", HEAVY_DROP.with_seed(seed)


def _sha(payload):
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def one_run(spec):
    appends = []
    original = InMemoryWAL.append

    def recording(self, record, force=False):
        lsn = original(self, record, force)
        appends.append((id(self), json.dumps(self.records()[-1]), bool(force)))
        return lsn

    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    InMemoryWAL.append = recording
    try:
        federation, runner = fed_sim.build_federation(spec, trace=bus)
        error = None
        try:
            metrics = runner.run()
        except Exception as failure:  # a stall is a result, on both trees
            metrics, error = None, f"{type(failure).__name__}: {failure}"
    finally:
        InMemoryWAL.append = original
    shard_of = {id(s.wal): name for name, s in federation.shards.items()}
    committed, aborted = federation.outcomes()
    audit = federation.validate()
    return {
        "error": error,
        "history": _sha(schedule_to_dict(federation.merged_history())),
        "log": _sha([(shard_of[wal], r, f) for wal, r, f in appends]),
        "log_records": len(appends),
        "trace": _sha(sink.records()),
        "trace_events": len(sink),
        "terminal": _sha(
            [sorted(committed), sorted(aborted), federation.snapshot()]
        ),
        "audit": {
            "groups_checked": audit.groups_checked,
            "lost": audit.lost_decisions,
            "dup": audit.dup_applications,
            "residue": audit.in_doubt_residue,
            "lost_processes": audit.lost_processes,
            "dup_suppressed": audit.dup_suppressed,
        },
        "counters": federation.counters(),
        "makespan": metrics and metrics.makespan,
        "iterations": metrics and metrics.iterations,
    }


def main(argv):
    if argv[:1] == ["--compare"]:
        with open(argv[1]) as a, open(argv[2]) as b:
            left, right = json.load(a), json.load(b)
        differing = [
            f"{name}: {key}"
            for name in sorted(set(left) | set(right))
            for key in sorted(set(left.get(name, {})) | set(right.get(name, {})))
            if left.get(name, {}).get(key) != right.get(name, {}).get(key)
        ]
        print(f"{len(left)} vs {len(right)} runs, {len(differing)} differences")
        print("\n".join(differing))
        return 1 if differing or len(left) != len(right) else 0
    results = {name: one_run(spec) for name, spec in specs()}
    with open(argv[0], "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    errors = sum(1 for run in results.values() if run["error"])
    print(f"{len(results)} runs, {errors} ended in an error")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

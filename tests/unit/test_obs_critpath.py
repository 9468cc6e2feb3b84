"""Unit tests for critical-path latency attribution (`repro.obs.critpath`)."""

import pytest

from repro.obs import attribution, critical_paths, reconcile
from repro.obs.critpath import PHASES, _segment


def _ev(seq, ts, kind, process=None, activity=None, **data):
    return {
        "seq": seq,
        "ts": ts,
        "kind": kind,
        "cat": "sched",
        "process": process,
        "activity": activity,
        "data": data,
    }


def _committed_process(pid="P1"):
    """queued 0..1, exec 1..3, deferred 3 -> exec 4..5, terminated 6."""
    return [
        _ev(0, 0.0, "queued", process=pid),
        _ev(1, 1.0, "admitted", process=pid),
        _ev(2, 1.0, "exec", process=pid, activity="a1", service="s1",
            duration=2.0),
        _ev(3, 3.0, "deferred", process=pid, rule="R2",
            reason="conflict", waiting_for=["P9"]),
        _ev(4, 4.0, "exec", process=pid, activity="a2", service="s2",
            duration=1.0),
        _ev(5, 6.0, "terminated", process=pid, status="committed"),
    ]


class TestSegmentation:
    def test_priority_resolves_overlap(self):
        slices = _segment(
            0.0,
            10.0,
            [
                ("queue-wait", 0.0, 10.0, 1),
                ("exec", 2.0, 5.0, 2),
            ],
        )
        assert [(s.phase, s.start, s.end) for s in slices] == [
            ("queue-wait", 0.0, 2.0),
            ("exec", 2.0, 5.0),
            ("queue-wait", 5.0, 10.0),
        ]

    def test_uncovered_time_is_other(self):
        slices = _segment(0.0, 4.0, [("exec", 1.0, 2.0, 0)])
        assert [s.phase for s in slices] == ["other", "exec", "other"]

    def test_zero_duration_returns_nothing(self):
        assert _segment(3.0, 3.0, [("exec", 0.0, 9.0, 0)]) == []


class TestCriticalPaths:
    def test_phases_partition_the_process_interval(self):
        paths = critical_paths(_committed_process())
        path = paths["P1"]
        assert path.duration == 6.0
        assert path.phases["queue-wait"] == 1.0
        assert path.phases["exec"] == 3.0
        assert path.phases["graph-admission"] == 1.0  # deferred 3 -> 4
        assert path.phases["other"] == 1.0  # exec done 5 -> terminated 6
        assert path.reconciliation_error < 1e-9

    def test_dominant_names_the_largest_phase(self):
        paths = critical_paths(_committed_process())
        assert paths["P1"].dominant == "exec"

    def test_zero_duration_process_has_no_dominant(self):
        paths = critical_paths(
            [
                _ev(0, 2.0, "submitted", process="P1"),
                _ev(1, 2.0, "terminated", process="P1",
                    status="aborted"),
            ]
        )
        assert paths["P1"].dominant is None

    def test_wal_traffic_counts_without_attributing_time(self):
        records = _committed_process()
        records.insert(
            3,
            {
                "seq": 9,
                "ts": 1.5,
                "kind": "wal_append",
                "cat": "wal",
                "process": "P1",
                "activity": None,
                "data": {"lsn": 0},
            },
        )
        path = critical_paths(records)["P1"]
        assert path.counts["fsync"] == 1
        assert path.phases["fsync"] == 0.0
        assert path.reconciliation_error < 1e-9

    def test_only_forces_count_as_fsync(self):
        """An append that says it was not forced is log traffic, not a
        durable write; a forced one and an explicit sync are."""
        records = _committed_process()
        for seq, (kind, data) in enumerate(
            [
                ("wal_append", {"lsn": 0, "force": False}),
                ("wal_append", {"lsn": 1, "force": True, "fsync": True}),
                ("wal_sync", {"lsn": 1}),
            ],
            start=20,
        ):
            records.insert(
                3,
                {
                    "seq": seq,
                    "ts": 1.5,
                    "kind": kind,
                    "cat": "wal",
                    "process": "P1",
                    "activity": None,
                    "data": data,
                },
            )
        assert critical_paths(records)["P1"].counts["fsync"] == 2


class TestAttribution:
    def test_table_shares_sum_to_one(self):
        table = attribution(critical_paths(_committed_process()))
        assert set(table) <= set(PHASES)
        assert sum(row["share"] for row in table.values()) == (
            pytest.approx(1.0)
        )

    def test_reconcile_is_zero_on_exact_segmentation(self):
        paths = critical_paths(_committed_process())
        assert reconcile(paths) < 1e-9

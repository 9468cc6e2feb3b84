"""X9 — crash-point torture and checkpointed replay cost.

Two claims are measured:

1. **Total crash coverage** — for a seeded workload, crashing the
   scheduler after *every* LSN, cutting the log at *every* length a
   power cut can leave (from everything appended down to what the last
   force covered), once more keeping the whole log but taking every
   store back to its last sync, and crashing recovery after each of its
   own appends
   at sampled crash points, always recovers to a certified PRED history
   with every process terminated, no surviving in-doubt transactions,
   every acknowledged termination kept, stores equal to the surviving
   history (ledger audit), and a durable, idempotent recovery — on the
   in-memory stores and on sqlite files.
2. **Bounded replay** — with auto-checkpointing every N appends, the
   records recovery's analysis must scan after a crash is bounded by
   the checkpoint interval (plus the handful of directly-logged 2PC /
   recovery records in flight), while without checkpoints it grows with
   the whole history.
"""

from repro.sim.crashpoints import (
    CrashPointSpec,
    baseline_lsns,
    crash_once,
    run_crashpoints,
)

SPEC = CrashPointSpec(seed=0)

#: Checkpoint interval used by the bounded-replay measurement, and the
#: slack on top of it: the interval counts scheduler appends only, so
#: directly-logged 2PC records (a begin/commit/end triplet per harden
#: group) and the recovery bracket records ride on top.
INTERVAL = 8
SLACK = 16


def test_x9_every_crash_point_certifies(report):
    rows = []
    for backend in ("memory", "sqlite"):
        sweep = run_crashpoints(
            CrashPointSpec(seed=0, recovery_stride=8, backend=backend),
            file_faults=True,
        )
        assert sweep.all_certified, sweep.failures[:5]
        assert any(result.resumed for result in sweep.results), (
            "the recovery-crash sweep never exercised a resumed recovery"
        )
        cuts = [result for result in sweep.results if result.keep is not None]
        lost = [result for result in cuts if result.stores_lost]
        assert lost and all(result.keep == result.unforced for result in lost)
        assert all(r.keep < r.unforced for r in cuts if not r.stores_lost)
        # The gap between the last force and the crash stays a handful
        # of records (the opening burst of submissions is the longest).
        rows.append(
            {
                **sweep.row(),
                "store_losses": len(lost),
                "longest_tail": max(r.unforced for r in cuts),
            }
        )
    report(
        rows,
        title=(
            "X9 — crash-point sweep (every LSN x every surviving cut "
            "+ recovery crashes)"
        ),
    )


def test_x9_checkpointing_bounds_replay(benchmark, report):
    plain = CrashPointSpec(seed=0, checkpoint_interval=None)
    checked = CrashPointSpec(seed=0, checkpoint_interval=INTERVAL)
    total = baseline_lsns(plain)

    rows = []
    worst_plain = 0
    worst_checked = 0
    for crash_lsn in range(4, total, max(1, total // 8)):
        without = crash_once(plain, crash_lsn)
        with_cp = crash_once(checked, crash_lsn)
        worst_plain = max(worst_plain, without.records_scanned)
        worst_checked = max(worst_checked, with_cp.records_scanned)
        rows.append(
            {
                "crash lsn": crash_lsn,
                "scanned (no ckpt)": without.records_scanned,
                "scanned (ckpt)": with_cp.records_scanned,
                "log len (no ckpt)": without.log_length,
                "log len (ckpt)": with_cp.log_length,
            }
        )

    # Without checkpoints, replay cost tracks the log: the worst crash
    # point scans (almost) the whole pre-crash history.
    assert worst_plain > INTERVAL + SLACK
    # With checkpoints it is bounded by the interval, not the history.
    assert worst_checked <= INTERVAL + SLACK, worst_checked
    benchmark(crash_once, checked, total // 2)
    report(
        rows,
        title=(
            f"X9 — replay cost vs. log length "
            f"(checkpoint interval {INTERVAL})"
        ),
    )

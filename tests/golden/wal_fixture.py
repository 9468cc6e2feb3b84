"""A checkpoint-compacted ``FileWAL`` as commit 8f73b8f (PR 19) wrote it.

``legacy_checkpointed.wal`` is the on-disk log of the crash-recovery
golden workload (``corpus._CRASH`` with ``checkpoint_interval=8``)
crashed right after the ``2pc_begin`` at LSN 34: one checkpoint record —
still carrying the ``rolled_back`` key, no sequence numbers anywhere —
followed by fourteen records, four processes active, one prepared
activity awaiting a decision that never came.  The bytes were written
once, by :func:`write_fixture` on that commit, and are never
regenerated: they stand for every log an older build left on a disk.

``legacy_checkpointed.json`` is what that commit derived from the file
(:func:`derive`); any later reader must derive the same.  Rewriting it
is an explicit act, like the other corpora::

    python -m tests.golden.wal_fixture > tests/golden/legacy_checkpointed.json
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from typing import Dict

from repro.core.scheduler import TransactionalProcessScheduler
from repro.sim import crashpoints as crash_sim
from repro.subsystems.recovery import analyze_wal, replay_history
from repro.subsystems.wal import FileWAL, InMemoryWAL
from tests.golden import digests
from tests.golden.corpus import _CRASH

__all__ = ["FIXTURE_PATH", "EXPECTED_PATH", "derive", "write_fixture"]

_HERE = os.path.dirname(__file__)
FIXTURE_PATH = os.path.join(_HERE, "legacy_checkpointed.wal")
EXPECTED_PATH = os.path.join(_HERE, "legacy_checkpointed.json")

_SPEC = replace(_CRASH, checkpoint_interval=8)
_CRASH_LSN = 34


def write_fixture(path: str) -> None:
    """Drive the workload over a ``FileWAL`` at ``path`` into the crash."""
    wal = FileWAL(path)
    scheduler, _, workload, failures = crash_sim.build_crash_world(
        _SPEC, crash_sim.CrashingWAL(wal, crash_lsn=_CRASH_LSN)
    )
    assert crash_sim.drive_to_crash(scheduler, workload, failures)
    wal.close()


def derive(path: str) -> Dict[str, object]:
    """Everything a reader concludes from the log at ``path`` (copies
    are read, the file itself is never touched): the analysis, the
    pruned scan state the next checkpoint would hold (minus the
    never-read ``rolled_back`` key), the replayed history, and the
    recovery's outcome."""
    # The log's processes and services, over fresh (empty) subsystems.
    scheduler, repository, workload, _ = crash_sim.build_crash_world(
        _SPEC, InMemoryWAL()
    )
    with tempfile.TemporaryDirectory(prefix="golden-wal-") as tmp:
        first = shutil.copy(path, os.path.join(tmp, "analysis.wal"))
        with FileWAL(first) as wal:
            analysis = analyze_wal(wal)
            replayed = replay_history(wal, repository, workload.conflicts)
            report, verdict = crash_sim.recover_and_certify(
                wal, scheduler.registry, repository, workload
            )
            after = analyze_wal(wal)
        second = shutil.copy(path, os.path.join(tmp, "checkpoint.wal"))
        with FileWAL(second) as wal:
            TransactionalProcessScheduler(wal=wal).checkpoint()
            state = dict(wal.records()[-1]["state"])  # type: ignore[call-overload]
            state.pop("rolled_back", None)
    derived = {
        "analysis": {
            "started": analysis.started,
            "committed": sorted(analysis.committed),
            "aborted": sorted(analysis.aborted),
            "active": analysis.active,
            "events": analysis.events,
            "presumed_aborted": analysis.presumed_aborted,
            "txn_groups": analysis.txn_groups,
            "decided_groups": sorted(analysis.decided_groups),
            "voted_txns": analysis.voted_txns,
            "recovery_attempts": analysis.recovery_begun,
            "recovery_pending": analysis.recovery_pending,
            "records_scanned": analysis.records_scanned,
        },
        "checkpoint_state": state,
        "replayed": digests(replayed, None)["history"],
        "recovery": {
            "group_aborted": report.group_aborted,
            "history": digests(report.history, None)["history"],
            "certified": verdict.certified,
            "appends": verdict.recovery_appends,
            "committed": sorted(after.committed),
            "aborted": sorted(after.aborted),
        },
    }
    return json.loads(json.dumps(derived))


if __name__ == "__main__":
    json.dump(derive(FIXTURE_PATH), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

"""Prefix-reducibility — the paper's correctness criterion (Definition 10).

``RED`` is not prefix closed: a schedule whose completion reduces today
may have had a prefix whose completion did not (Example 8).  A dynamic
scheduler must therefore guarantee **prefix-reducibility (PRED)**: every
prefix of the schedule — completed with the group abort of the processes
active *at that point* — must be reducible.

:func:`check_pred` evaluates the criterion offline in one walk through
the :class:`~repro.core.reduction.PrefixCertifier` that paranoid mode
runs, and reports the first violating prefix with its reduction witness.
Every prefix is still completed and reduced; benchmark X4 measures that
cost — motivating why the online scheduler enforces PRED constructively
via the paper's lemmas instead of re-checking it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.reduction import PrefixCertifier, ReductionResult, reduce_schedule
from repro.core.schedule import ProcessSchedule

__all__ = ["PredResult", "check_pred", "is_prefix_reducible"]


@dataclass(frozen=True)
class PredResult:
    """Outcome of a PRED evaluation."""

    is_pred: bool
    #: Length of the first prefix that is not reducible, or ``None``.
    violating_prefix_length: Optional[int] = None
    #: Reduction outcome for the violating prefix, or ``None``.
    violation: Optional[ReductionResult] = None
    #: Number of prefixes checked (for cost accounting).
    prefixes_checked: int = 0

    def __str__(self) -> str:
        if self.is_pred:
            return f"PRED ({self.prefixes_checked} prefixes reducible)"
        return (
            f"not PRED: prefix of length {self.violating_prefix_length} "
            f"is not reducible ({self.violation})"
        )


def check_pred(schedule: ProcessSchedule, stop_early: bool = True) -> PredResult:
    """Evaluate prefix-reducibility (Definition 10).

    Every prefix of the schedule is completed (Definition 8) and reduced
    (Definition 9); the empty prefix reduces and counts as checked.  With
    ``stop_early`` (default) the check returns at the first irreducible
    prefix; otherwise all prefixes are evaluated (cost benchmarking).
    """
    certifier = PrefixCertifier(schedule.conflicts)
    for process in schedule.processes():
        certifier.add_process(process)
    checked, violating = 1, None
    for length, event in enumerate(schedule.events, start=1):
        checked += 1
        if not certifier.observe(event).is_reducible:
            violating = violating or length
            if stop_early:
                break
    if violating is None:
        return PredResult(is_pred=True, prefixes_checked=checked)
    # The walk's schedule keeps growing: reduce a snapshot of the prefix.
    return PredResult(
        is_pred=False,
        violating_prefix_length=violating,
        violation=reduce_schedule(schedule.prefix(violating)),
        prefixes_checked=checked,
    )


def is_prefix_reducible(schedule: ProcessSchedule) -> bool:
    """``True`` iff the schedule is PRED (Definition 10)."""
    return check_pred(schedule).is_pred

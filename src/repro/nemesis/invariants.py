"""Online invariants: checked *during* the run, not only at the end.

The offline certification (PRED + reducibility + termination + the 2PC
decision audit) says whether a finished run was correct; the nemesis
monitor additionally evaluates a registry of invariants every round so
a violation is caught at the *earliest offending event* — the event
index is what the shrinker and the replay check compare, so a repro
bundle pins (invariant, event index, seed), not just "the run failed".

Each invariant implements ``check`` (called during the run; expensive
ones are rate-limited by the monitor via the ``expensive`` flag) and
``final`` (called once after the run, when end-of-run-only evidence
like the decision audit is meaningful).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.pred import check_pred

__all__ = [
    "InvariantViolation",
    "Invariant",
    "PredPrefixInvariant",
    "WalMonotoneInvariant",
    "DecisionConservationInvariant",
    "NoFrecAbortInvariant",
    "NoLostProcessInvariant",
    "CanaryInvariant",
    "default_invariants",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach, pinned to its earliest offending event."""

    invariant: str
    event_index: int
    time: float
    detail: str = ""

    @property
    def identity(self) -> tuple:
        """What a deterministic replay must reproduce exactly."""
        return (self.invariant, self.event_index)

    def describe(self) -> str:
        return (
            f"{self.invariant} violated at event {self.event_index} "
            f"(t={self.time:g}): {self.detail}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "event_index": self.event_index,
            "time": self.time,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "InvariantViolation":
        return cls(
            invariant=str(payload["invariant"]),
            event_index=int(payload["event_index"]),
            time=float(payload.get("time", 0.0)),
            detail=str(payload.get("detail", "")),
        )


class Invariant:
    """One continuously-evaluated correctness property.

    ``view`` is the monitor's :class:`~repro.nemesis.executor.RunView`:
    the live federation plus cached per-round derivations (merged
    history, fault-delivery counts).
    """

    name = "invariant"
    #: Expensive invariants are evaluated every ``check_every`` rounds
    #: (and at the end); cheap ones every round.
    expensive = False

    def check(self, view) -> Optional[InvariantViolation]:
        return None

    def final(self, view) -> Optional[InvariantViolation]:
        return self.check(view)


class PredPrefixInvariant(Invariant):
    """Every prefix of the merged history must stay reducible (PRED)."""

    name = "pred-prefix"
    expensive = True

    def check(self, view) -> Optional[InvariantViolation]:
        history = view.history()
        result = check_pred(history)
        if result.is_pred:
            return None
        return InvariantViolation(
            invariant=self.name,
            event_index=int(result.violating_prefix_length or 0),
            time=view.now,
            detail=(
                f"prefix of length {result.violating_prefix_length} of the "
                f"merged history is not reducible"
            ),
        )


class WalMonotoneInvariant(Invariant):
    """Per-shard WAL LSNs must be strictly increasing in append order."""

    name = "wal-monotone"

    def check(self, view) -> Optional[InvariantViolation]:
        for shard_id, shard in sorted(view.federation.shards.items()):
            last = None
            for record in shard.wal.records():
                lsn = int(record.get("lsn", -1))
                if last is not None and lsn <= last:
                    return InvariantViolation(
                        invariant=self.name,
                        event_index=lsn,
                        time=view.now,
                        detail=(
                            f"shard {shard_id!r} WAL lsn {lsn} follows "
                            f"{last} (non-monotone)"
                        ),
                    )
                last = lsn
        return None


class DecisionConservationInvariant(Invariant):
    """No 2PC commit decision is ever applied twice to a subsystem."""

    name = "decision-conservation"

    def check(self, view) -> Optional[InvariantViolation]:
        ledger = view.federation.ledger
        for txn_id, count in sorted(ledger.commits.items()):
            if count > 1:
                return InvariantViolation(
                    invariant=self.name,
                    event_index=int(sum(ledger.commits.values())),
                    time=view.now,
                    detail=(
                        f"commit decision for {txn_id!r} applied "
                        f"{count} times"
                    ),
                )
        return None


class NoFrecAbortInvariant(Invariant):
    """A hardened (F-REC) process may never end aborted.

    During the run this inspects live scheduler state; at the end it
    cross-checks the durable evidence — no process id may carry both a
    commit and an abort record anywhere in the federation's WALs.
    """

    name = "no-frec-abort"

    def check(self, view) -> Optional[InvariantViolation]:
        for shard_id, shard in sorted(view.federation.shards.items()):
            if not shard.alive:
                continue
            scheduler = shard.scheduler
            for pid in scheduler.instance_ids():
                managed = scheduler.managed(pid)
                if managed.is_hardened and managed.status.value == "aborted":
                    return InvariantViolation(
                        invariant=self.name,
                        event_index=managed.instance.step_count,
                        time=view.now,
                        detail=(
                            f"hardened process {pid!r} aborted on shard "
                            f"{shard_id!r}"
                        ),
                    )
        return None

    def final(self, view) -> Optional[InvariantViolation]:
        violation = self.check(view)
        if violation is not None:
            return violation
        committed, aborted = view.federation.outcomes()
        both = sorted(committed & aborted)
        if both:
            return InvariantViolation(
                invariant=self.name,
                event_index=len(both),
                time=view.now,
                detail=(
                    f"processes with both durable commit and abort "
                    f"records: {', '.join(both)}"
                ),
            )
        return None


class NoLostProcessInvariant(Invariant):
    """Every submitted process has a durable terminal outcome somewhere."""

    name = "no-lost-process"

    def final(self, view) -> Optional[InvariantViolation]:
        audit = view.federation.validate()
        if audit.lost_processes:
            return InvariantViolation(
                invariant=self.name,
                event_index=len(audit.lost_processes),
                time=view.now,
                detail=(
                    f"lost processes: "
                    f"{', '.join(sorted(audit.lost_processes))}"
                ),
            )
        return None


class CanaryInvariant(Invariant):
    """Intentionally-broken fixture: fault injection of the injector.

    "Violates" as soon as every listed injector family has delivered at
    least ``threshold`` faults — a deterministic, searchable,
    shrinkable target that exercises the whole
    search → shrink → bundle → replay pipeline without needing a real
    protocol bug.  The 1-minimal plan is exactly one firing action per
    listed family.
    """

    name = "canary"
    expensive = False

    def __init__(
        self, families: Sequence[str], threshold: int = 1
    ) -> None:
        self.families = tuple(families)
        self.threshold = threshold

    def check(self, view) -> Optional[InvariantViolation]:
        counts = view.family_deliveries()
        if all(
            counts.get(family, 0) >= self.threshold
            for family in self.families
        ):
            return InvariantViolation(
                invariant=self.name,
                event_index=len(self.families),
                time=view.now,
                detail=(
                    "all watched families delivered faults: "
                    + ", ".join(
                        f"{family}={counts.get(family, 0)}"
                        for family in self.families
                    )
                ),
            )
        return None


def default_invariants() -> List[Invariant]:
    """The standard registry every nemesis run checks."""
    return [
        PredPrefixInvariant(),
        WalMonotoneInvariant(),
        DecisionConservationInvariant(),
        NoFrecAbortInvariant(),
        NoLostProcessInvariant(),
    ]

"""The one grade tail every harness funnels through.

Five harnesses (chaos, crash-points, overload, federation, nemesis)
assemble a world, run it, and then do the same things to what it
produced: keep the store backends alive exactly as long as the run,
bracket it with ``run_begin``/``run_end`` trace events, run the offline
checkers over the produced history, fold in harness-specific audit
bits, and raise :class:`~repro.errors.CorrectnessViolation` when the
verdict is dirty.  This module is that tail, once:

* :class:`GradedRun` — the scope of one run: backend-hub lifetime, the
  two trace events, :meth:`GradedRun.grade`, and
  :meth:`GradedRun.ensure`, the single raise site: every harness passes
  structured context (harness name, seed, extra audit findings) and
  gets a :class:`CorrectnessViolation` carrying a *typed payload* —
  machine-readable fields the nemesis bundle writer and the CLI
  exit-code logic consume instead of parsing prose;
* :class:`Certification` / :func:`certify_history` — the offline
  verdict (PRED, reducibility, guaranteed termination);
* ``EXIT_OK`` / ``EXIT_VIOLATION`` / ``EXIT_USAGE`` — the CLI exit-code
  contract (0 healthy, 1 correctness violation, 2 usage/typed error),
  stated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.pred import check_pred
from repro.core.reduction import reduce_schedule
from repro.errors import CorrectnessViolation
from repro.obs.bus import tracing
from repro.subsystems.backend import BackendHub
from repro.subsystems.failures import DiskFaultPolicy

__all__ = [
    "Certification",
    "GradedRun",
    "certify_history",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "EXIT_USAGE",
]

#: CLI exit-code contract shared by every ``repro`` subcommand.
EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Certification:
    """Offline verdict on one produced history (all harnesses share
    it): PRED, reducibility, and termination."""

    pred: bool
    reducible: bool
    terminated: bool

    @property
    def certified(self) -> bool:
        return self.pred and self.reducible and self.terminated

    def describe(self) -> str:
        return (
            f"pred={self.pred} reducible={self.reducible} "
            f"terminated={self.terminated}"
        )

    def as_dict(self) -> Dict[str, bool]:
        return {
            "pred": self.pred,
            "reducible": self.reducible,
            "terminated": self.terminated,
        }


def certify_history(history, terminated: bool) -> Certification:
    """Run the offline checkers over a produced history.

    ``terminated`` is the harness's own observation that every submitted
    process reached a terminal state (guaranteed termination) — the
    checkers cannot see processes that produced no events.
    """
    return Certification(
        pred=check_pred(history).is_pred,
        reducible=reduce_schedule(history).is_reducible,
        terminated=terminated,
    )


class GradedRun:
    """The scope of one harness run, from build to verdict.

    Used as a context manager: :attr:`hub` (the run's store backends;
    a ``memory`` hub owns nothing) lives until the block exits, even
    when the run raises.  Inside, the harness builds its world against
    :attr:`hub`, calls :meth:`begin`, runs it, passes what it produced
    to :meth:`grade`, and calls :meth:`end`; :meth:`ensure` turns a dirty
    verdict into the typed violation.  What the world is, how it is
    driven and which audit bits exist stay with the harness.
    """

    def __init__(
        self,
        harness: str,
        seed: Optional[int],
        backend: str = "memory",
        faults: Optional[DiskFaultPolicy] = None,
        trace: Optional[object] = None,
    ) -> None:
        self.harness = harness
        self.seed = seed
        self.hub = BackendHub(backend, faults=faults)
        self._trace = trace
        #: Offline verdict of the last :meth:`grade` (``None`` before).
        self.verdict: Optional[Certification] = None
        #: Harness audit folded into the verdict by :meth:`grade`.
        self.clean = True

    def __enter__(self) -> "GradedRun":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.hub.close()

    def begin(self, **fields: object) -> None:
        """Emit ``run_begin`` (call once the world is built: building
        may already emit, e.g. ``submitted``)."""
        self._emit("run_begin", fields)

    def end(self, **fields: object) -> None:
        self._emit("run_end", fields)

    def _emit(self, kind: str, fields: Dict[str, object]) -> None:
        bus = tracing(self._trace)
        if bus is not None:
            bus.emit(kind, harness=self.harness, **fields)

    def grade(
        self, history, terminated: bool, clean: bool = True
    ) -> Certification:
        """Certify ``history`` offline and fold in the harness's audit:
        ``clean`` carries what the offline checkers cannot see (decision
        audit, F-REC shed count, ...)."""
        self.verdict = certify_history(history, terminated)
        self.clean = clean
        return self.verdict

    @property
    def certified(self) -> bool:
        return (
            self.verdict is not None and self.verdict.certified and self.clean
        )

    def ensure(
        self,
        label: str,
        detail: str = "",
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        """Raise a typed :class:`CorrectnessViolation` unless the graded
        run is clean — the single raise site.  ``detail``/``details``
        describe the harness's audit for the message and the typed
        payload respectively."""
        assert self.verdict is not None, "grade() the run first"
        if self.certified:
            return
        context = f" (seed {self.seed})" if self.seed is not None else ""
        message = (
            f"{label} run{context} failed certification: "
            f"{self.verdict.describe()}"
        )
        if detail:
            message = f"{message} {detail}"
        raise CorrectnessViolation(
            message,
            harness=label,
            seed=self.seed,
            verdict=self.verdict.as_dict(),
            details=dict(details or {}),
        )

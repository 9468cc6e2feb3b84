"""Virtual time for the discrete-event simulation.

The simulation measures *virtual* durations (activity service times) so
benchmark results are deterministic and independent of host speed.  The
clock only ever moves forward, driven by the event queue.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing virtual clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` (never backwards)."""
        if time < self._now:
            raise ValueError(
                f"virtual time cannot move backwards: {time} < {self._now}"
            )
        self._now = time

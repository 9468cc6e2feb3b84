"""Discrete-event engine: a time-ordered callback queue.

A minimal, deterministic DES core: events are ``(time, sequence,
callback)`` triples ordered by time with FIFO tie-breaking, executed
against a shared :class:`~repro.sim.clock.VirtualClock`.  The simulation
runner schedules activity completions and process arrivals on it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import InvalidDelayError
from repro.sim.clock import VirtualClock

__all__ = ["EventQueue"]


class EventQueue:
    """Deterministic time-ordered event queue."""

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Raises :class:`~repro.errors.InvalidDelayError` (a
        :class:`ValueError` subclass) on a negative delay.
        """
        if delay < 0:
            raise InvalidDelayError(
                f"delay must be non-negative, got {delay}"
            )
        self.schedule_at(self.clock.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise InvalidDelayError(
                f"cannot schedule in the past: {time} < {self.clock.now}"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), callback))

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def next_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None``."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def run_next(self) -> bool:
        """Advance to and run the next event; ``False`` when empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.clock.advance_to(time)
        callback()
        return True

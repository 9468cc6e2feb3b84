"""Unit tests for the virtual clock and the discrete-event engine."""

import pytest

from repro.errors import InvalidDelayError, ReproError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.engine import EventQueue


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advance_forward(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_no_time_travel(self):
        clock = VirtualClock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_advance_to_same_time_allowed(self):
        clock = VirtualClock(2.0)
        clock.advance_to(2.0)


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("late"))
        queue.schedule(1.0, lambda: order.append("early"))
        while queue.run_next():
            pass
        assert order == ["early", "late"]
        assert queue.clock.now == 2.0

    def test_fifo_tie_breaking(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: order.append("first"))
        queue.schedule(1.0, lambda: order.append("second"))
        while queue.run_next():
            pass
        assert order == ["first", "second"]

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        hits = []
        queue.schedule_at(4.0, lambda: hits.append(queue.clock.now))
        while queue.run_next():
            pass
        assert hits == [4.0]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, lambda: None)

    def test_negative_delay_raises_typed_error(self):
        """The typed error from repro.errors, not a bare ValueError."""
        queue = EventQueue()
        with pytest.raises(InvalidDelayError):
            queue.schedule(-0.5, lambda: None)

    def test_invalid_delay_error_hierarchy(self):
        """Catchable as ValueError (back-compat) and as ReproError."""
        assert issubclass(InvalidDelayError, ValueError)
        assert issubclass(InvalidDelayError, SimulationError)
        assert issubclass(SimulationError, ReproError)

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run_next()
        with pytest.raises(ValueError):
            queue.schedule_at(0.5, lambda: None)

    def test_schedule_in_past_raises_typed_error(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run_next()
        with pytest.raises(InvalidDelayError):
            queue.schedule_at(0.5, lambda: None)

    def test_callbacks_may_schedule_more(self):
        queue = EventQueue()
        hits = []

        def chain():
            hits.append(queue.clock.now)
            if len(hits) < 3:
                queue.schedule(1.0, chain)

        queue.schedule(1.0, chain)
        executed = 0
        while queue.run_next():
            executed += 1
        assert executed == 3
        assert hits == [1.0, 2.0, 3.0]

    def test_run_next_on_empty(self):
        queue = EventQueue()
        assert not queue.run_next()
        assert queue.empty

    def test_next_time(self):
        queue = EventQueue()
        assert queue.next_time() is None
        queue.schedule(3.0, lambda: None)
        assert queue.next_time() == 3.0
        assert len(queue) == 1

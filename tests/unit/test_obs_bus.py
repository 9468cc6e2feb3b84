"""Unit tests for the structured trace bus and its sinks."""

import json

import pytest

from repro.obs import (
    EVENT_CATEGORIES,
    JsonlSink,
    MemorySink,
    TraceBus,
    TraceEvent,
    validate_stream,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestTraceBus:
    def test_disabled_until_a_sink_subscribes(self):
        bus = TraceBus()
        assert not bus.enabled
        bus.subscribe(MemorySink())
        assert bus.enabled

    def test_emit_without_sinks_is_a_noop(self):
        bus = TraceBus()
        bus.emit("submitted", process="P1")  # must not raise, must not buffer
        sink = bus.subscribe(MemorySink())
        assert len(sink) == 0

    def test_seq_is_monotone_and_ts_follows_the_clock(self):
        clock = FakeClock()
        bus = TraceBus()
        bus.attach_clock(clock)
        sink = bus.subscribe(MemorySink())
        bus.emit("submitted", process="P1")
        clock.now = 2.5
        bus.emit("activity", process="P1", activity="a1")
        records = sink.records()
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["ts"] for r in records] == [0.0, 2.5]
        assert validate_stream(records) == []

    def test_unknown_kind_rejected(self):
        bus = TraceBus()
        bus.subscribe(MemorySink())
        with pytest.raises(KeyError):
            bus.emit("no_such_kind")

    def test_emit_payload_splits_correlation_ids_without_mutating(self):
        bus = TraceBus()
        sink = bus.subscribe(MemorySink())
        payload = {"process": "P1", "activity": "a1", "rule": "R3-lemma1"}
        bus.emit_payload("deferred", payload)
        assert payload == {
            "process": "P1",
            "activity": "a1",
            "rule": "R3-lemma1",
        }
        [record] = sink.records()
        assert record["process"] == "P1"
        assert record["activity"] == "a1"
        assert record["data"] == {"rule": "R3-lemma1"}
        assert record["cat"] == EVENT_CATEGORIES["deferred"]

    def test_fan_out_reaches_every_sink(self):
        bus = TraceBus()
        first = bus.subscribe(MemorySink())
        second = bus.subscribe(MemorySink())
        bus.emit("offered", process="P1")
        assert len(first) == len(second) == 1

    def test_memory_sink_ring_bound(self):
        bus = TraceBus()
        sink = bus.subscribe(MemorySink(maxlen=2))
        for _ in range(5):
            bus.emit("offered", process="P1")
        assert len(sink) == 2
        assert [r["seq"] for r in sink.records()] == [3, 4]


class TestJsonlSink:
    def test_writes_one_compact_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        bus.subscribe(JsonlSink(str(path)))
        bus.emit("submitted", process="P1")
        bus.emit("terminated", process="P1", status="committed")
        bus.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert validate_stream(records) == []
        assert records[1]["data"] == {"status": "committed"}

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()


class TestTraceEventRoundtrip:
    def test_to_dict_from_dict(self):
        event = TraceEvent(3, 1.5, "deferred", "sched", "P1", "a1", {"k": 1})
        clone = TraceEvent.from_dict(event.to_dict())
        assert clone.seq == 3 and clone.ts == 1.5
        assert clone.kind == "deferred" and clone.cat == "sched"
        assert clone.process == "P1" and clone.activity == "a1"
        assert clone.data == {"k": 1}


class TestCausalAnchors:
    def test_emit_returns_the_event_seq(self):
        bus = TraceBus()
        sink = bus.subscribe(MemorySink())
        first = bus.emit("submitted", process="P1")
        second = bus.emit("activity", process="P1", activity="a1")
        assert (first, second) == (0, 1)
        assert [r["seq"] for r in sink.records()] == [0, 1]

    def test_disabled_emit_returns_none(self):
        bus = TraceBus()
        assert bus.emit("submitted", process="P1") is None

    def test_cause_chains_survive_export(self):
        bus = TraceBus()
        sink = bus.subscribe(MemorySink())
        anchor = bus.emit("msg_send", channel="rpc", op="prepare")
        bus.emit("msg_recv", channel="rpc", op="prepare", cause=anchor)
        records = sink.records()
        assert records[1]["data"]["cause"] == records[0]["seq"]
        assert validate_stream(records) == []


class TestTracingHelper:
    def test_none_and_disabled_yield_none(self):
        from repro.obs import tracing

        assert tracing(None) is None
        assert tracing(TraceBus()) is None  # no sinks -> disabled
        assert tracing(object()) is None  # foreign object, no .enabled

    def test_enabled_bus_passes_through(self):
        from repro.obs import tracing

        bus = TraceBus()
        bus.subscribe(MemorySink())
        assert tracing(bus) is bus

"""Structured events: JSONL round-trip, schema versioning, ordering."""

import json

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.obs import events
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    Encoded,
    EventSink,
    MemorySink,
    read_events,
)
from repro.obs.registry import MetricsRegistry
from repro.policies.schedule_policy import SchedulePolicy
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.target_system import TargetSystem


class TestEventSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventSink(path) as sink:
            sink.emit("engine.slot", slot=0, utility=1.5)
            sink.emit("health.transition", slot=3, node=7, after="down")
        records = read_events(path)
        assert records == [
            {
                "v": EVENT_SCHEMA_VERSION,
                "seq": 0,
                "kind": "engine.slot",
                "slot": 0,
                "utility": 1.5,
            },
            {
                "v": EVENT_SCHEMA_VERSION,
                "seq": 1,
                "kind": "health.transition",
                "slot": 3,
                "node": 7,
                "after": "down",
            },
        ]

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventSink(path) as sink:
            for i in range(5):
                sink.emit("tick", i=i)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        assert all(json.loads(line)["kind"] == "tick" for line in lines)

    def test_file_opens_lazily(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = EventSink(path)
        sink.close()
        assert not path.exists()

    def test_appends_to_existing_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventSink(path) as sink:
            sink.emit("first")
        with EventSink(path) as sink:
            sink.emit("second")
        kinds = [r["kind"] for r in read_events(path)]
        assert kinds == ["first", "second"]

    def test_close_is_idempotent(self, tmp_path):
        sink = EventSink(tmp_path / "run.jsonl")
        sink.emit("only")
        sink.close()
        sink.close()

    def test_sets_and_tuples_become_sorted_lists(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventSink(path) as sink:
            sink.emit("x", nodes=frozenset({3, 1}), pair=(1, 2))
        (record,) = read_events(path)
        assert record["nodes"] == [1, 3]
        assert record["pair"] == [1, 2]


class TestReadEvents:
    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 99, "seq": 0, "kind": "future"}\n')
        with pytest.raises(ValueError, match="unsupported event schema"):
            read_events(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"v": 1, "seq": 0, "kind": "a"}\n\n')
        assert [r["kind"] for r in read_events(path)] == ["a"]


class TestMemorySink:
    def test_records_accumulate_in_order(self):
        sink = MemorySink()
        sink.emit("a")
        sink.emit("b", slot=1)
        assert [r["kind"] for r in sink.records] == ["a", "b"]
        assert [r["seq"] for r in sink.records] == [0, 1]

    def test_payloads_match_file_sink_semantics(self):
        sink = MemorySink()
        record = sink.emit("x", nodes={2, 1}, pair=(1, 2))
        assert record["nodes"] == [1, 2]
        assert record["pair"] == [1, 2]


class TestEncoded:
    """A field wrapped with its JSON text is spliced into the line, and
    stands for its plain value everywhere else."""

    FIELDS = {
        "slot": 7,
        "ids": (3, 5, 8),
        "utility": 0.1 + 0.2,
        "nodes": frozenset({2, 1}),
        "note": "caf\u00e9",
    }

    def wrapped(self):
        return dict(self.FIELDS, ids=Encoded.of(self.FIELDS["ids"]))

    def test_line_equals_one_dump_of_the_plain_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventSink(path) as sink:
            sink.emit("engine.slot", **self.wrapped())
            sink.emit("tail", first=Encoded.of([1]), last=Encoded.of([2]))
            sink.emit("engine.slot", **self.FIELDS)  # no wrapper at all
        plain = {"v": EVENT_SCHEMA_VERSION, "seq": 0, "kind": "engine.slot"}
        plain.update(self.FIELDS)
        plain["nodes"] = [1, 2]  # what the sink writes for a set
        tail = {"v": EVENT_SCHEMA_VERSION, "seq": 1, "kind": "tail"}
        tail.update(first=[1], last=[2])
        assert path.read_text().split("\n") == [
            json.dumps(plain),
            json.dumps(tail),
            json.dumps(dict(plain, seq=2)),
            "",
        ]

    def test_returned_record_holds_the_plain_value(self, tmp_path):
        ids = self.FIELDS["ids"]
        with EventSink(tmp_path / "run.jsonl") as sink:
            record = sink.emit("engine.slot", **self.wrapped())
        assert record["ids"] is ids
        assert list(record) == ["v", "seq", "kind", *self.FIELDS]

    def test_memory_sink_sees_the_unwrapped_record(self):
        plain, wrapped = MemorySink(), MemorySink()
        plain.emit("engine.slot", **self.FIELDS)
        wrapped.emit("engine.slot", **self.wrapped())
        wrapped.emit("nested", pair=[Encoded.of((1, 2))])
        assert wrapped.records[0] == plain.records[0]
        assert wrapped.records[1]["pair"] == [[1, 2]]

    def test_engine_stream_parses_to_the_memory_sink_records(self, tmp_path):
        period = ChargingPeriod.paper_sunny()
        utility = TargetSystem.homogeneous_detection(
            [set(range(0, 6)), set(range(3, 9)), set(range(6, 12))], 0.4
        )
        problem = SchedulingProblem(
            num_sensors=12, period=period, utility=utility, num_periods=3
        )
        schedule = greedy_schedule(problem)
        slots = 3 * period.slots_per_period

        def run(sink):
            engine = SimulationEngine(
                SensorNetwork(12, period, utility),
                SchedulePolicy(schedule),
                vectorized=True,
            )
            previous = events.set_sink(sink)
            try:
                engine.run(slots)
            finally:
                events.set_sink(previous)
                sink.close()
            return engine

        memory = MemorySink()
        run(memory)
        path = tmp_path / "run.jsonl"
        engine = run(EventSink(path))
        # The file sink's run spliced pre-encoded id lists.
        assert all(
            isinstance(entry[2], Encoded)
            for entry in engine._active_sets._entries.values()
        )
        assert len(memory.records) == slots
        assert read_events(path) == memory.records


class TestModuleSwitchboard:
    def test_emit_is_noop_without_sink(self):
        assert events.get_sink() is None
        events.emit("ignored", slot=0)  # must not raise

    def test_installed_sink_receives_module_emits(self):
        sink = MemorySink()
        previous = events.set_sink(sink)
        try:
            events.emit("engine.slot", slot=0)
        finally:
            events.set_sink(previous)
        assert [r["kind"] for r in sink.records] == ["engine.slot"]

    def test_set_sink_returns_previous_for_restore(self):
        first, second = MemorySink(), MemorySink()
        assert events.set_sink(first) is None
        assert events.set_sink(second) is first
        assert events.set_sink(None) is second

    def test_disabled_observability_suppresses_emits(self):
        sink = MemorySink()
        events.set_sink(sink)
        MetricsRegistry.disable()
        try:
            events.emit("ignored")
        finally:
            MetricsRegistry.enable()
            events.set_sink(None)
        assert sink.records == []

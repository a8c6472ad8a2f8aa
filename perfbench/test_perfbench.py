"""Tests for the benchmark's own arithmetic, inputs and wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs, layers, spans  # noqa: E402
from perfbench.run import END_TO_END, WORKLOADS  # noqa: E402
from perfbench.stats import median_rate, quantile, self_times, spread, tail_supported  # noqa: E402


class TestQuantiles:
    def test_interpolates_between_order_statistics(self):
        assert quantile([4, 1, 3, 2], 0.5) == 2.5
        assert quantile([4, 1, 3, 2], 0.0) == 1
        assert quantile([4, 1, 3, 2], 1.0) == 4
        assert quantile(list(range(101)), 0.95) == 95
        assert quantile([7.0], 0.95) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_spread_uses_the_statistics_quartiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 12.0, 9.9, 10.4, 10.1, 10.8, 9.7]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert spread(values) == (q3 - q1) / median

    def test_median_rate_ignores_a_slow_stretch(self):
        steady = [i * 0.1 for i in range(21)]  # ten per second
        stalled = steady + [7.1, 7.2]
        assert median_rate(steady) == pytest.approx(10.0)
        assert median_rate(stalled) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            median_rate([1.0])

    def test_tail_support(self):
        assert tail_supported(200, 0.95)
        assert not tail_supported(199, 0.95)


def _span(span_id, parent, layer, start, end, leaf_seconds=0.0, leaf_calls=0, attrs=None):
    return [span_id, parent, layer, start, end, leaf_seconds, leaf_calls, attrs]


class TestSelfTime:
    def test_subtracts_children_and_leaf_time(self):
        recorded = [
            _span(0, -1, "root", 0.0, 10.0, leaf_seconds=0.5),
            _span(1, 0, "a", 1.0, 3.0),
            _span(2, 0, "b", 8.0, 9.0),
            _span(3, 1, "c", 1.5, 2.0),
        ]
        selfs = self_times(recorded)
        assert selfs[0] == pytest.approx(10.0 - 3.0 - 0.5)
        assert selfs[1] == pytest.approx(1.5)
        assert selfs[2] == pytest.approx(1.0)
        assert selfs[3] == pytest.approx(0.5)

    def test_overlapping_children_count_once_and_are_clipped(self):
        recorded = [
            _span(0, -1, "root", 0.0, 10.0),
            _span(1, 0, "a", 1.0, 3.0),
            _span(2, 0, "b", 2.0, 5.0),
            _span(3, 0, "c", 9.0, 12.0),
        ]
        assert self_times(recorded)[0] == pytest.approx(10.0 - 4.0 - 1.0)

    def test_never_negative(self):
        recorded = [_span(0, -1, "root", 0.0, 1.0, leaf_seconds=2.0)]
        assert self_times(recorded)[0] == 0.0


class TestLayerMetrics:
    def test_per_request_http_times_and_cache_ratio(self):
        recorded = [
            _span(0, -1, "http.handler", 0.0, 0.010),
            _span(1, 0, "http.parse", 0.001, 0.002),
            _span(2, 0, "cache.peek", 0.002, 0.004, attrs={"hit": True}),
            _span(3, 0, "http.encode", 0.008, 0.009, attrs={"bytes": 100}),
            _span(4, -1, "http.handler", 1.0, 1.020),
            _span(5, 4, "cache.peek", 1.001, 1.002, attrs={"hit": False}),
            _span(6, -1, "http.handler", 5.0, 5.001),  # outside the window
        ]
        metrics, calls = layers.layer_metrics(
            recorded, (0.0, 2.0), {}, client_latencies=[0.015, 0.025]
        )
        assert calls["http.handler"] == 2
        assert metrics["http.handler_ms"] == pytest.approx((6.0 + 19.0) / 2)
        assert metrics["http.parse_ms"] == pytest.approx(0.5)
        assert metrics["http.response_bytes"] == pytest.approx(50.0)
        assert metrics["http.transport_ms"] == pytest.approx(20.0 - 15.0)
        assert metrics["cache.hit_ratio"] == pytest.approx(0.5)
        assert metrics["cache.peek_ms"] == pytest.approx(1.5)
        assert layers.idle_busy_layers("serve-mixed", calls) == [
            "batcher.submit",
            "cache.put",
            "fingerprint",
            "executor.solve_many",
            "core",
        ]

    def test_registry_counters_by_label(self):
        text = "\n".join(
            [
                "# TYPE repro_batched_fallback_total counter",
                'repro_batched_fallback_total{reason="singleton"} 3',
                'repro_batched_fallback_total{reason="rho"} 1',
                'repro_greedy_marginal_evals_total{variant="lazy"} 10',
                'repro_greedy_marginal_evals_total{variant="batched"} 90',
            ]
        )
        samples = layers.parse_prometheus(text)
        assert layers.counter(samples, "repro_batched_fallback_total") == 4
        assert layers.fallbacks(samples) == {"singleton": 3, "rho": 1}
        metrics, _ = layers.layer_metrics([], None, samples)
        assert metrics["core.marginal_evals"] == 10
        assert metrics["batched.fallback.singleton"] == 3


class TestSeededInputs:
    def test_serve_streams_repeat_for_a_seed(self):
        a, b, c = inputs.ServeInputs(7), inputs.ServeInputs(7), inputs.ServeInputs(8)
        fixed_a, fixed_b = a.schedule(20.0, 3.0), b.schedule(20.0, 3.0)
        assert fixed_a == fixed_b and fixed_a != c.schedule(20.0, 3.0)
        assert all(0 <= r.offset < 3.0 for r in fixed_a)
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]
        assert a.pool == b.pool and a.fresh == b.fresh

    def test_every_block_of_five_has_one_fresh_instance(self):
        stream = inputs.ServeInputs(2)
        kinds = [stream.next()[0][0] for _ in range(100)]
        for block in range(0, 100, len(inputs.BLOCK)):
            assert kinds[block : block + len(inputs.BLOCK)].count("fresh") == 1

    def test_fresh_instances_are_distinct(self):
        generated = inputs.ServeInputs(3)
        generated.schedule(20.0, 5.0)
        for _ in range(200):
            generated.next()
        bodies = [json.dumps(doc, sort_keys=True) for doc in generated.fresh]
        pool = {json.dumps(doc, sort_keys=True) for doc in generated.pool}
        assert len(set(bodies)) == len(bodies)
        assert not pool & set(bodies)

    def test_delta_streams_repeat_and_stay_valid(self):
        from repro.serve.schemas import problem_from_wire
        from repro.sessions.deltas import apply_delta, delta_from_dict

        first = inputs.session_inputs(5)
        second = inputs.session_inputs(5)
        for (doc, script), (doc2, script2) in zip(first, second):
            assert doc == doc2
            problem = problem_from_wire(doc)
            failed = frozenset()
            for _ in range(300):
                delta = script.next()
                assert delta == script2.next()
                effect = apply_delta(problem, failed, delta_from_dict(delta))
                problem, failed = effect.problem, effect.failed
            assert failed == script.failed

    def test_batches_repeat_and_fill_every_group(self):
        docs = inputs.batch_docs(2, 0)
        assert docs == inputs.batch_docs(2, 0)
        assert len(docs) == inputs.BATCH_SIZE
        groups = {}
        for doc in docs:
            family = doc["utility"].get("kind", "homogeneous-detection")
            groups[(family, doc["rho"])] = groups.get((family, doc["rho"]), 0) + 1
        assert sorted(groups.values()) == [4, 4, 4]
        assert {doc["rho"] for doc in inputs.batch_docs(2, 1)} == {3}


class TestWrappers:
    def test_patches_the_callers_import_site_and_undoes_it(self):
        import repro.batched.greedy
        import repro.runtime.executor as executor

        original = executor.solve_batch
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            assert executor.solve_batch is not original
            assert repro.batched.greedy.solve_batch is original
        finally:
            uninstall()
        assert executor.solve_batch is original

    def test_traced_solve_many_records_nested_layers(self):
        from repro.runtime import executor
        from repro.serve.schemas import problem_from_wire

        problems = [problem_from_wire(doc) for doc in inputs.batch_docs(1, 0)]
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            executor.solve_many([(p, "greedy", None) for p in problems])
        finally:
            uninstall()
        _metrics, calls = layers.layer_metrics(recorder.spans, None, {})
        assert calls["executor.solve_many"] == 1
        assert calls["batched.solve_batch"] == 3  # one per family
        assert calls["fingerprint"] == 12
        assert not layers.idle_busy_layers("batch-solve", calls)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert set(layers.BUSY) == set(WORKLOADS)

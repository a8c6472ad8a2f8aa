"""Per-layer metrics of a traced pass, from spans and registry counters.

Times are self times (a span minus its child spans; see
:func:`perfbench.stats.self_times`).  ``http.*`` times are per request;
every other ``*_ms`` is a mean per call.  Counts that the program
already keeps (fast-path hits, coalescing, kernel invocations,
fallbacks, marginal evaluations, spatial queries) are read from its
metrics registry as the difference across the measured window.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.spans import ATTRS, END, LAYER, LEAF_CALLS, LEAF_SECONDS, START
from perfbench.stats import self_times

KERNEL_FAMILIES = ("homogeneous-detection", "detection", "coverage")
FALLBACK_REASONS = ("rho", "family", "method", "singleton", "disabled", "forced-pool")
SPATIAL_COUNTERS = ("index_builds", "queries", "candidates", "pruned")
RESOLVES = ("warm", "cold", "memo")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("http.transport_ms", "ms"),
    ("http.handler_ms", "ms"),
    ("http.parse_ms", "ms"),
    ("http.encode_ms", "ms"),
    ("http.response_bytes", "bytes"),
    ("batcher.queue_wait_ms", "ms"),
    ("batcher.batch_size", "count"),
    ("batcher.fastpath_hits", "count"),
    ("batcher.coalesced", "count"),
    ("cache.peek_ms", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("fingerprint.ms", "ms"),
    ("fingerprint.calls_per_request", "count"),
    ("executor.solve_many_ms", "ms"),
    ("executor.unique_per_call", "count"),
    ("batched.solve_batch_ms", "ms"),
    ("batched.width", "count"),
    *((f"batched.kernel_invocations.{f}", "count") for f in KERNEL_FAMILIES),
    *((f"batched.fallback.{r}", "count") for r in FALLBACK_REASONS),
    ("core.solve_ms", "ms"),
    ("core.marginal_evals", "count"),
    ("core.us_per_eval", "us"),
    ("utility.gain_calls", "count"),
    ("utility.gain_us", "us"),
    *((f"sessions.apply_ms.{r}", "ms") for r in RESOLVES),
    *((f"sessions.resolve_share.{r}", "ratio") for r in RESOLVES),
    ("sessions.moves", "count"),
    ("sessions.checkout_wait_ms", "ms"),
    ("coverage.sets_s", "s"),
    *((f"spatial.{c}", "count") for c in SPATIAL_COUNTERS),
    ("engine.step_ms", "ms"),
    ("accumulator.record_ms", "ms"),
    ("events.emit_ms", "ms"),
    ("events.bytes_per_slot", "bytes"),
    ("trace.overhead_pct", "%"),
)

#: Span layers that must record calls on each workload (the layer is
#: busy there); a traced pass that finds zero calls fails.
#: ``utility.gain`` is checked through its leaf-call count.
BUSY: Dict[str, Tuple[str, ...]] = {
    "serve-mixed": (
        "http.handler",
        "http.parse",
        "http.encode",
        "batcher.submit",
        "cache.peek",
        "cache.put",
        "fingerprint",
        "executor.solve_many",
        "core",
    ),
    "session-stream": (
        "http.handler",
        "http.parse",
        "http.encode",
        "sessions.apply",
        "sessions.checkout",
        "core",
        "utility.gain",
    ),
    "batch-solve": ("executor.solve_many", "batched.solve_batch"),
    "fleet-day": (
        "core",
        "utility.gain",
        "coverage.sets",
        "engine.step",
        "accumulator.record",
        "events.emit",
    ),
}


# ----------------------------------------------------------------------
# Registry samples (Prometheus text, from /metrics or in-process)
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

Samples = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse_prometheus(text: str) -> Samples:
    samples: Samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, key)] = float(value)
    return samples


def registry_samples() -> Samples:
    """This process's own registry, parsed like a server's ``/metrics``."""
    from repro.obs.export import to_prometheus

    return parse_prometheus(to_prometheus())


def counter(samples: Samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over samples whose labels include ``labels``."""
    total = 0.0
    for (sample_name, key), value in samples.items():
        if sample_name == name and all(
            (k, v) in key for k, v in labels.items()
        ):
            total += value
    return total


def diff(after: Samples, before: Samples) -> Samples:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def fallbacks(samples: Samples) -> Dict[str, int]:
    """Every nonzero ``repro_batched_fallback_total{reason}``."""
    seen: Dict[str, int] = {}
    for (name, key), value in samples.items():
        if name == "repro_batched_fallback_total" and value:
            reason = dict(key).get("reason", "?")
            seen[reason] = seen.get(reason, 0) + int(value)
    return seen


# ----------------------------------------------------------------------
# Span aggregation
# ----------------------------------------------------------------------


class _Layer:
    __slots__ = ("calls", "self_s", "incl_s", "attrs")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.attrs: List[dict] = []


def aggregate(spans: Sequence[list], window: Optional[Tuple[float, float]] = None):
    """Per-layer calls, self and inclusive seconds, and leaf totals.

    With ``window``, only spans that start and end inside it count.
    """
    selfs = self_times(spans)
    layers: Dict[str, _Layer] = {}
    leaf_calls = 0
    leaf_seconds = 0.0
    for span in spans:
        if window is not None and not (
            window[0] <= span[START] and span[END] <= window[1]
        ):
            continue
        layer = layers.setdefault(span[LAYER], _Layer())
        layer.calls += 1
        layer.self_s += selfs[span[0]]
        layer.incl_s += span[END] - span[START]
        if span[ATTRS] is not None:
            layer.attrs.append({**span[ATTRS], "self_s": selfs[span[0]]})
        leaf_calls += span[LEAF_CALLS]
        leaf_seconds += span[LEAF_SECONDS]
    return layers, leaf_calls, leaf_seconds


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: Sequence[list],
    window: Optional[Tuple[float, float]],
    counters: Samples,
    client_latencies: Sequence[float] = (),
    event_bytes_per_slot: float = 0.0,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """All :data:`PER_LAYER` values except ``trace.overhead_pct``.

    Returns ``(metrics, calls)`` where ``calls`` counts spans per layer
    (plus ``utility.gain`` leaf calls) for the busy check.
    """
    layers, gain_calls, gain_seconds = aggregate(spans, window)
    empty = _Layer()

    def get(name: str) -> _Layer:
        return layers.get(name, empty)

    def mean_self_ms(name: str) -> float:
        layer = get(name)
        return 1000.0 * layer.self_s / layer.calls if layer.calls else 0.0

    requests = get("http.handler").calls

    def per_request_ms(name: str) -> float:
        return 1000.0 * get(name).self_s / requests if requests else 0.0

    m: Dict[str, float] = {}
    handler_incl_ms = 1000.0 * get("http.handler").incl_s / requests if requests else 0.0
    m["http.transport_ms"] = (
        1000.0 * _mean(client_latencies) - handler_incl_ms if requests else 0.0
    )
    m["http.handler_ms"] = per_request_ms("http.handler")
    m["http.parse_ms"] = per_request_ms("http.parse")
    m["http.encode_ms"] = per_request_ms("http.encode")
    m["http.response_bytes"] = (
        sum(a.get("bytes", 0) for a in get("http.encode").attrs) / requests
        if requests
        else 0.0
    )

    many = get("executor.solve_many").attrs
    batcher_calls = [a for a in many if "waits" in a]
    m["batcher.queue_wait_ms"] = 1000.0 * _mean(
        w for a in batcher_calls for w in a["waits"]
    )
    m["batcher.batch_size"] = _mean(a["tasks"] for a in batcher_calls)
    m["batcher.fastpath_hits"] = counter(counters, "repro_server_cache_fastpath_total")
    m["batcher.coalesced"] = counter(counters, "repro_server_coalesced_total")

    m["cache.peek_ms"] = mean_self_ms("cache.peek")
    m["cache.get_ms"] = mean_self_ms("cache.get")
    m["cache.put_ms"] = mean_self_ms("cache.put")
    lookups = get("cache.peek").attrs + get("cache.get").attrs
    m["cache.hit_ratio"] = _mean(1.0 if a["hit"] else 0.0 for a in lookups)

    m["fingerprint.ms"] = mean_self_ms("fingerprint")
    m["fingerprint.calls_per_request"] = (
        get("fingerprint").calls / requests if requests else 0.0
    )

    m["executor.solve_many_ms"] = mean_self_ms("executor.solve_many")
    m["executor.unique_per_call"] = _mean(a["unique"] for a in many)

    m["batched.solve_batch_ms"] = mean_self_ms("batched.solve_batch")
    m["batched.width"] = _mean(a["width"] for a in get("batched.solve_batch").attrs)
    for family in KERNEL_FAMILIES:
        m[f"batched.kernel_invocations.{family}"] = counter(
            counters, "repro_batched_kernel_invocations_total", family=family
        )
    for reason in FALLBACK_REASONS:
        m[f"batched.fallback.{reason}"] = counter(
            counters, "repro_batched_fallback_total", reason=reason
        )

    evals = counter(counters, "repro_greedy_marginal_evals_total") - counter(
        counters, "repro_greedy_marginal_evals_total", variant="batched"
    )
    m["core.solve_ms"] = mean_self_ms("core")
    m["core.marginal_evals"] = evals
    m["core.us_per_eval"] = 1e6 * get("core").incl_s / evals if evals else 0.0

    m["utility.gain_calls"] = float(gain_calls)
    m["utility.gain_us"] = 1e6 * gain_seconds / gain_calls if gain_calls else 0.0

    applies = get("sessions.apply")
    for resolve in RESOLVES:
        times = [a["self_s"] for a in applies.attrs if a["resolve"] == resolve]
        m[f"sessions.apply_ms.{resolve}"] = 1000.0 * _mean(times)
        m[f"sessions.resolve_share.{resolve}"] = (
            len(times) / applies.calls if applies.calls else 0.0
        )
    m["sessions.moves"] = _mean(a["moves"] for a in applies.attrs)
    checkout = get("sessions.checkout")
    m["sessions.checkout_wait_ms"] = (
        1000.0 * checkout.incl_s / checkout.calls if checkout.calls else 0.0
    )

    sets = get("coverage.sets")
    m["coverage.sets_s"] = sets.incl_s / sets.calls if sets.calls else 0.0
    for name in SPATIAL_COUNTERS:
        m[f"spatial.{name}"] = counter(counters, f"repro_spatial_{name}_total")

    m["engine.step_ms"] = mean_self_ms("engine.step")
    m["accumulator.record_ms"] = mean_self_ms("accumulator.record")
    m["events.emit_ms"] = mean_self_ms("events.emit")
    m["events.bytes_per_slot"] = event_bytes_per_slot

    calls = {name: layer.calls for name, layer in layers.items()}
    calls["utility.gain"] = gain_calls
    return m, calls


def idle_busy_layers(workload: str, calls: Dict[str, int]) -> List[str]:
    """Layers marked busy for ``workload`` that recorded no calls."""
    return [layer for layer in BUSY[workload] if not calls.get(layer)]

"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it builds nothing: ``src/`` is used
in place).  ``--workload all`` runs every workload in turn.  Each run
prints a report -- every named metric with its unit and sample count,
operations attempted and failed, host facts and fallbacks -- and then,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run makes an untraced pass and
a traced pass and the metrics are the per-layer ones, including the
tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("serve-mixed", "session-stream", "batch-solve", "fleet-day")

#: End-to-end metrics every workload reports: (name, unit).  The one
#: latency gated is p10, the cost of an operation when the host lets it
#: run at full speed.  The host's vCPUs each flip between a fast and a
#: slow mode, and the slow mode's speed itself wanders with the load
#: beside it, so the median and p95 of a CPU-bound run follow how much
#: of the run was slow and how slow; the fast mode stays put, and with
#: the timed loop spread over both vCPUs (:mod:`perfbench.affinity`)
#: every run spends well over a tenth of its time in it.  The median
#: and p95 are printed, not gated (README, "Run-to-run spread").
END_TO_END = (
    ("setup_s", "s"),
    ("p10_ms", "ms"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def _host_facts() -> str:
    import numpy

    return (
        f"host: nproc {len(os.sched_getaffinity(0))} (CPU affinity), "
        f"python {platform.python_version()}, numpy {numpy.__version__}"
    )


def _end_to_end(out) -> dict:
    from perfbench.stats import quantile

    values = {
        "setup_s": statistics.median(out.setup_s),
        "p10_ms": quantile(out.latencies_ms, 0.1),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(workload: str, plain, traced) -> dict:
    from perfbench.layers import PER_LAYER, idle_busy_layers, layer_metrics

    values, calls = layer_metrics(
        traced.spans,
        traced.window,
        traced.counters,
        traced.client_latencies,
        traced.event_bytes_per_slot,
    )
    values["trace.overhead_pct"] = 100.0 * (plain.throughput / traced.throughput - 1.0)
    idle = idle_busy_layers(workload, calls)
    if idle:
        traced.problems.append(f"busy layers recorded no calls: {idle}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _print_line(name: str, value: float, unit: str, count=None) -> None:
    from perfbench.stats import tail_supported

    suffix = "" if count is None else f"  (n={count})"
    if count is not None and "p95" in name and not tail_supported(count, 0.95):
        suffix = f"  (n={count}, fewer than 10 beyond p95)"
    print(f"  {name:<48} {value:>14.6g} {unit}{suffix}")


def _print_report(workload: str, args, outs, metrics: dict) -> None:
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace}) ==")
    print(_host_facts())
    latencies = outs[0].latencies_ms
    samples = {"setup_s": len(outs[0].setup_s), "p10_ms": len(latencies)}
    for name, metric in metrics.items():
        _print_line(name, metric["value"], metric["unit"], samples.get(name))
    if not args.trace:
        from perfbench.stats import quantile

        for q in (0.5, 0.95):
            name = f"p{int(q * 100)}_ms (not gated)"
            _print_line(name, quantile(latencies, q), "ms", len(latencies))
    for label, out in zip(("untraced pass", "traced pass") if args.trace else ("",), outs):
        if label:
            print(f" {label}:")
        for name, value, unit, count in out.report:
            _print_line(name, value, unit, count)
        print(f"  operations: attempted {out.attempted}, failed {out.failed}")
        for note in out.notes:
            print(f"  {note}")
        for problem in out.problems:
            print(f"  FAILED: {problem}")


def run_workload(workload: str, args, workdir: Path) -> dict:
    from perfbench.outcome import Context

    module = importlib.import_module(f"perfbench.{workload.replace('-', '_')}")
    if args.trace:
        plain = module.run(Context(ROOT, workdir / "plain"), args.seed, args.seconds, False, 1)
        traced = module.run(Context(ROOT, workdir / "traced"), args.seed, args.seconds, True, 1)
        outs = [plain, traced]
        metrics = _per_layer(workload, plain, traced)
    else:
        outs = [module.run(Context(ROOT, workdir), args.seed, args.seconds, False, SETUPS)]
        metrics = _end_to_end(outs[0])
    _print_report(workload, args, outs, metrics)
    return {
        "correct": all(not o.problems and not o.failed for o in outs),
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # SIGTERM unwinds like an error, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Measure the default configuration, whatever the caller's shell set.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[0] = str(ROOT)  # not perfbench/: its modules import as perfbench.*
    sys.path.insert(1, str(ROOT / "src"))

    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / f"run-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args, workdir / w) for w in workloads}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

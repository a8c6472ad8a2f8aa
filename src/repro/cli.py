"""Command-line interface: plan, simulate, trace and sweep from a shell.

Subcommands:

- ``solve``     plan a schedule for a synthetic instance and print it
                (optionally as JSON for shipping to a deployment);
- ``simulate``  execute the planned schedule on the simulated network
                and report achieved vs scheduled utility;
- ``trace``     generate a synthetic testbed trace (the Fig. 7 data)
                as CSV;
- ``sweep``     run a parameter sweep and print the pivot table;
- ``resume``    finish a ``simulate`` run from a crash-safe checkpoint;
- ``cache``     inspect or clear the persistent schedule cache;
- ``metrics``   dump the in-process metrics registry (Prometheus/JSON);
- ``figure``    reproduce a paper figure as JSON or SVG;
- ``serve``     run the HTTP solve/simulate service (docs/SERVING.md);
- ``session``   replay a captured session delta log offline
                (docs/SESSIONS.md).

Observability (:mod:`repro.obs`) is wired in everywhere: ``solve``,
``simulate`` and ``sweep`` accept ``--trace-out PATH`` (span tree of
where the wall time went, deterministic span IDs) and ``--events-out
PATH`` (schema-versioned JSONL stream of engine slots, health verdicts,
self-healing decisions and runtime task dispositions), and ``repro
metrics`` exports the process's metric families in Prometheus text
exposition or JSON snapshot form.  ``REPRO_OBS=0`` disables all
recording without changing any result.

``solve``, ``sweep`` and ``figure`` go through the
:mod:`repro.runtime` subsystem: repeated solves of identical instances
are served from a content-addressed cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro/schedules``; disable per-invocation with
``--no-cache``), and ``--jobs N`` farms independent solves across N
worker processes.  Results are bit-for-bit identical for any ``--jobs``
value and any cache temperature.

Examples::

    python -m repro.cli solve --sensors 20 --rho 3 --p 0.4
    python -m repro.cli solve --sensors 12 --method lp --json
    python -m repro.cli simulate --sensors 20 --periods 12
    python -m repro.cli simulate --sensors 20 --periods 12 \\
        --checkpoint run.ckpt --checkpoint-every 8
    python -m repro.cli resume --checkpoint run.ckpt
    python -m repro.cli trace --days 2 --weather cloudy > trace.csv
    python -m repro.cli sweep --sensors 50 100 --targets 10 --methods greedy random
    python -m repro.cli sweep --sensors 50 100 --repeats 10 --jobs 4
    python -m repro.cli cache stats
    python -m repro.cli cache clear
    python -m repro.cli simulate --sensors 20 --periods 12 \\
        --events-out run.jsonl --trace-out run-trace.json
    python -m repro.cli metrics --format prometheus
    python -m repro.cli serve --port 8080 --jobs 4
    python -m repro.cli session replay --log deltas.jsonl --json

Every subcommand reports invalid input as a one-line ``error: ...`` on
stderr and a nonzero exit status -- never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.analysis.sweep import SweepSpec, pivot, run_sweep
from repro.core.problem import SchedulingProblem
from repro.core.solver import METHODS, solve
from repro.energy.period import ChargingPeriod
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.serialization import result_summary, schedule_to_dict
from repro.obs import events as obs_events
from repro.obs import tracing
from repro.obs.catalog import describe_standard_metrics
from repro.obs.events import EventSink
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import get_registry
from repro.policies.schedule_policy import SchedulePolicy
from repro.runtime.cache import ScheduleCache, default_cache_dir
from repro.runtime.executor import solve_cached
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.solar.trace import generate_node_trace
from repro.solar.weather import WeatherCondition
from repro.utility.detection import HomogeneousDetectionUtility


def _build_problem(args: argparse.Namespace) -> SchedulingProblem:
    return SchedulingProblem(
        num_sensors=args.sensors,
        period=ChargingPeriod.from_ratio(args.rho),
        utility=HomogeneousDetectionUtility(range(args.sensors), p=args.p),
        num_periods=args.periods,
    )


@contextlib.contextmanager
def _observed(args: argparse.Namespace):
    """Install the event sink / tracer the obs flags ask for, and tear
    them down (flushing the trace file) when the command finishes.

    Commands without the flags (or with them unset) run unobserved at
    zero cost; the previous sink/tracer is always restored, so nested
    ``main()`` calls in tests cannot leak observers into each other.
    """
    events_out = getattr(args, "events_out", None)
    trace_out = getattr(args, "trace_out", None)
    sink = EventSink(events_out) if events_out else None
    tracer = tracing.Tracer() if trace_out else None
    previous_sink = obs_events.set_sink(sink) if sink else None
    previous_tracer = tracing.activate(tracer) if tracer else None
    try:
        yield
    finally:
        if tracer is not None:
            tracing.activate(previous_tracer)
            tracer.write(trace_out)
        if sink is not None:
            obs_events.set_sink(previous_sink)
            sink.close()


def _runtime_cache(args: argparse.Namespace) -> Optional[ScheduleCache]:
    """The persistent schedule cache, unless ``--no-cache`` asked out."""
    if getattr(args, "no_cache", False):
        return None
    return ScheduleCache(directory=default_cache_dir())


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    result, _status = solve_cached(
        problem, method=args.method, rng=args.seed, cache=_runtime_cache(args)
    )
    if args.json:
        payload = result_summary(result)
        if result.periodic is not None:
            payload["schedule"] = schedule_to_dict(result.periodic)
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(f"problem : {problem}")
    print(f"method  : {args.method}")
    if result.periodic is not None:
        print(f"schedule: {result.periodic}")
    print(f"total utility       : {result.total_utility:.6f}")
    print(f"avg utility per slot: {result.average_slot_utility:.6f}")
    for key, value in result.extras.items():
        print(f"{key}: {value:.6f}")
    return 0


def _build_engine(config: dict):
    """Rebuild the deterministic simulate pipeline from its instance
    config (also used by ``resume``: identical config => identical
    engine, the precondition for a faithful restore)."""
    args = argparse.Namespace(**config)
    problem = _build_problem(args)
    planned = solve(problem, method=args.method, rng=args.seed)
    network = SensorNetwork.from_problem(problem)
    schedule = planned.periodic if planned.periodic is not None else planned.schedule
    engine = SimulationEngine(network, SchedulePolicy(schedule))
    return engine, planned, problem


def _report_simulation(planned, sim) -> int:
    print(f"slots simulated     : {sim.num_slots}")
    print(f"scheduled avg/slot  : {planned.average_slot_utility:.6f}")
    print(f"achieved avg/slot   : {sim.average_slot_utility:.6f}")
    print(f"refused activations : {sim.refused_activations}")
    return 0 if sim.refused_activations == 0 else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    config = {
        "sensors": args.sensors,
        "rho": args.rho,
        "p": args.p,
        "periods": args.periods,
        "method": args.method,
        "seed": args.seed,
    }
    engine, planned, problem = _build_engine(config)
    total = problem.total_slots
    stop = total if args.stop_after is None else min(args.stop_after, total)
    chunk = args.checkpoint_every or stop or 1
    sim = engine.run(0)
    while engine.slots_done < stop:
        sim = engine.advance(min(chunk, stop - engine.slots_done))
        if args.checkpoint:
            save_checkpoint(engine.checkpoint(), args.checkpoint, config=config)
    if args.checkpoint and engine.slots_done < total:
        # The resume hint below must never point at a file that was not
        # written (e.g. --stop-after 0 skips the loop entirely).
        save_checkpoint(engine.checkpoint(), args.checkpoint, config=config)
    status = _report_simulation(planned, sim)
    if engine.slots_done < total:
        hint = (
            f"; resume with: repro resume --checkpoint {args.checkpoint}"
            if args.checkpoint
            else ""
        )
        print(f"stopped after {engine.slots_done}/{total} slots{hint}")
    return status


def cmd_resume(args: argparse.Namespace) -> int:
    try:
        state, config = load_checkpoint(args.checkpoint)
    except FileNotFoundError:
        print(f"checkpoint not found: {args.checkpoint}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read checkpoint {args.checkpoint}: {exc}", file=sys.stderr)
        return 2
    if not config:
        print(
            "checkpoint has no rebuild config; was it written by "
            "`repro simulate --checkpoint`?",
            file=sys.stderr,
        )
        return 2
    engine, planned, problem = _build_engine(config)
    engine.restore(state)
    total = problem.total_slots
    remaining = total - engine.slots_done
    print(f"resuming at slot {engine.slots_done}/{total}")
    if remaining <= 0:
        sim = engine.advance(0)
        return _report_simulation(planned, sim)
    chunk = args.checkpoint_every or remaining
    sim = engine.advance(0)
    while engine.slots_done < total:
        sim = engine.advance(min(chunk, total - engine.slots_done))
        if args.checkpoint_every:
            save_checkpoint(engine.checkpoint(), args.checkpoint, config=config)
    return _report_simulation(planned, sim)


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        weather = WeatherCondition(args.weather)
    except ValueError:
        print(
            f"unknown weather {args.weather!r}; choose from "
            f"{[w.value for w in WeatherCondition]}",
            file=sys.stderr,
        )
        return 2
    trace = generate_node_trace(
        node_id=args.node,
        days=args.days,
        weather=[weather] * args.days,
        rng=args.seed,
    )
    sys.stdout.write(trace.to_csv())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        sensor_counts=args.sensors,
        target_counts=args.targets,
        rhos=args.rhos,
        ps=[args.p],
        methods=args.methods,
        seeds=list(range(args.repeats)),
        workload=args.workload,
    )
    cache = _runtime_cache(args)
    records = run_sweep(spec, jobs=args.jobs, cache=cache)
    table = pivot(records, row_key="n", col_key="method")
    methods = sorted({r.params["method"] for r in records})
    rows = [
        [n] + [table[n].get(m, float("nan")) for m in methods]
        for n in sorted(table)
    ]
    print(format_table(["n"] + methods, rows, "{:.4f}"))
    if cache is not None:
        # Diagnostics go to stderr so the pivot table on stdout stays
        # byte-identical across cache temperatures and --jobs values.
        print(f"cache: {cache.stats}", file=sys.stderr)
    return 0


def _in_process_cache_counters() -> Optional[dict]:
    """The registry's cache counters, if any cache was exercised in
    this process (e.g. ``repro sweep`` followed by ``repro cache
    stats`` through one ``main()``-embedding process); ``None`` when
    the process has no cache traffic to report."""
    registry = get_registry()
    counters = {
        "hits": registry.sample_value("repro_cache_lookups_total", result="hit"),
        "misses": registry.sample_value(
            "repro_cache_lookups_total", result="miss"
        ),
        "stores": registry.sample_value("repro_cache_stores_total"),
        "evictions": registry.sample_value("repro_cache_evictions_total"),
    }
    if not any(counters.values()):
        return None
    return {key: int(value or 0) for key, value in counters.items()}


def cmd_cache(args: argparse.Namespace) -> int:
    directory = args.dir or default_cache_dir()
    cache = ScheduleCache(directory=directory)
    if args.cache_command == "stats":
        print(f"directory : {directory}")
        print(f"entries   : {cache.disk_entries()}")
        print(f"bytes     : {cache.disk_bytes()}")
        in_process = _in_process_cache_counters()
        if in_process is not None:
            print(
                "in-process: "
                f"{in_process['hits']} hits / {in_process['misses']} misses "
                f"/ {in_process['stores']} stores "
                f"/ {in_process['evictions']} evictions"
            )
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached schedules from {directory}")
        return 0
    print(f"unknown cache command {args.cache_command!r}", file=sys.stderr)
    return 2


def cmd_metrics(args: argparse.Namespace) -> int:
    registry = get_registry()
    # Pre-register the whole catalog so the exposition carries HELP and
    # TYPE metadata for every standard family, traffic or not.
    describe_standard_metrics(registry)
    if args.format == "json":
        json.dump(to_json(registry), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    sys.stdout.write(to_prometheus(registry))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import FIGURES, reproduce

    if args.name not in FIGURES:
        print(
            f"unknown figure {args.name!r}; available: {sorted(FIGURES)}",
            file=sys.stderr,
        )
        return 2
    data = reproduce(args.name, jobs=args.jobs)
    if args.svg:
        from pathlib import Path

        from repro.analysis.svg import figure_to_svg

        try:
            document = figure_to_svg(data, args.name)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        Path(args.svg).write_text(document)
        print(f"wrote {args.svg}")
        return 0
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import time as time_module

    from repro.serve.app import ServiceConfig, SolveService

    if args.port < 0 or args.port > 65535:
        print(f"error: invalid port {args.port}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        request_timeout=args.request_timeout,
        retry_attempts=args.retry_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery=args.breaker_recovery,
        degrade=not args.no_degrade,
        degraded_max_sensors=args.degraded_max_sensors,
        sessions=not args.no_sessions,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        session_checkpoint_dir=args.session_checkpoint_dir,
    )
    service = SolveService(config)
    service.start()
    print(f"serving on {service.url}", flush=True)
    endpoints = "POST /v1/solve, POST /v1/simulate, GET /metrics, GET /healthz"
    if config.sessions:
        endpoints += ", POST /v1/session (+ /delta, /schedule, DELETE)"
    print(f"endpoints: {endpoints}", flush=True)

    # SIGTERM (systemd, docker stop, CI cleanup) drains like Ctrl-C.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        while True:
            time_module.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.stop()
        print("server stopped", flush=True)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan

    specs = args.fault or [
        # A default storm that exercises every resilience layer:
        # transient solve failures (retry), torn cache writes
        # (checksums + quarantine), batcher stalls (deadlines).
        "solve:error:p=0.3",
        "cache.write:torn-write:p=0.5",
        "batcher.batch:sleep:delay=0.05,p=0.2",
    ]
    plan = FaultPlan.from_cli_specs(specs, seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        report = run_chaos(
            plan,
            requests=args.requests,
            seed=args.seed,
            jobs=args.jobs,
            request_timeout=args.request_timeout,
            cache_dir=args.cache_dir or scratch,
        )
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not report["passed"]:
        print(
            f"error: {len(report['violations'])} contract violations",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_session_replay(args: argparse.Namespace) -> int:
    from repro.sessions.replay import replay_log
    from repro.sessions.session import SessionError

    try:
        report = replay_log(args.log, cache=_runtime_cache(args))
    except SessionError as error:
        # Not a ValueError subclass (the HTTP layer needs the split),
        # but to the CLI a log whose deltas cannot commit is invalid
        # input all the same: one line, exit 2, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(
        f"session: {report.num_sensors} sensors, "
        f"{report.slots_per_period} slots/period, "
        f"method={report.method}, consistency={report.consistency}"
    )
    print(f"initial period utility: {report.initial_utility:.6f}")
    for step in report.steps:
        print(
            f"  #{step.seq} {step.kind}: resolve={step.resolve} "
            f"moves={step.moves} utility={step.period_utility:.6f} "
            f"({step.seconds * 1000.0:.2f} ms)"
        )
    print(
        f"final period utility: {report.final_utility:.6f} "
        f"({len(report.steps)} deltas, "
        f"{report.warm_fraction:.0%} warm)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cool (ICDCS 2011) reproduction: solar-powered coverage scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sensors", type=int, default=20, help="number of sensors")
        p.add_argument("--rho", type=float, default=3.0, help="T_r / T_d ratio")
        p.add_argument("--p", type=float, default=0.4, help="detection probability")
        p.add_argument("--periods", type=int, default=1, help="alpha in L = alpha T")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument(
            "--method", choices=METHODS, default="greedy", help="solver method"
        )

    def add_runtime_args(p: argparse.ArgumentParser, jobs: bool = True) -> None:
        if jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=None,
                metavar="N",
                help="farm independent solves across N worker processes "
                "(identical results for any N)",
            )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="skip the persistent schedule cache for this invocation",
        )

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            metavar="PATH",
            help="write the span tree (timed, nested, deterministic IDs) "
            "as JSON to PATH",
        )
        p.add_argument(
            "--events-out",
            metavar="PATH",
            help="append the structured JSONL event stream "
            "(engine/health/policy/runtime) to PATH",
        )

    p_solve = sub.add_parser("solve", help="plan a schedule and print it")
    add_instance_args(p_solve)
    add_runtime_args(p_solve, jobs=False)
    add_obs_args(p_solve)
    p_solve.add_argument("--json", action="store_true", help="emit JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="execute the plan on simulated motes")
    add_instance_args(p_sim)
    add_obs_args(p_sim)
    p_sim.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write a crash-safe checkpoint (atomic rename) to PATH",
    )
    p_sim.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="checkpoint every N slots (default: once at the end)",
    )
    p_sim.add_argument(
        "--stop-after",
        type=int,
        metavar="N",
        help="stop after N slots (with --checkpoint: simulate a crash "
        "and finish later with `repro resume`)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_resume = sub.add_parser(
        "resume", help="finish a simulate run from its checkpoint"
    )
    p_resume.add_argument(
        "--checkpoint", required=True, metavar="PATH", help="checkpoint file"
    )
    p_resume.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="keep checkpointing every N slots while finishing",
    )
    p_resume.set_defaults(func=cmd_resume)

    p_trace = sub.add_parser("trace", help="synthetic testbed trace as CSV")
    p_trace.add_argument("--node", type=int, default=5)
    p_trace.add_argument("--days", type=int, default=1)
    p_trace.add_argument("--weather", default="sunny")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(func=cmd_trace)

    p_sweep = sub.add_parser("sweep", help="parameter sweep, pivoted by method")
    p_sweep.add_argument("--sensors", type=int, nargs="+", default=[20, 40])
    p_sweep.add_argument("--targets", type=int, nargs="+", default=[5])
    p_sweep.add_argument("--rhos", type=float, nargs="+", default=[3.0])
    p_sweep.add_argument("--p", type=float, default=0.4)
    p_sweep.add_argument(
        "--methods", nargs="+", default=["greedy", "round-robin", "random"]
    )
    p_sweep.add_argument("--repeats", type=int, default=3)
    p_sweep.add_argument(
        "--workload",
        default="bipartite",
        choices=["single-target", "geometric", "bipartite"],
    )
    add_runtime_args(p_sweep)
    add_obs_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent schedule cache"
    )
    p_cache.add_argument(
        "cache_command",
        choices=["stats", "clear"],
        help="stats: show entry count and size; clear: drop every entry",
    )
    p_cache.add_argument(
        "--dir",
        metavar="PATH",
        help="cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/schedules)",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_metrics = sub.add_parser(
        "metrics",
        help="dump the in-process metrics registry "
        "(Prometheus text exposition or JSON snapshot)",
    )
    p_metrics.add_argument(
        "--format",
        choices=["prometheus", "json"],
        default="prometheus",
        help="output format (default: prometheus)",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_fig = sub.add_parser(
        "figure", help="reproduce a paper figure as JSON (fig7/fig8a-d/fig9/headline)"
    )
    p_fig.add_argument("name", help="figure id, e.g. fig8a")
    p_fig.add_argument(
        "--svg", metavar="PATH", help="render as an SVG image instead of JSON"
    )
    p_fig.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallelize the figure's independent solves across N processes",
    )
    p_fig.set_defaults(func=cmd_figure)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP solve/simulate service (see docs/SERVING.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for each batch's unique solves",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the persistent schedule cache",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="in-flight request bound; beyond it requests get 429",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="maximum requests per batch",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request wall bound before a 503 (default: 60)",
    )
    p_serve.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        metavar="N",
        help="solve attempts per batch on transient failure "
        "(1 disables retries; default: 3)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive infrastructure failures that open the "
        "circuit breaker (default: 5)",
    )
    p_serve.add_argument(
        "--breaker-recovery",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds the breaker stays open before probing (default: 5)",
    )
    p_serve.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable degraded answers (stale cache / greedy fallback) "
        "when the solve path is unhealthy",
    )
    p_serve.add_argument(
        "--degraded-max-sensors",
        type=int,
        default=64,
        metavar="N",
        help="largest instance the greedy degraded fallback will solve "
        "inline (default: 64)",
    )
    p_serve.add_argument(
        "--no-sessions",
        action="store_true",
        help="do not mount the /v1/session routes (docs/SESSIONS.md)",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="live-session bound; admission past it evicts the idle "
        "LRU session or answers 429 (default: 64)",
    )
    p_serve.add_argument(
        "--session-ttl",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="idle seconds before a session is evicted (default: 600)",
    )
    p_serve.add_argument(
        "--session-checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist session checkpoints here so a restarted server "
        "re-adopts live sessions (default: no persistence)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos run: seeded faults against an embedded service "
        "(see docs/ROBUSTNESS.md)",
    )
    p_chaos.add_argument(
        "--fault",
        action="append",
        metavar="SITE:ACTION[:k=v,...]",
        help="fault spec, repeatable (sites: pool.task, solve, "
        "cache.read, cache.write, batcher.batch; "
        "actions: error, crash, sleep, torn-write; keys: p, after, "
        "times, delay); default: a mixed storm across solve, cache "
        "and batcher",
    )
    p_chaos.add_argument(
        "--requests", type=int, default=40, help="requests to drive"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="mix + fault plan seed"
    )
    p_chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per batch (crash faults need >= 2)",
    )
    p_chaos.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-request wall bound (default: 10)",
    )
    p_chaos.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: a fresh temporary directory)",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_session = sub.add_parser(
        "session",
        help="session tooling: replay a captured delta log offline "
        "(see docs/SESSIONS.md)",
    )
    session_sub = p_session.add_subparsers(dest="session_command", required=True)
    p_replay = session_sub.add_parser(
        "replay",
        help="apply a JSONL delta log through a fresh in-process session",
    )
    p_replay.add_argument(
        "--log",
        required=True,
        metavar="PATH",
        help="JSONL delta log: one session-create record, then "
        "session-delta records",
    )
    p_replay.add_argument(
        "--json", action="store_true", help="emit the replay report as JSON"
    )
    p_replay.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent schedule cache for this invocation",
    )
    p_replay.set_defaults(func=cmd_session_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _observed(args):
            return args.func(args)
    except (ValueError, OverflowError) as error:
        # Invalid input must exit nonzero with one line on stderr --
        # never a traceback (problem validation, ratio integrality,
        # malformed documents all raise ValueError subclasses).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unwritable outputs, unbindable ports, unreadable inputs.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

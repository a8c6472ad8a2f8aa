"""session-stream: closed-loop delta streams against two long sessions.

Why it exists: session deltas are sequenced per session, so a caller
waits for each reply -- a closed loop, one session per connection.
This path uses HTTP and the incremental evaluators but bypasses the
batcher, the cache and the batched kernels, so it moves when the
handlers or the repair path change and stays put when the solve
pipeline does.
"""

from __future__ import annotations

import json
from typing import Dict, List

from perfbench import client
from perfbench.client import monotonic
from perfbench.inputs import session_inputs
from perfbench.layers import diff, fallbacks, parse_prometheus
from perfbench.outcome import Context, Outcome
from perfbench.spans import read_spans
from perfbench.stats import median_rate, quantile

#: Session creations are ordinary solves through the batcher, one at a
#: time, so each is a lone batch member.
EXPECTED_FALLBACKS = ("singleton",)


def _create(ctx: Context, sessions, index: int, traced: bool):
    workdir = ctx.workdir / f"session-{index}"
    server = client.Server(
        ctx.root, workdir, spans_out=workdir / "spans.json" if traced else None
    )
    server.start()
    try:
        connections = [server.connect() for _ in sessions]
        ids = []
        for connection, (doc, _script) in zip(connections, sessions):
            body = json.dumps({"problem": doc, "method": "greedy"}).encode()
            status, payload = connection.request("POST", "/v1/session", body)
            if status != 200:
                raise RuntimeError(f"session create answered {status}: {payload[:200]!r}")
            ids.append(json.loads(payload)["session"]["id"])
    except BaseException:
        server.stop()
        raise
    return server, connections, ids


def _cold_ratio(doc: Dict, bodies: List[bytes], period_utility: float) -> float:
    """The session's utility over a cold re-plan of the same live set."""
    from repro.core.repair import greedy_repair
    from repro.serve import schemas
    from repro.sessions.deltas import apply_delta, delta_from_dict
    from repro.sessions.session import period_utility_of

    problem = schemas.problem_from_wire(doc)
    failed = frozenset()
    for body in bodies:
        effect = apply_delta(problem, failed, delta_from_dict(json.loads(body)["delta"]))
        problem, failed = effect.problem, effect.failed
    live = sorted(set(range(problem.num_sensors)) - failed)
    slots = problem.slots_per_period
    cold = greedy_repair(live, slots, problem.utility)
    return period_utility / period_utility_of(cold.assignment, problem.utility, slots)


def run(ctx: Context, seed: int, seconds: float, traced: bool, setups: int) -> Outcome:
    out = Outcome()
    server = None
    connections: List[client.Connection] = []
    for index in range(setups):
        if server is not None:
            for connection in connections:
                connection.close()
            server.stop()
        sessions = session_inputs(seed)
        start = monotonic()
        server, connections, ids = _create(ctx, sessions, index, traced)
        out.setup_s.append(monotonic() - start)

    loops = [
        client.ClosedLoop(
            connection,
            f"/v1/session/{session_id}/delta",
            lambda script=script: json.dumps({"delta": script.next()}).encode(),
        )
        for connection, session_id, (_doc, script) in zip(connections, ids, sessions)
    ]
    finals = []
    try:
        before = parse_prometheus(server.scrape())
        start = monotonic()
        client.closed_loops(loops, start + seconds)
        window = (start, monotonic())
        after = parse_prometheus(server.scrape())
        for connection, session_id in zip(connections, ids):
            status, payload = connection.request("GET", f"/v1/session/{session_id}/schedule")
            finals.append((status, json.loads(payload)))
    finally:
        for connection in connections:
            connection.close()
        server.stop()

    # -- correctness gate (outside the timed loop) ----------------------
    ratios = []
    for loop, (doc, script), (status, final) in zip(loops, sessions, finals):
        for seq, reply in enumerate(loop.replies, start=1):
            out.attempted += 1
            document = reply.document or {}
            if reply.status != 200:
                out.fail(f"delta {seq}: HTTP {reply.status}")
            elif document.get("degraded"):
                out.fail(f"delta {seq}: degraded reply")
            elif document["delta"]["seq"] != seq:
                out.fail(f"delta {seq}: reply carries seq {document['delta']['seq']}")
        if status != 200:
            out.fail(f"final schedule: HTTP {status}")
            continue
        session = final["session"]
        assignment = final["result"]["schedule"]["assignment"]
        slots = final["result"]["schedule"]["slots_per_period"]
        live = set(range(session["num_sensors"])) - set(session["failed"])
        if set(session["failed"]) != script.failed:
            out.fail("final failed set differs from the deltas sent")
        if {int(v) for v in assignment} != live or not all(
            0 <= t < slots for t in assignment.values()
        ):
            out.fail("final schedule is infeasible")
            continue
        ratios.append(_cold_ratio(doc, loop.bodies, final["result"]["period_utility"]))
    out.check_fallbacks(fallbacks(after), EXPECTED_FALLBACKS)

    # -- metrics --------------------------------------------------------
    replies = [r for loop in loops for r in loop.replies]
    out.latencies_ms = [1000.0 * r.latency for r in replies]
    out.throughput = median_rate([r.done for r in replies])
    if out.latencies_ms:
        for q in (0.5, 0.95):
            out.report.append(
                (f"session.delta_p{int(q * 100)}_ms", quantile(out.latencies_ms, q), "ms", len(replies))
            )
    out.report.append(("session.deltas_per_s", out.throughput, "1/s", len(replies)))
    for (doc, script), ratio in zip(sessions, ratios):
        out.report.append(
            (f"session.utility_ratio.{script.family}", ratio, "ratio", 1)
        )
    if ratios:
        out.report.append(("session.utility_ratio", min(ratios), "ratio", len(ratios)))
    resolves: Dict[str, int] = {}
    for reply in replies:
        mode = (reply.document or {}).get("delta", {}).get("resolve", "?")
        resolves[mode] = resolves.get(mode, 0) + 1
    out.notes.append(
        "resolves: " + ", ".join(f"{k}={v}" for k, v in sorted(resolves.items()))
    )

    if traced:
        out.spans = read_spans(str(ctx.workdir / f"session-{setups - 1}" / "spans.json"))
        out.window = window
        out.counters = diff(after, before)
        out.client_latencies = [r.service for r in replies]
    return out

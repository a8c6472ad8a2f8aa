#!/usr/bin/env python
"""The solve service end to end: batching, coalescing, backpressure.

A deployment does not re-plan schedules on the motes; it asks a
planning service.  This example embeds the `repro serve` HTTP service
in-process (no separate terminal needed) and drives it with plain
``urllib`` -- the same requests ``curl`` would send -- to show the
three behaviors that make a solver safe to put behind a socket:

1. **caching** -- the second identical request is answered from the
   schedule cache without touching the solver;
2. **coalescing** -- eight concurrent clients posting the *same*
   instance cost one solver invocation (watch the completed-solve
   counter);
3. **backpressure** -- a deliberately tiny queue sheds concurrent
   distinct requests with 429 instead of queueing without bound.  An
   injected ``batcher.batch`` stall stands in for a slow solve, so the
   queue is still full when the burst arrives.

Run:  python examples/service_client.py
"""

import json
import tempfile
import threading
import urllib.error
import urllib.request

from repro.faults import injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.registry import get_registry
from repro.serve.app import ServiceConfig, SolveService

BODY = {
    "problem": {
        "num_sensors": 12,
        "rho": 3.0,
        "num_periods": 1,
        "utility": {"p": 0.4},
    },
    "method": "greedy",
}


def post_solve(url: str, body: dict) -> tuple:
    request = urllib.request.Request(
        url + "/v1/solve",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main() -> None:
    registry = get_registry()
    registry.reset()

    with tempfile.TemporaryDirectory() as cache_dir:
        config = ServiceConfig(port=0, cache_dir=cache_dir)
        with SolveService(config) as service:
            url = service.url
            print(f"service listening on {url}\n")

            print("-- caching ------------------------------------------")
            status, cold = post_solve(url, BODY)
            print(f"first request : {status}, cache={cold['cache']}")
            status, warm = post_solve(url, BODY)
            print(f"same request  : {status}, cache={warm['cache']}")
            assert cold["result"] == warm["result"]
            print("results identical byte for byte\n")

            print("-- coalescing ---------------------------------------")
            registry.reset()
            body = dict(BODY, problem=dict(BODY["problem"], utility={"p": 0.5}))
            barrier = threading.Barrier(8)
            outcomes = []

            def client():
                barrier.wait()
                outcomes.append(post_solve(url, body))

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            solves = registry.sample_value(
                "repro_solve_total", method="greedy"
            )
            coalesced = registry.sample_value("repro_server_coalesced_total")
            print(f"8 concurrent identical requests -> all {set(s for s, _ in outcomes)}")
            print(f"greedy solves run               : {int(solves)}")
            print(f"requests coalesced in flight    : {int(coalesced or 0)}\n")

        print("-- backpressure -------------------------------------")
        tiny = ServiceConfig(port=0, use_cache=False, max_queue=2)
        stall = FaultSpec(
            site="batcher.batch", action="sleep", delay=0.3, times=1
        )
        injector.install(FaultPlan(specs=(stall,)))
        with SolveService(tiny) as service:
            url = service.url
            barrier = threading.Barrier(10)
            statuses = []

            def slam(i):
                body = dict(
                    BODY,
                    problem=dict(
                        BODY["problem"], utility={"p": 0.2 + 0.05 * i}
                    ),
                )
                barrier.wait()
                statuses.append(post_solve(url, body)[0])

            threads = [
                threading.Thread(target=slam, args=(i,)) for i in range(10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            print(
                f"10 concurrent distinct requests vs max_queue=2 -> "
                f"{statuses.count(200)}x 200, {statuses.count(429)}x 429"
            )
            print("the queue sheds load at the door instead of melting")
        injector.uninstall()


if __name__ == "__main__":
    main()

"""The chaos harness: seeded fault plans against a live service.

:func:`run_chaos` stands up an embedded
:class:`~repro.serve.app.SolveService`, installs a
:class:`~repro.faults.plan.FaultPlan`, drives a deterministic request
mix through real HTTP, and checks the robustness contract on every
single response:

- **200, not degraded**: the ``result`` object must be byte-identical
  to a direct in-process :func:`repro.core.solver.solve` of the same
  instance -- chaos may slow an answer down, never change it;
- **200, degraded**: must carry ``"degraded": true`` and a
  ``degraded_source`` -- served best-effort, honestly labeled;
- **anything else**: must be a structured ``repro-error`` envelope
  with status 429 or 503 -- load shedding and failure are told to the
  client, not hidden behind hangs or truncated bodies.

Anything else is a **violation** and fails the run.  The request mix,
the fault plan, and every injected fault are seeded, so a chaos run is
a reproducible regression test, not a flaky stress test -- the CLI
(``repro chaos``) and the chaos benchmark both call this entry point.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.core.solver import solve
from repro.faults import injector
from repro.faults.plan import FaultPlan
from repro.obs import events as obs_events

#: The structured error statuses the contract permits.
ALLOWED_ERROR_STATUSES = (429, 503)

REPORT_KIND = "repro-chaos-report"
REPORT_VERSION = 1


def request_mix(
    requests: int, seed: int, max_sensors: int = 12
) -> List[Dict[str, Any]]:
    """A deterministic, duplicate-heavy request mix.

    Small instances (solves stay sub-second even serial), several
    distinct shapes, and deliberate repeats -- repeats exercise
    coalescing, the cache fast path, and the stale-cache degraded
    path, which a mix of all-unique instances never would.
    """
    import random

    rng = random.Random(seed)
    shapes = []
    for _ in range(max(2, requests // 4)):
        shapes.append(
            {
                "num_sensors": rng.randrange(2, max_sensors + 1),
                "rho": float(rng.randrange(1, 5)),
                "utility": {"p": rng.choice([0.3, 0.4, 0.5])},
            }
        )
    return [
        {"problem": rng.choice(shapes), "method": "greedy", "seed": 0}
        for _ in range(requests)
    ]


def expected_result_wire(body: Dict[str, Any]) -> Dict[str, Any]:
    """The ground-truth ``result`` object for one request body,
    computed by a direct, chaos-free, in-process solve."""
    from repro.serve import schemas

    problem, method, seed = schemas.parse_solve_request(body)
    return schemas.result_to_wire(solve(problem, method=method, rng=seed))


def run_chaos(
    plan: FaultPlan,
    requests: int = 40,
    seed: int = 0,
    jobs: Optional[int] = None,
    request_timeout: float = 10.0,
    cache_dir: Optional[str] = None,
    breaker_threshold: int = 3,
    breaker_recovery: float = 0.5,
) -> Dict[str, Any]:
    """Drive the request mix through a service under ``plan``.

    Returns a report document (kind ``repro-chaos-report``): outcome
    counts, injected-fault counts, breaker transitions observed, and
    the full list of contract ``violations`` (empty on a passing run).
    The service is embedded on an ephemeral port and torn down before
    returning; the plan is uninstalled even on error.
    """
    from repro.serve.app import ServiceConfig, SolveService

    bodies = request_mix(requests, seed)
    # Ground truth first, before any fault is installed: one direct
    # solve per unique instance.
    expected: Dict[str, Dict[str, Any]] = {}
    for body in bodies:
        key = json.dumps(body, sort_keys=True)
        if key not in expected:
            expected[key] = expected_result_wire(body)

    config = ServiceConfig(
        port=0,
        jobs=jobs,
        use_cache=cache_dir is not None,
        cache_dir=cache_dir,
        request_timeout=request_timeout,
        breaker_threshold=breaker_threshold,
        breaker_recovery=breaker_recovery,
    )
    outcomes = {"ok": 0, "degraded": 0}
    errors: Dict[str, int] = {}
    violations: List[Dict[str, Any]] = []

    active = injector.install(plan)
    service = SolveService(config)
    try:
        service.start()
        for index, body in enumerate(bodies):
            key = json.dumps(body, sort_keys=True)
            status, parsed = _post(service.url + "/v1/solve", body)
            verdict = _classify(status, parsed, expected[key])
            if verdict is None:
                if status == 200 and parsed.get("degraded"):
                    outcomes["degraded"] += 1
                elif status == 200:
                    outcomes["ok"] += 1
                else:
                    code = parsed["error"]["code"]
                    errors[code] = errors.get(code, 0) + 1
            else:
                violations.append(
                    {"request": index, "status": status, "reason": verdict}
                )
        fired = {
            str(spec_index): count
            for spec_index, count in active.fired().items()
        }
    finally:
        service.stop()
        injector.uninstall()

    report = {
        "kind": REPORT_KIND,
        "version": REPORT_VERSION,
        "seed": seed,
        "requests": requests,
        "plan": plan.as_dict(),
        "outcomes": {**outcomes, "errors": errors},
        "faults_fired": fired,
        "violations": violations,
        "passed": not violations,
    }
    obs_events.emit(
        "chaos.run",
        requests=requests,
        violations=len(violations),
        passed=not violations,
    )
    return report


def _post(
    url: str, body: Dict[str, Any], timeout: float = 30.0
) -> Tuple[int, Dict[str, Any]]:
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        raw = error.read()
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            parsed = {"unparseable": raw.decode("utf-8", "replace")}
        return error.code, parsed


def _classify(
    status: int, parsed: Dict[str, Any], expected: Dict[str, Any]
) -> Optional[str]:
    """``None`` if the response honors the contract, else the reason
    it does not."""
    if status == 200:
        if parsed.get("degraded"):
            if not parsed.get("degraded_source"):
                return "degraded response without degraded_source"
            return None
        if parsed.get("result") != expected:
            return "non-degraded result differs from direct solve"
        return None
    if status not in ALLOWED_ERROR_STATUSES:
        return f"disallowed status {status}"
    error = parsed.get("error")
    if not isinstance(error, dict) or "code" not in error:
        return f"status {status} without a structured error body"
    return None

"""Wire formats: JSON requests/responses and their validators.

Everything a client can send is validated *before* any solver work is
queued; a request that fails validation costs one parse, never a batch
slot.  Validation failures raise :class:`WireError` carrying a stable
machine-readable ``code`` plus a human message -- the handler maps them
to an HTTP 400 with the structured error body below.

Request (``POST /v1/solve`` and ``POST /v1/simulate``)::

    {
      "problem": {
        "num_sensors": 8,
        "rho": 3.0,                  # or discharge_time + recharge_time
        "num_periods": 1,            # optional, default 1
        "utility": {...}             # io.serialization utility document,
                                     # or the {"p": 0.4} homogeneous
                                     # shortcut over all sensors
      },
      "method": "greedy",            # optional, default "greedy"
      "seed": 0                      # optional; required for randomized
                                     # methods (the cache key needs it)
    }

``POST /v1/simulate`` additionally accepts ``"slots": N`` to simulate a
prefix of the horizon.

Responses are schema-tagged envelopes.  The ``result`` object is fully
deterministic -- it deliberately excludes wall-clock fields like
``solve_seconds`` so that the same instance always yields the same
bytes, whatever path (cold solve, warm cache, coalesced duplicate)
produced it.  The differential tests pin this byte-for-byte against a
direct :func:`repro.core.solver.solve` call.

Error body (any non-2xx)::

    {"kind": "repro-error", "version": 1,
     "error": {"code": "invalid-instance", "message": "..."}}
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sessions.deltas import Delta
    from repro.sessions.session import DeltaOutcome, Session

from repro.core.problem import SchedulingProblem
from repro.core.solver import METHODS, SolveResult
from repro.energy.period import ChargingPeriod
from repro.io.serialization import schedule_to_dict, utility_from_dict
from repro.runtime.fingerprint import canonical_json
from repro.sim.engine import SimulationResult
from repro.utility.detection import HomogeneousDetectionUtility

SOLVE_RESPONSE_KIND = "repro-solve-response"
SIMULATE_RESPONSE_KIND = "repro-simulate-response"
SESSION_RESPONSE_KIND = "repro-session-response"
SESSION_DELTA_RESPONSE_KIND = "repro-session-delta-response"
SESSION_SCHEDULE_RESPONSE_KIND = "repro-session-schedule-response"
SESSION_DELETED_KIND = "repro-session-deleted"
ERROR_KIND = "repro-error"
WIRE_VERSION = 1

#: Instances above this size are refused outright (code
#: ``instance-too-large``): a service must bound the work one request
#: can demand, and the exact solvers here are exponential in the worst
#: case.  Raise it via ``ServiceConfig.max_sensors`` for trusted use.
DEFAULT_MAX_SENSORS = 512

#: Simulate requests are bounded separately: slots are linear but a
#: single request must not monopolize a handler thread for minutes.
DEFAULT_MAX_SLOTS = 100_000


class WireError(ValueError):
    """A request failed validation; ``code`` is stable for clients."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _require(condition: bool, code: str, message: str) -> None:
    if not condition:
        raise WireError(code, message)


def _get_int(document: Dict[str, Any], field: str, default=None) -> Optional[int]:
    value = document.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(
            "invalid-field", f"{field!r} must be an integer, got {value!r}"
        )
    return value


def _get_number(document: Dict[str, Any], field: str) -> Optional[float]:
    value = document.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(
            "invalid-field", f"{field!r} must be a number, got {value!r}"
        )
    return float(value)


def problem_from_wire(
    document: Any, max_sensors: int = DEFAULT_MAX_SENSORS
) -> SchedulingProblem:
    """Build a :class:`SchedulingProblem` from its wire document."""
    _require(
        isinstance(document, dict),
        "invalid-problem",
        f"'problem' must be an object, got {type(document).__name__}",
    )
    num_sensors = _get_int(document, "num_sensors")
    _require(
        num_sensors is not None,
        "invalid-problem",
        "'problem.num_sensors' is required",
    )
    _require(
        num_sensors >= 0,
        "invalid-instance",
        f"num_sensors must be >= 0, got {num_sensors}",
    )
    _require(
        num_sensors <= max_sensors,
        "instance-too-large",
        f"num_sensors {num_sensors} exceeds the service limit "
        f"of {max_sensors}",
    )

    rho = _get_number(document, "rho")
    discharge = _get_number(document, "discharge_time")
    recharge = _get_number(document, "recharge_time")
    try:
        if rho is not None:
            _require(
                discharge is None and recharge is None,
                "invalid-problem",
                "give either 'rho' or 'discharge_time'+'recharge_time', "
                "not both",
            )
            period = ChargingPeriod.from_ratio(rho)
        else:
            _require(
                discharge is not None and recharge is not None,
                "invalid-problem",
                "'problem' needs 'rho' or 'discharge_time'+'recharge_time'",
            )
            period = ChargingPeriod(
                discharge_time=discharge, recharge_time=recharge
            )
    except ValueError as error:
        if isinstance(error, WireError):
            raise
        raise WireError("invalid-instance", str(error)) from error

    num_periods = _get_int(document, "num_periods", 1)
    _require(
        num_periods >= 1,
        "invalid-instance",
        f"num_periods must be >= 1, got {num_periods}",
    )

    utility_doc = document.get("utility")
    _require(
        isinstance(utility_doc, dict),
        "invalid-problem",
        "'problem.utility' must be an object "
        "(an io.serialization utility document or {'p': ...})",
    )
    if "kind" in utility_doc:
        try:
            utility = utility_from_dict(utility_doc)
        except (KeyError, TypeError, ValueError) as error:
            raise WireError(
                "invalid-utility", f"cannot decode utility: {error}"
            ) from error
    else:
        p = _get_number(utility_doc, "p")
        _require(
            p is not None,
            "invalid-utility",
            "shortcut utility needs 'p' (detection probability)",
        )
        _require(
            0.0 <= p <= 1.0,
            "invalid-utility",
            f"detection probability must be in [0, 1], got {p}",
        )
        utility = HomogeneousDetectionUtility(range(num_sensors), p=p)

    try:
        return SchedulingProblem(
            num_sensors=num_sensors,
            period=period,
            utility=utility,
            num_periods=num_periods,
        )
    except ValueError as error:
        raise WireError("invalid-instance", str(error)) from error


def parse_solve_request(
    document: Any, max_sensors: int = DEFAULT_MAX_SENSORS
) -> Tuple[SchedulingProblem, str, Optional[int]]:
    """Validate a solve request into a ``(problem, method, seed)`` task."""
    _require(
        isinstance(document, dict),
        "invalid-request",
        f"request body must be a JSON object, got {type(document).__name__}",
    )
    unknown = set(document) - {"problem", "method", "seed", "slots"}
    _require(
        not unknown,
        "unknown-field",
        f"unknown request fields: {sorted(unknown)}",
    )
    _require(
        "problem" in document,
        "invalid-request",
        "request needs a 'problem' object",
    )
    problem = problem_from_wire(document["problem"], max_sensors=max_sensors)
    method = document.get("method", "greedy")
    _require(
        isinstance(method, str) and method in METHODS,
        "invalid-method",
        f"unknown method {method!r}; choose from {list(METHODS)}",
    )
    seed = _get_int(document, "seed")
    return problem, method, seed


def parse_simulate_request(
    document: Any,
    max_sensors: int = DEFAULT_MAX_SENSORS,
    max_slots: int = DEFAULT_MAX_SLOTS,
) -> Tuple[SchedulingProblem, str, Optional[int], Optional[int]]:
    """Validate a simulate request; returns ``(problem, method, seed, slots)``."""
    problem, method, seed = parse_solve_request(
        document, max_sensors=max_sensors
    )
    slots = _get_int(document, "slots")
    if slots is not None:
        _require(slots >= 0, "invalid-field", f"slots must be >= 0, got {slots}")
    effective = slots if slots is not None else problem.total_slots
    _require(
        effective <= max_slots,
        "instance-too-large",
        f"simulating {effective} slots exceeds the service limit "
        f"of {max_slots}",
    )
    return problem, method, seed, slots


def parse_session_create(
    document: Any, max_sensors: int = DEFAULT_MAX_SENSORS
) -> Tuple[SchedulingProblem, str, Optional[int], str]:
    """Validate ``POST /v1/session`` into ``(problem, method, seed,
    consistency)``.

    Session methods are a subset of the solver's: the warm-start
    machinery must be able to re-plan an arbitrary live subset, which
    the randomized/LP methods cannot.  Sessions also require the
    sparse regime (rho >= 1) -- a dense instance gets a structured
    ``unsupported-instance`` instead of an incumbent it could never
    repair.
    """
    from repro.sessions.session import CONSISTENCY_MODES, SESSION_METHODS

    _require(
        isinstance(document, dict),
        "invalid-request",
        f"request body must be a JSON object, got {type(document).__name__}",
    )
    unknown = set(document) - {"problem", "method", "seed", "consistency"}
    _require(
        not unknown,
        "unknown-field",
        f"unknown request fields: {sorted(unknown)}",
    )
    _require(
        "problem" in document,
        "invalid-request",
        "request needs a 'problem' object",
    )
    problem = problem_from_wire(document["problem"], max_sensors=max_sensors)
    method = document.get("method", "greedy")
    _require(
        isinstance(method, str) and method in SESSION_METHODS,
        "unsupported-method",
        f"sessions support methods {list(SESSION_METHODS)}, got {method!r}",
    )
    consistency = document.get("consistency", "warm")
    _require(
        isinstance(consistency, str) and consistency in CONSISTENCY_MODES,
        "invalid-field",
        f"'consistency' must be one of {list(CONSISTENCY_MODES)}, "
        f"got {consistency!r}",
    )
    _require(
        problem.is_sparse_regime,
        "unsupported-instance",
        f"sessions repair sparse-regime (rho >= 1) schedules; "
        f"got rho={problem.rho:g}",
    )
    seed = _get_int(document, "seed")
    return problem, method, seed, consistency


def parse_session_delta(document: Any) -> "Delta":
    """Validate ``POST /v1/session/{id}/delta`` into a ``Delta``.

    Delta-grammar failures surface as :class:`WireError` with the
    :class:`~repro.sessions.deltas.DeltaError` code passed through
    (``invalid-delta`` / ``unknown-delta`` / ``unsupported-delta``).
    """
    from repro.sessions.deltas import DeltaError, delta_from_dict

    _require(
        isinstance(document, dict),
        "invalid-request",
        f"request body must be a JSON object, got {type(document).__name__}",
    )
    unknown = set(document) - {"delta"}
    _require(
        not unknown,
        "unknown-field",
        f"unknown request fields: {sorted(unknown)}",
    )
    _require(
        "delta" in document,
        "invalid-request",
        "request needs a 'delta' object",
    )
    try:
        return delta_from_dict(document["delta"])
    except DeltaError as error:
        raise WireError(error.code, error.message) from error


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def result_to_wire(result: SolveResult) -> Dict[str, Any]:
    """The deterministic portion of a solve result.

    Wall-clock fields are excluded on purpose: the same instance must
    serialize to the same bytes whether it was solved cold, replayed
    from the cache, or coalesced onto another request's solve.
    """
    document: Dict[str, Any] = {
        "method": result.method,
        "num_sensors": result.problem.num_sensors,
        "rho": result.problem.rho,
        "slots_per_period": result.problem.slots_per_period,
        "num_periods": result.problem.num_periods,
        "total_utility": result.total_utility,
        "average_slot_utility": result.average_slot_utility,
        "average_utility_per_target": result.average_utility_per_target,
        "schedule": schedule_to_dict(result.schedule),
        "extras": dict(result.extras),
    }
    if result.periodic is not None:
        document["periodic"] = schedule_to_dict(result.periodic)
    return document


def solve_response(
    result: SolveResult,
    cache_status: str,
    coalesced: bool,
    degraded_source: Optional[str] = None,
) -> Dict[str, Any]:
    body = {
        "kind": SOLVE_RESPONSE_KIND,
        "version": WIRE_VERSION,
        "result": result_to_wire(result),
        "cache": cache_status,
        "coalesced": coalesced,
        "degraded": degraded_source is not None,
    }
    if degraded_source is not None:
        body["degraded_source"] = degraded_source
    return body


def simulate_response(
    planned: SolveResult,
    sim: SimulationResult,
    cache_status: str,
    coalesced: bool,
    degraded_source: Optional[str] = None,
) -> Dict[str, Any]:
    body = {
        "kind": SIMULATE_RESPONSE_KIND,
        "version": WIRE_VERSION,
        "result": {
            "num_slots": sim.num_slots,
            "scheduled_average_slot_utility": planned.average_slot_utility,
            "achieved_average_slot_utility": sim.average_slot_utility,
            "achieved_total_utility": sim.total_utility,
            "refused_activations": sim.refused_activations,
        },
        "cache": cache_status,
        "coalesced": coalesced,
        "degraded": degraded_source is not None,
    }
    if degraded_source is not None:
        body["degraded_source"] = degraded_source
    return body


def session_to_wire(session: "Session") -> Dict[str, Any]:
    """The session envelope every session response carries."""
    problem = session.problem
    return {
        "id": session.session_id,
        "seq": session.seq,
        "method": session.method,
        "consistency": session.consistency,
        "num_sensors": problem.num_sensors,
        "rho": problem.rho,
        "slots_per_period": problem.slots_per_period,
        "num_periods": problem.num_periods,
        "failed": sorted(session.failed),
        "live_sensors": len(session.live_sensors()),
        "fingerprint": session.state_fingerprint,
        "lineage": session.lineage[-1] if session.lineage else None,
    }


def session_result_to_wire(
    session: "Session", period_utility: Optional[float] = None
) -> Dict[str, Any]:
    """The deterministic schedule payload of a session answer.

    Utilities are *periodic*: the per-period value of the incumbent
    assignment, its per-slot average, and the ``num_periods``
    extrapolation -- the natural quantities for a schedule that is
    live and mutable rather than unrolled once.  ``period_utility`` is
    the current value when the caller already has it (a delta's
    outcome carries it); it is evaluated here otherwise.
    """
    utility = (
        session.period_utility() if period_utility is None else period_utility
    )
    slots = session.slots_per_period
    return {
        "period_utility": utility,
        "average_slot_utility": utility / slots,
        "total_utility": utility * session.problem.num_periods,
        "schedule": schedule_to_dict(session.schedule()),
    }


def session_response(
    session: "Session", degraded_source: Optional[str] = None
) -> Dict[str, Any]:
    """``POST /v1/session`` (creation) body."""
    body = {
        "kind": SESSION_RESPONSE_KIND,
        "version": WIRE_VERSION,
        "session": session_to_wire(session),
        "result": session_result_to_wire(session),
        "degraded": degraded_source is not None,
    }
    if degraded_source is not None:
        body["degraded_source"] = degraded_source
    return body


def session_delta_response(
    session: "Session", outcome: "DeltaOutcome"
) -> Dict[str, Any]:
    """``POST /v1/session/{id}/delta`` body."""
    body = {
        "kind": SESSION_DELTA_RESPONSE_KIND,
        "version": WIRE_VERSION,
        "session": session_to_wire(session),
        "delta": {
            "seq": outcome.seq,
            "kind": outcome.kind,
            "resolve": outcome.resolve,
            "moves": outcome.moves,
            "structural": outcome.structural,
        },
        "result": session_result_to_wire(session, outcome.period_utility),
        "degraded": outcome.degraded,
    }
    if outcome.degraded:
        body["degraded_source"] = "warm-repair"
    return body


def session_schedule_response(session: "Session") -> Dict[str, Any]:
    """``GET /v1/session/{id}/schedule`` body."""
    return {
        "kind": SESSION_SCHEDULE_RESPONSE_KIND,
        "version": WIRE_VERSION,
        "session": session_to_wire(session),
        "result": session_result_to_wire(session),
    }


def session_deleted_response(session_id: str) -> Dict[str, Any]:
    """``DELETE /v1/session/{id}`` body."""
    return {
        "kind": SESSION_DELETED_KIND,
        "version": WIRE_VERSION,
        "id": session_id,
    }


def error_body(code: str, message: str) -> Dict[str, Any]:
    return {
        "kind": ERROR_KIND,
        "version": WIRE_VERSION,
        "error": {"code": code, "message": message},
    }


def encode(document: Dict[str, Any]) -> bytes:
    """Canonical response bytes (sorted keys -- byte-stable for tests)."""
    return (canonical_json(document) + "\n").encode("utf-8")

"""Content-addressed fingerprints of solver inputs (cache keys).

A schedule cache is only sound if its key captures *every* input that
can change the solver's output and *nothing* that cannot.  The key here
is the SHA-256 of a canonical JSON document describing the
``(problem, method, seed)`` triple:

- the problem is serialized structurally -- sensor count, charging
  period times, horizon, and the utility function through the
  :mod:`repro.io.serialization` family encoders -- so two independently
  constructed but identical instances hash the same;
- canonical JSON (sorted keys, no whitespace, ``allow_nan=False``)
  makes the byte stream deterministic across processes and Python
  versions;
- the RNG seed enters the key **only** for randomized methods
  (``random``, ``balanced-random``, ``lp``, ``lp-periodic``): for the
  deterministic methods two sweeps cells differing only in seed are the
  same solve, and collapsing them is exactly the dedup the cache is
  for.

Anything that cannot be fingerprinted faithfully -- an exotic utility
family with no serializer, a live ``numpy`` Generator whose hidden
state we cannot capture -- raises :class:`UncacheableError`, and
callers must fall back to solving directly.  Guessing a key for an
input we cannot canonicalize would silently serve wrong schedules.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Union

from repro.core.problem import SchedulingProblem
from repro.io.serialization import utility_to_dict

#: Methods whose output depends on the RNG seed; the seed joins their key.
RANDOMIZED_METHODS = frozenset(
    {"random", "balanced-random", "lp", "lp-periodic"}
)

FINGERPRINT_KIND = "repro-solve-key"
FINGERPRINT_VERSION = 1

LINEAGE_KIND = "repro-session-lineage"
LINEAGE_VERSION = 1


class UncacheableError(TypeError):
    """The solve's inputs cannot be canonicalized into a sound cache key."""


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators, no NaN."""
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def problem_to_dict(problem: SchedulingProblem) -> Dict[str, Any]:
    """Structural description of a problem, or :class:`UncacheableError`.

    Delegates the utility to the :mod:`repro.io.serialization` family
    encoders; unknown utility families raise, because a key that
    ignores part of the objective would collide across different
    problems.
    """
    try:
        utility = utility_to_dict(problem.utility)
    except TypeError as error:
        raise UncacheableError(
            f"cannot fingerprint problem: {error}"
        ) from error
    return {
        "num_sensors": problem.num_sensors,
        "discharge_time": problem.period.discharge_time,
        "recharge_time": problem.period.recharge_time,
        "num_periods": problem.num_periods,
        "utility": utility,
    }


def _normalize_seed(method: str, rng: Union[int, None, Any]) -> Optional[int]:
    """The seed as it enters the key: ``None`` for deterministic methods.

    Only plain integers (or ``None``) are fingerprintable -- a live
    Generator carries hidden state the key cannot capture.
    """
    if method not in RANDOMIZED_METHODS:
        return None
    if rng is None:
        raise UncacheableError(
            f"method {method!r} is randomized; caching requires an "
            "explicit integer seed (got None, which draws OS entropy)"
        )
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise UncacheableError(
            f"method {method!r} is randomized; caching requires an "
            f"integer seed, got {type(rng).__name__}"
        )
    return int(rng)


def solve_fingerprint(
    problem: SchedulingProblem,
    method: str = "greedy",
    rng: Union[int, None, Any] = None,
) -> str:
    """SHA-256 hex key identifying a ``solve(problem, method, rng)`` call.

    Raises :class:`UncacheableError` when the inputs cannot be
    canonicalized (see module docstring); callers should then solve
    without the cache.
    """
    document = {
        "kind": FINGERPRINT_KIND,
        "version": FINGERPRINT_VERSION,
        "problem": problem_to_dict(problem),
        "method": method,
        "seed": _normalize_seed(method, rng),
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def session_fingerprint(
    problem: SchedulingProblem,
    method: str = "greedy",
    rng: Union[int, None, Any] = None,
    failed: Any = (),
    problem_text: Optional[str] = None,
) -> str:
    """Key for a *session state*: a solve key plus the failed-sensor set.

    A session with no failed sensors hashes to the plain
    :func:`solve_fingerprint` -- which is exactly what lets sessions
    reuse the global schedule cache: the state's answer and the
    one-shot solve's answer are the same artifact.  Any failures join
    the document (sorted, so the set's construction history cannot
    perturb the key).

    ``problem_text`` lets a long-lived caller (a session hashing its
    state after every delta) pass a memoized
    ``canonical_json(problem_to_dict(problem))`` instead of
    re-serializing the instance each time; the key is identical either
    way.
    """
    if problem_text is None:
        problem_text = canonical_json(problem_to_dict(problem))
    # Splice the problem text into the canonical key document: every
    # key before "problem" in sorted order goes in the head, every key
    # after it in the tail, so the bytes equal canonical_json of the
    # whole document.
    head: Dict[str, Any] = {"kind": FINGERPRINT_KIND, "method": method}
    failed_list = sorted(failed)
    if failed_list:
        head["failed"] = failed_list
    tail = {
        "seed": _normalize_seed(method, rng),
        "version": FINGERPRINT_VERSION,
    }
    text = (
        canonical_json(head)[:-1]
        + ',"problem":'
        + problem_text
        + ","
        + canonical_json(tail)[1:]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chain_fingerprint(parent: str, delta_document: Any) -> str:
    """Lineage link: the child key of ``parent`` after ``delta_document``.

    Sessions thread this through every applied delta, so two sessions
    that started from the same instance and applied the same delta
    chain share every prefix of their lineage -- the property the
    per-session memo and any future shared delta cache key off.  The
    delta document must be canonical-JSON serializable (wire deltas
    are by construction).
    """
    document = {
        "kind": LINEAGE_KIND,
        "version": LINEAGE_VERSION,
        "parent": parent,
        "delta": delta_document,
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()

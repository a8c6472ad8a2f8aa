"""LP-relaxation scheduling: IP, relaxation, rounding, repair (Sec. IV-A-1).

The paper's integer program (rho > 1):

.. math::

    \\max \\sum_{t=1}^{L} \\sum_{j=1}^{m} U_j(S_X(O_j, t)) \\quad
    \\text{s.t.} \\quad x(v_i, t) \\in \\{0, 1\\}, \\quad
    \\sum_{t'=t}^{t+T} x(v_i, t') \\in \\{0, 1\\}\\ \\forall i, \\forall
    0 \\le t \\le L - T,

i.e. every sensor is active at most once in any window of ``T``
consecutive slots.  Relaxing the integrality gives an LP; the paper
rounds each ``x(v_i, t)`` independently, repairs infeasibility by
re-rounding (the iterative method of [13]) and, when iteration is too
slow, "carefully deactivates some sensors to achieve feasibility".

**Linearizing the submodular objective.**  The IP as written carries
the set function ``U_j`` directly; to obtain an actual linear program
we use the standard concave-closure linearization for *count-based*
target utilities (which covers the paper's entire evaluation):
when ``U_j(S)`` depends only on ``c = |S \\cap V(O_j)|`` through a
concave sequence ``u_j(0) <= u_j(1) <= ...`` (e.g. the detection
utility ``1 - (1-p)^c``), a per-(target, slot) variable ``z_{j,t}``
bounded by every tangent line

.. math:: z_{j,t} \\le u_j(k) + (u_j(k{+}1) - u_j(k)) \\Bigl(\\sum_i
          a_{ij} x_{i,t} - k\\Bigr), \\qquad k = 0..K-1

equals the concave envelope at fractional ``x`` and the exact utility
at integral ``x``.  For target utilities that are not count-based we
fall back to the coarser (still valid) bound ``z_{j,t} \\le
U_j(V(O_j)) \\cdot \\min(1, \\sum_i a_{ij} x_{i,t})``.

The optimal LP value is therefore an **upper bound on the optimal
schedule utility**, used as such by :mod:`repro.core.bounds`.

scipy (HiGHS via :func:`scipy.optimize.linprog`) is imported by the
first LP solve in a process, not by importing this module: loading it
takes about 0.7 s, and the greedy, serving and simulation paths never
use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.core.schedule import UnrolledSchedule
from repro.coverage.deployment import RngLike, make_rng
from repro.utility.base import UtilityFunction
from repro.utility.detection import DetectionUtility, HomogeneousDetectionUtility
from repro.utility.logsum import LogSumUtility
from repro.utility.operations import CappedCardinalityUtility
from repro.utility.target_system import TargetSystem


# ----------------------------------------------------------------------
# Count-based utility detection
# ----------------------------------------------------------------------


def count_utility_values(fn: UtilityFunction) -> Optional[List[float]]:
    """``[U(0), U(1), .., U(K)]`` if ``fn`` depends only on ``|S|``.

    Returns ``None`` when the function is not recognizably count-based;
    callers then use the coarse coverage bound.  The sequence is checked
    for monotone concavity (it must be, for these classes, but a cheap
    assert catches regressions in the utility implementations).
    """
    size = len(fn.ground_set)
    values: Optional[List[float]] = None
    if isinstance(fn, HomogeneousDetectionUtility):
        values = [fn.value_of_count(k) for k in range(size + 1)]
    elif isinstance(fn, DetectionUtility):
        probs = list(fn.probabilities.values())
        if probs and all(abs(p - probs[0]) < 1e-12 for p in probs):
            p = probs[0]
            values = [1.0 - (1.0 - p) ** k for k in range(size + 1)]
    elif isinstance(fn, LogSumUtility):
        weights = list(fn.weights.values())
        if weights and all(abs(w - weights[0]) < 1e-12 for w in weights):
            w = weights[0]
            values = [math.log1p(k * w) for k in range(size + 1)]
    elif isinstance(fn, CappedCardinalityUtility):
        cap = fn.value(fn.ground_set)
        values = [float(min(k, cap)) for k in range(size + 1)]
    else:
        from repro.utility.kcoverage import KCoverageUtility

        if isinstance(fn, KCoverageUtility):
            values = [fn.value_of_count(k) for k in range(size + 1)]
    if values is None:
        return None
    for k in range(1, len(values)):
        if values[k] < values[k - 1] - 1e-9:
            raise AssertionError("count-utility sequence must be non-decreasing")
    return values


def _targets_of(problem: SchedulingProblem) -> Tuple[List[frozenset], List[UtilityFunction]]:
    """Split the problem utility into per-target (cover set, U_i) pairs.

    A :class:`TargetSystem` decomposes naturally; any other utility is
    treated as a single 'target' covering its whole ground set, which
    keeps the LP applicable to single-target or region utilities.
    """
    utility = problem.utility
    if isinstance(utility, TargetSystem):
        covers = [utility.coverage_set(i) for i in range(utility.num_targets)]
        fns = [utility.target_utility(i) for i in range(utility.num_targets)]
        return covers, fns
    return [utility.ground_set], [utility]


@dataclass(frozen=True)
class LpSolution:
    """Output of the LP pipeline.

    Attributes
    ----------
    fractional:
        The relaxed activation matrix, shape ``(n, L)``.
    objective:
        Optimal LP value -- an upper bound on any feasible schedule's
        total utility.
    schedule:
        The rounded, repaired, feasible schedule (``None`` if rounding
        was not requested).
    rounding_iterations:
        How many re-rounding passes the repair loop used.
    deactivated:
        Number of activations dropped by the greedy-deactivation
        fallback.
    """

    fractional: np.ndarray
    objective: float
    schedule: Optional[UnrolledSchedule]
    rounding_iterations: int = 0
    deactivated: int = 0


def _window_limit(problem: SchedulingProblem) -> int:
    """Max activations per sensor per window of T slots (1, or T-1 for rho<=1)."""
    T = problem.slots_per_period
    return 1 if problem.is_sparse_regime else T - 1


def lp_relaxation(problem: SchedulingProblem, periodic: bool = False) -> LpSolution:
    """Solve the LP relaxation; no rounding.

    Builds the concave-closure linearization described in the module
    docstring over the full horizon ``L`` with the paper's sliding
    window constraints, and solves it with HiGHS via
    :func:`scipy.optimize.linprog`.

    With ``periodic=True`` the LP is solved over a *single* period
    (variables ``n x T`` instead of ``n x L``; the window constraint
    collapses to the per-period activation budget) and the objective is
    scaled by ``alpha``.  For the paper's stationary utilities the
    periodic optimum repeated each period matches the full-horizon
    optimum, so the scaled objective is the same upper bound at a
    fraction of the solve cost; the returned ``fractional`` matrix has
    shape ``(n, T)``.
    """
    if periodic and problem.num_periods > 1:
        single = lp_relaxation(problem.with_num_periods(1))
        return LpSolution(
            fractional=single.fractional,
            objective=problem.num_periods * single.objective,
            schedule=None,
        )
    n = problem.num_sensors
    L = problem.total_slots
    T = problem.slots_per_period
    covers, fns = _targets_of(problem)
    m = len(covers)

    def x_index(sensor: int, slot: int) -> int:
        return sensor * L + slot

    num_x = n * L
    z_offset = num_x
    num_z = m * L

    def z_index(target: int, slot: int) -> int:
        return z_offset + target * L + slot

    num_vars = num_x + num_z

    # Objective: maximize sum z -> minimize -sum z.
    c = np.zeros(num_vars)
    c[z_offset:] = -1.0

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    rhs: List[float] = []
    row = 0

    # Sliding-window activation constraints.
    limit = _window_limit(problem)
    window_starts = range(L - T + 1) if L >= T else range(1)
    for sensor in range(n):
        for start in window_starts:
            for t in range(start, min(start + T, L)):
                rows.append(row)
                cols.append(x_index(sensor, t))
                data.append(1.0)
            rhs.append(float(limit))
            row += 1

    # Utility linearization per (target, slot).
    upper_z = np.zeros(num_z)
    for j, (cover, fn) in enumerate(zip(covers, fns)):
        cover_list = sorted(v for v in cover if v < n)
        full_value = fn.value(frozenset(cover_list))
        counts = count_utility_values(fn)
        for t in range(L):
            upper_z[j * L + t] = full_value
            if not cover_list:
                continue
            if counts is not None:
                # Tangent lines of the concave count curve.
                for k in range(len(counts) - 1):
                    slope = counts[k + 1] - counts[k]
                    # z - slope * sum_i x_{i,t} <= counts[k] - slope * k
                    rows.append(row)
                    cols.append(z_index(j, t))
                    data.append(1.0)
                    for v in cover_list:
                        rows.append(row)
                        cols.append(x_index(v, t))
                        data.append(-slope)
                    rhs.append(counts[k] - slope * k)
                    row += 1
                    if slope <= 1e-15:
                        break  # flat tail: remaining tangents are dominated
            else:
                # Coarse bound: z <= U(full) * sum_i x_{i,t}.
                rows.append(row)
                cols.append(z_index(j, t))
                data.append(1.0)
                for v in cover_list:
                    rows.append(row)
                    cols.append(x_index(v, t))
                    data.append(-full_value)
                rhs.append(0.0)
                row += 1

    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    a_ub = csr_matrix((data, (rows, cols)), shape=(row, num_vars))
    bounds = [(0.0, 1.0)] * num_x + [
        (0.0, float(upper_z[i])) for i in range(num_z)
    ]
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.array(rhs),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP relaxation failed: {result.message}")
    x = result.x[:num_x].reshape(n, L)
    return LpSolution(
        fractional=x,
        objective=-result.fun,
        schedule=None,
    )


# ----------------------------------------------------------------------
# Rounding + repair
# ----------------------------------------------------------------------


def _round_sensor(
    probabilities: np.ndarray, rng: np.random.Generator
) -> List[int]:
    """Independently round one sensor's row: slot t kept w.p. x_{i,t}."""
    draws = rng.random(probabilities.shape[0])
    return [int(t) for t in np.flatnonzero(draws < probabilities)]


def _window_feasible(slots: Sequence[int], T: int, limit: int) -> bool:
    """Check a single sensor's activation slots against the window rule."""
    slots = sorted(slots)
    left = 0
    for right in range(len(slots)):
        while slots[right] - slots[left] >= T:
            left += 1
        if right - left + 1 > limit:
            return False
    return True


def _deactivate_to_feasibility(
    slots: Sequence[int], T: int, limit: int
) -> Tuple[List[int], int]:
    """Greedy deactivation: keep a maximal feasible subset of activations.

    Scans activations in time order and keeps one whenever doing so does
    not overfill the trailing window -- the "carefully deactivate some
    sensors" fallback the paper sketches.  Returns (kept, dropped).
    """
    kept: List[int] = []
    dropped = 0
    for slot in sorted(slots):
        window = [s for s in kept if slot - s < T] + [slot]
        if len(window) <= limit:
            kept.append(slot)
        else:
            dropped += 1
    return kept, dropped


def lp_periodic_schedule(
    problem: SchedulingProblem,
    rng: RngLike = None,
) -> LpSolution:
    """Periodic LP + marginal-preserving per-sensor rounding.

    Solves the one-period LP and rounds each sensor *categorically*:
    slot ``t`` is chosen with probability ``x(v_i, t)`` and no slot
    with the leftover ``1 - sum_t x(v_i, t)`` -- the literal "let each
    node be active at time-slot t with probability x(v_i, t)" of
    Sec. IV-A-1, but sampled jointly per sensor so the one-activation-
    per-period constraint holds *by construction*: no repair loop is
    ever needed.  Requires the rho >= 1 regime (a sensor picks its
    single active slot); the rounded period is unrolled ``alpha``
    times.
    """
    if not problem.is_sparse_regime:
        raise ValueError(
            "lp_periodic_schedule requires rho >= 1; use lp_schedule for "
            "the dense regime"
        )
    relaxed = lp_relaxation(problem, periodic=True)
    generator = make_rng(rng)
    T = problem.slots_per_period
    from repro.core.schedule import PeriodicSchedule, ScheduleMode

    assignment: Dict[int, int] = {}
    for sensor in range(problem.num_sensors):
        probabilities = np.clip(relaxed.fractional[sensor], 0.0, 1.0)
        leftover = max(0.0, 1.0 - probabilities.sum())
        weights = np.append(probabilities, leftover)
        weights = weights / weights.sum()
        choice = int(generator.choice(T + 1, p=weights))
        if choice < T:
            assignment[sensor] = choice
    periodic = PeriodicSchedule(
        slots_per_period=T, assignment=assignment, mode=ScheduleMode.ACTIVE_SLOT
    )
    schedule = periodic.unroll(problem.num_periods)
    schedule.validate_feasible()
    return LpSolution(
        fractional=relaxed.fractional,
        objective=relaxed.objective,
        schedule=schedule,
        rounding_iterations=1,
        deactivated=0,
    )


def lp_schedule(
    problem: SchedulingProblem,
    rng: RngLike = None,
    max_rounding_iterations: int = 50,
) -> LpSolution:
    """Full pipeline: relax, round, repair (Sec. IV-A-1).

    Each sensor's activations are rounded independently from its
    fractional row.  Sensors whose rounded activations violate the
    window rule are re-rounded (iterative repair, up to
    ``max_rounding_iterations`` passes over the violating sensors); any
    still-infeasible sensor after the iteration budget is repaired by
    greedy deactivation.  The returned schedule is always feasible.

    See :func:`lp_periodic_schedule` for the compact periodic variant
    whose rounding is feasible by construction.
    """
    relaxed = lp_relaxation(problem)
    generator = make_rng(rng)
    n = problem.num_sensors
    L = problem.total_slots
    T = problem.slots_per_period
    limit = _window_limit(problem)

    chosen: Dict[int, List[int]] = {}
    pending = list(range(n))
    iterations = 0
    while pending and iterations < max_rounding_iterations:
        iterations += 1
        still_bad: List[int] = []
        for sensor in pending:
            slots = _round_sensor(relaxed.fractional[sensor], generator)
            if _window_feasible(slots, T, limit):
                chosen[sensor] = slots
            else:
                still_bad.append(sensor)
        pending = still_bad

    deactivated = 0
    for sensor in pending:
        slots = _round_sensor(relaxed.fractional[sensor], generator)
        kept, dropped = _deactivate_to_feasibility(slots, T, limit)
        chosen[sensor] = kept
        deactivated += dropped

    active_sets: List[set] = [set() for _ in range(L)]
    for sensor, slots in chosen.items():
        for slot in slots:
            active_sets[slot].add(sensor)
    schedule = UnrolledSchedule(
        slots_per_period=T,
        active_sets=tuple(frozenset(s) for s in active_sets),
        rho_at_most_one=not problem.is_sparse_regime,
    )
    schedule.validate_feasible()
    return LpSolution(
        fractional=relaxed.fractional,
        objective=relaxed.objective,
        schedule=schedule,
        rounding_iterations=iterations,
        deactivated=deactivated,
    )

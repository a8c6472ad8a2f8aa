"""Stochastic greedy: subsampled hill-climbing for large fleets.

For very large ``n`` even the lazy greedy's initial heap build costs
``n * T`` utility evaluations.  The stochastic-greedy idea
(Mirzasoleiman et al., AAAI'15, "lazier than lazy greedy") evaluates
each step on a random *sample* of the remaining candidates: with sample
size ``s = (n/k) log(1/eps)`` the expected approximation loses only
``eps``.  We adapt it to the paper's slot-assignment structure: at each
of the ``n`` steps, draw a sample of the unassigned sensors, evaluate
each against every slot, and commit the best (sensor, slot) pair.

Guarantees are in expectation and slightly weaker than Algorithm 1's
deterministic 1/2; the ablation bench measures the actual quality/speed
trade-off against the exact greedy.

Honest scaling note (see ``examples/city_scale.py``): under the
partition constraint the required sample is ``(n/T) log(1/eps)`` --
a large fraction of the ground set -- and sampling cannot reuse stale
gains, so this variant only beats the *naive* quadratic scan.  The
lazy (CELF) greedy in :mod:`repro.core.greedy` is both exact and
faster; prefer it unless utility evaluations are extremely expensive
and a coarse epsilon is acceptable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.coverage.deployment import RngLike, make_rng
from repro.obs.registry import get_registry
from repro.utility.incremental import flush_ops, make_evaluator


def stochastic_greedy_schedule(
    problem: SchedulingProblem,
    epsilon: float = 0.1,
    rng: RngLike = None,
) -> PeriodicSchedule:
    """Subsampled greedy assignment (rho >= 1 regime).

    Parameters
    ----------
    epsilon:
        Accuracy knob in (0, 1): smaller epsilon -> larger samples ->
        closer to the exact greedy.  The per-step sample size is
        ``ceil((n / T) * log(1 / eps))``, clipped to [1, remaining].
    """
    if not problem.is_sparse_regime:
        raise ValueError(
            f"stochastic_greedy_schedule requires rho >= 1 (got rho="
            f"{problem.rho:g})"
        )
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    generator = make_rng(rng)
    utility = problem.utility
    n = problem.num_sensors
    T = problem.slots_per_period

    sample_size = max(1, math.ceil((n / max(T, 1)) * math.log(1.0 / epsilon)))
    remaining: List[int] = list(range(n))
    # One incremental evaluator per slot; each gain is bit-equal to the
    # per-pair utility.marginal it replaces.
    evaluators = [make_evaluator(utility) for _ in range(T)]
    assignment: Dict[int, int] = {}
    evaluations = 0

    while remaining:
        k = min(sample_size, len(remaining))
        idx = generator.choice(len(remaining), size=k, replace=False)
        sample = [remaining[i] for i in idx]
        evaluations += k * T
        best: Optional[Tuple[float, int, int]] = None
        best_pick = (sample[0], 0)
        for sensor in sample:
            for slot in range(T):
                key = (evaluators[slot].gain(sensor), -sensor, -slot)
                if best is None or key > best:
                    best = key
                    best_pick = (sensor, slot)
        sensor, slot = best_pick
        remaining.remove(sensor)
        evaluators[slot].add(sensor)
        assignment[sensor] = slot

    from repro.core.greedy import _EVALS_HELP

    get_registry().counter(
        "repro_greedy_marginal_evals_total", _EVALS_HELP, variant="stochastic"
    ).inc(evaluations)
    flush_ops(evaluators)
    return PeriodicSchedule(
        slots_per_period=T, assignment=assignment, mode=ScheduleMode.ACTIVE_SLOT
    )

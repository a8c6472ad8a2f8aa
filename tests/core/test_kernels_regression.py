"""Eval-count regression guards for the greedy kernels.

Pins two fully deterministic counts (no randomness anywhere in either
path), so structural regressions show up as hard failures long before
they show up as wall-clock noise in perfbench:

- the marginal-utility evaluations the lazy greedy spends on a fixed
  200-sensor weighted-coverage instance -- a change that weakens the
  lazy pruning (or reverts to per-step rescans) fails here;
- the vectorized kernel passes the batched greedy issues on a fixed
  uniform detection batch -- exactly ``n`` passes (one initial + one per
  non-final round), *independent of the batch width*.  A change that
  de-vectorizes the driver (per-instance or per-sensor passes) fails
  here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched.greedy import solve_batch
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.obs.registry import get_registry
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import DetectionUtility

SENSORS = 200
SEED = 42

#: Measured on the pinned instance at the time the incremental kernels
#: landed.  The lazy greedy may get *better* (fewer evaluations), never
#: worse.
LAZY_EVALS_BASELINE = 2006

#: n * slots-per-period * placements: the naive greedy's fixed bill on
#: this instance, for the pruning-ratio check below.
NAIVE_EVALS = 80400


def pinned_problem() -> SchedulingProblem:
    rng = np.random.default_rng(SEED)
    num_elements = 2 * SENSORS
    covers = {
        v: {
            int(e)
            for e in rng.choice(num_elements, size=8, replace=False)
        }
        for v in range(SENSORS)
    }
    weights = {
        e: float(w)
        for e, w in enumerate(rng.uniform(0.5, 2.0, size=num_elements))
    }
    return SchedulingProblem(
        num_sensors=SENSORS,
        period=ChargingPeriod.paper_sunny(),
        utility=WeightedCoverageUtility(covers, weights),
    )


def lazy_evals() -> float:
    registry = get_registry()
    registry.reset()
    solve(pinned_problem(), method="greedy")
    count = registry.sample_value(
        "repro_greedy_marginal_evals_total", variant="lazy"
    )
    assert count is not None, "lazy greedy did not record its evaluations"
    return count


class TestEvalCountRegression:
    def test_lazy_eval_count_no_worse_than_baseline(self):
        count = lazy_evals()
        assert count <= LAZY_EVALS_BASELINE, (
            f"lazy greedy spent {count:.0f} evaluations on the pinned "
            f"instance (baseline {LAZY_EVALS_BASELINE}): pruning regressed"
        )
        # Sanity floor: a miscounting bug that under-reports would also
        # sail under the baseline, so require a plausible magnitude
        # (at least one evaluation per placed sensor-slot).
        assert count >= SENSORS

    def test_lazy_prunes_most_of_the_naive_bill(self):
        count = lazy_evals()
        assert count * 10 <= NAIVE_EVALS, (
            f"lazy greedy spent {count:.0f} evaluations -- no longer a "
            f"10x saving over the naive bill of {NAIVE_EVALS}"
        )

    @pytest.mark.parametrize("flag", ["0", "1"])
    def test_eval_count_identical_under_both_toggles(self, from_scratch, flag):
        # Counter parity: the incremental path (flag 1) must bill exactly
        # the evaluations the from-scratch path (flag 0) bills.
        if flag == "0":
            from_scratch()
        count = lazy_evals()
        assert count == LAZY_EVALS_BASELINE, (
            f"flag {flag}: {count:.0f} evaluations vs the "
            f"pinned {LAZY_EVALS_BASELINE}"
        )


# ---------------------------------------------------------------------------
# Batched greedy: kernel passes grow with n, never with the batch width
# ---------------------------------------------------------------------------

BATCHED_SENSORS = 12
BATCHED_INSTANCES = 8

#: One initial pass plus one column pass per non-final round: ``n``
#: passes for a uniform ``n``-sensor batch, whatever its width.
BATCHED_INVOCATIONS_BASELINE = BATCHED_SENSORS


def pinned_batch(instances: int):
    problems = []
    for member in range(instances):
        rng = np.random.default_rng(1000 + member)
        probabilities = rng.uniform(0.2, 0.7, size=BATCHED_SENSORS).tolist()
        problems.append(
            SchedulingProblem(
                num_sensors=BATCHED_SENSORS,
                period=ChargingPeriod.paper_sunny(),
                utility=DetectionUtility(dict(enumerate(probabilities))),
            )
        )
    return problems


def batched_invocations(instances: int) -> float:
    registry = get_registry()
    registry.reset()
    solve_batch(pinned_batch(instances))
    count = registry.sample_value(
        "repro_batched_kernel_invocations_total", family="detection"
    )
    assert count, "batched greedy did not record its kernel passes"
    return count


class TestBatchedInvocationRegression:
    def test_invocation_count_pinned(self):
        count = batched_invocations(BATCHED_INSTANCES)
        assert count == BATCHED_INVOCATIONS_BASELINE, (
            f"batched greedy issued {count:.0f} kernel passes on the "
            f"pinned {BATCHED_INSTANCES}x{BATCHED_SENSORS} batch "
            f"(pinned {BATCHED_INVOCATIONS_BASELINE}): the driver "
            f"de-vectorized"
        )

    def test_invocations_independent_of_batch_width(self):
        # Doubling the width must not change the pass count: passes
        # scale with n (rounds), each pass covering every instance.
        assert batched_invocations(2 * BATCHED_INSTANCES) == (
            BATCHED_INVOCATIONS_BASELINE
        )

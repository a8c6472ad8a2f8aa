"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.obs.registry import get_registry
from repro.utility.area import AreaCoverageUtility, Subregion
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import DetectionUtility, HomogeneousDetectionUtility
from repro.utility.logsum import LogSumUtility
from repro.utility.target_system import TargetSystem


@pytest.fixture(autouse=True)
def _isolated_schedule_cache(tmp_path, monkeypatch):
    """Point the persistent schedule cache at a per-test directory.

    CLI paths open the default on-disk cache; without this, tests would
    write into (and read stale entries from) the developer's real
    ``~/.cache/repro`` store.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "schedule-cache"))


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """Chaos must never leak across tests: a plan left installed (or a
    stray $REPRO_FAULT_PLAN) would inject faults into unrelated suites."""
    from repro.faults import injector

    injector.uninstall()
    yield
    injector.uninstall()


@pytest.fixture
def from_scratch(monkeypatch):
    """Call it to serve every utility through the base evaluator.

    The reference twin of the incremental evaluators: once called,
    :func:`repro.utility.incremental.evaluator_class` answers the base
    :class:`IncrementalEvaluator` for every utility, so each solver and
    simulation in the rest of the test recomputes
    ``marginal``/``decrement``/``value`` from scratch.  Tests run the
    fast path first, call this, and run the same work again.
    """
    from repro.utility import incremental

    def switch() -> None:
        monkeypatch.setattr(
            incremental,
            "evaluator_class",
            lambda fn: incremental.IncrementalEvaluator,
        )

    return switch


@pytest.fixture
def brute_coverage(monkeypatch):
    """Call it to build every coverage set by the brute-force scan.

    The reference twin of the spatial grid index, which serves only
    fleets of at least ``SPATIAL_MIN_SENSORS`` sensors: once called,
    that threshold sits above any fleet size for the rest of the test.
    """
    from repro.coverage import spatial

    def switch() -> None:
        monkeypatch.setattr(spatial, "SPATIAL_MIN_SENSORS", 2**62)

    return switch


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def paper_period() -> ChargingPeriod:
    """The measured sunny pattern: T_d = 15, T_r = 45, rho = 3, T = 4."""
    return ChargingPeriod.paper_sunny()


@pytest.fixture
def fast_charge_period() -> ChargingPeriod:
    """rho = 1/3: recharge 3x faster than discharge, T = 4 slots."""
    return ChargingPeriod.from_ratio(1.0 / 3.0, discharge_time=45.0)


@pytest.fixture
def small_detection_problem(paper_period) -> SchedulingProblem:
    """8 sensors, one implicit target, p = 0.4 -- enumerable exactly."""
    return SchedulingProblem(
        num_sensors=8,
        period=paper_period,
        utility=HomogeneousDetectionUtility(range(8), p=0.4),
    )


def random_target_system(
    num_sensors: int,
    num_targets: int,
    rng: np.random.Generator,
    p_low: float = 0.2,
    p_high: float = 0.6,
    cover_prob: float = 0.5,
) -> TargetSystem:
    """A random multi-target detection system (test workload generator).

    Every target is guaranteed at least one covering sensor so the
    instance is never degenerate.
    """
    covers = []
    utilities = []
    for _ in range(num_targets):
        cover = {v for v in range(num_sensors) if rng.random() < cover_prob}
        if not cover:
            cover = {int(rng.integers(num_sensors))}
        probs = {v: float(rng.uniform(p_low, p_high)) for v in cover}
        covers.append(frozenset(cover))
        utilities.append(DetectionUtility(probs))
    return TargetSystem(covers, utilities)


def random_coverage_utility(
    num_sensors: int,
    num_elements: int,
    rng: np.random.Generator,
) -> WeightedCoverageUtility:
    """A random weighted coverage utility (test workload generator)."""
    covers = {
        v: {e for e in range(num_elements) if rng.random() < 0.4}
        for v in range(num_sensors)
    }
    weights = {e: float(rng.uniform(0.5, 2.0)) for e in range(num_elements)}
    return WeightedCoverageUtility(covers, weights)


def random_logsum_utility(
    num_sensors: int, rng: np.random.Generator
) -> LogSumUtility:
    return LogSumUtility(
        {v: float(rng.integers(1, 20)) for v in range(num_sensors)}
    )


#: Every serializable utility family the solver accepts, by the kind
#: names the property/differential suites sweep over.
UTILITY_FAMILIES = (
    "homogeneous-detection",
    "detection",
    "logsum",
    "weighted-coverage",
    "target-system",
)

#: Charge/discharge ratios that satisfy the integrality constraint
#: (rho or 1/rho integral), spanning both regimes.
RHO_CHOICES = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)


def random_utility(family: str, num_sensors: int, rng: np.random.Generator):
    """A random instance of the named utility family (seeded)."""
    if family == "homogeneous-detection":
        return HomogeneousDetectionUtility(
            range(num_sensors), p=float(rng.uniform(0.2, 0.7))
        )
    if family == "detection":
        return DetectionUtility(
            {v: float(rng.uniform(0.2, 0.7)) for v in range(num_sensors)}
        )
    if family == "logsum":
        return random_logsum_utility(num_sensors, rng)
    if family == "weighted-coverage":
        return random_coverage_utility(
            num_sensors, max(3, num_sensors), rng
        )
    if family == "target-system":
        return random_target_system(
            num_sensors, int(rng.integers(2, 5)), rng
        )
    raise ValueError(f"unknown utility family {family!r}")


def random_area_utility(
    num_sensors: int, rng: np.random.Generator
) -> AreaCoverageUtility:
    """Area coverage over ~3n cells of 1-3 covering sensors each."""
    if num_sensors == 0:
        return AreaCoverageUtility(())
    subregions = []
    for _ in range(3 * num_sensors):
        size = int(rng.integers(1, min(4, num_sensors + 1)))
        covered = frozenset(
            int(v) for v in rng.choice(num_sensors, size=size, replace=False)
        )
        subregions.append(
            Subregion(
                covered_by=covered,
                area=float(rng.uniform(0.5, 2.0)),
                weight=float(rng.uniform(0.5, 1.5)),
            )
        )
    return AreaCoverageUtility(subregions)


def random_area_problem(
    seed: int,
    num_sensors: int | None = None,
    rho: float | None = None,
    num_periods: int | None = None,
) -> SchedulingProblem:
    """An area-coverage scheduling instance, deterministic in ``seed``.

    Area coverage lives outside :data:`UTILITY_FAMILIES` (it has no
    wire-format builder), so the batched-kernel suites reach it through
    this dedicated generator instead of :func:`random_problem`.
    """
    rng = np.random.default_rng(seed)
    n = num_sensors if num_sensors is not None else int(rng.integers(4, 9))
    ratio = rho if rho is not None else float(rng.choice(RHO_CHOICES))
    periods = (
        num_periods if num_periods is not None else int(rng.integers(1, 3))
    )
    return SchedulingProblem(
        num_sensors=n,
        period=ChargingPeriod.from_ratio(ratio),
        utility=random_area_utility(n, rng),
        num_periods=periods,
    )


#: Every family :func:`random_batch_problems` builds: the five wire
#: families plus area coverage, which only the dedicated generator above
#: can build.
BATCH_FAMILIES = UTILITY_FAMILIES + ("area",)

#: The families with no batch kernel: ``solve_many`` solves their groups
#: serially by design (a serial solve beat their masked-sum kernels).
SERIAL_FAMILIES = ("weighted-coverage", "area")

#: The families :func:`repro.batched.greedy.solve_batch` accepts.
KERNEL_FAMILIES = tuple(f for f in BATCH_FAMILIES if f not in SERIAL_FAMILIES)


def random_batch_problems(
    seed: int,
    family: str,
    sizes: "list[int] | tuple[int, ...]",
    rho: float = 3.0,
) -> "list[SchedulingProblem]":
    """Same-family, same-``T`` instances with (possibly ragged) sizes.

    Exactly the shape :class:`repro.batched.batch.InstanceBatch`
    accepts: one utility family, one charge ratio (hence one
    ``slots_per_period``), arbitrary per-member sensor counts.  Note the
    target-system generator cannot build ``num_sensors == 0`` instances
    (its target-count draw requires at least one sensor); use sizes
    >= 1 for that family.
    """
    problems = []
    for offset, n in enumerate(sizes):
        member_seed = 100_000 * seed + 211 * offset + 7
        if family == "area":
            problems.append(
                random_area_problem(member_seed, num_sensors=n, rho=rho)
            )
        else:
            problems.append(
                random_problem(
                    seed=member_seed, num_sensors=n, rho=rho, family=family
                )
            )
    return problems


def random_problem(
    seed: int,
    num_sensors: int | None = None,
    rho: float | None = None,
    family: str | None = None,
    num_periods: int | None = None,
) -> SchedulingProblem:
    """A fully random scheduling instance, deterministic in ``seed``.

    Unpinned axes (size, ratio, utility family, horizon) are drawn from
    the seeded generator, so a list of seeds is a reproducible workload.
    """
    rng = np.random.default_rng(seed)
    n = num_sensors if num_sensors is not None else int(rng.integers(4, 9))
    ratio = rho if rho is not None else float(rng.choice(RHO_CHOICES))
    chosen = family if family is not None else str(rng.choice(UTILITY_FAMILIES))
    periods = (
        num_periods if num_periods is not None else int(rng.integers(1, 3))
    )
    return SchedulingProblem(
        num_sensors=n,
        period=ChargingPeriod.from_ratio(ratio),
        utility=random_utility(chosen, n, rng),
        num_periods=periods,
    )


#: The ``variant`` labels of ``repro_greedy_marginal_evals_total`` that
#: the three greedy entry points count under.
GREEDY_VARIANTS = ("lazy", "naive", "passive-lazy", "passive-naive", "repair")


def marginal_evals_delta(run):
    """Call ``run()``; return its result and how far each greedy
    variant's marginal-evaluation counter moved meanwhile."""
    registry = get_registry()

    def sample():
        return {
            variant: registry.sample_value(
                "repro_greedy_marginal_evals_total", variant=variant
            )
            or 0
            for variant in GREEDY_VARIANTS
        }

    before = sample()
    result = run()
    after = sample()
    return result, {v: after[v] - before[v] for v in GREEDY_VARIANTS}


def rounding_broke_submodularity(fn, remove, start, placements, pair, score):
    """Whether ``pair`` scored strictly better at an earlier state of its
    slot than ``score``, its score after ``placements``.

    Scores are what the greedy drivers minimise: ``-fn.marginal`` when
    adding to slot sets that start as ``start``, ``fn.decrement`` when
    removing from them.  ``placements`` are the (sensor, slot) commits
    made so far.  By submodularity a pair's score can only grow as its
    slot fills (or empties), so in exact arithmetic this is never true;
    when rounding makes it true, a cached score overstates the current
    one, and the lazy greedy may take a float near-tie over the naive
    scan's pick.
    """
    sensor, slot = pair
    measure = fn.decrement if remove else (lambda v, s: -fn.marginal(v, s))
    active = start
    earlier = []
    for placed, placed_slot in placements:
        if placed_slot == slot:
            earlier.append(active)
            active = active - {placed} if remove else active | {placed}
    return any(measure(sensor, state) > score for state in earlier)

"""Hypothesis property tests: the Sec. II-C axioms across utility classes.

Every utility class must satisfy, for arbitrary inputs:

- normalization: ``U(empty) == 0``;
- monotonicity: ``U(S) <= U(S | {v})``;
- submodularity: ``U(X+{v}) - U(X) >= U(Y+{v}) - U(Y)`` for X subset Y;

and the residual construction (Lemma 4.2) must preserve all three.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility.area import AreaCoverageUtility, Subregion
from repro.utility.base import UtilityFunction
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import DetectionUtility
from repro.utility.logsum import LogSumUtility
from repro.utility.operations import ResidualUtility
from repro.utility.target_system import TargetSystem

N_SENSORS = 6

subset_strategy = st.frozensets(
    st.integers(min_value=0, max_value=N_SENSORS - 1), max_size=N_SENSORS
)

sensor_strategy = st.integers(min_value=0, max_value=N_SENSORS - 1)


@st.composite
def detection_utilities(draw) -> DetectionUtility:
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=N_SENSORS,
            max_size=N_SENSORS,
        )
    )
    return DetectionUtility({i: p for i, p in enumerate(probs)})


@st.composite
def logsum_utilities(draw) -> LogSumUtility:
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=N_SENSORS,
            max_size=N_SENSORS,
        )
    )
    return LogSumUtility({i: w for i, w in enumerate(weights)})


@st.composite
def coverage_utilities(draw) -> WeightedCoverageUtility:
    covers = {
        i: draw(st.frozensets(st.integers(0, 9), max_size=6))
        for i in range(N_SENSORS)
    }
    weights = {
        e: draw(st.floats(min_value=0.0, max_value=5.0)) for e in range(10)
    }
    return WeightedCoverageUtility(covers, weights)


@st.composite
def area_utilities(draw) -> AreaCoverageUtility:
    num_cells = draw(st.integers(min_value=1, max_value=8))
    cells = []
    for _ in range(num_cells):
        covered = draw(
            st.frozensets(
                st.integers(0, N_SENSORS - 1), min_size=1, max_size=N_SENSORS
            )
        )
        area = draw(st.floats(min_value=0.0, max_value=10.0))
        weight = draw(st.floats(min_value=0.1, max_value=3.0))
        cells.append(Subregion(covered_by=covered, area=area, weight=weight))
    return AreaCoverageUtility(cells)


@st.composite
def target_systems(draw) -> TargetSystem:
    num_targets = draw(st.integers(min_value=1, max_value=4))
    covers = []
    utilities = []
    for _ in range(num_targets):
        cover = draw(
            st.frozensets(
                st.integers(0, N_SENSORS - 1), min_size=1, max_size=N_SENSORS
            )
        )
        p = draw(st.floats(min_value=0.0, max_value=1.0))
        covers.append(cover)
        utilities.append(DetectionUtility({v: p for v in cover}))
    return TargetSystem(covers, utilities)


@st.composite
def kcoverage_utilities(draw):
    from repro.utility.kcoverage import KCoverageUtility

    ground = draw(
        st.frozensets(
            st.integers(0, N_SENSORS - 1), min_size=1, max_size=N_SENSORS
        )
    )
    k = draw(st.integers(min_value=1, max_value=4))
    return KCoverageUtility(ground, k=k)


@st.composite
def concave_utilities(draw):
    from repro.utility.concave import ConcaveOverModularUtility

    weights = {
        i: draw(st.floats(min_value=0.0, max_value=10.0))
        for i in range(N_SENSORS)
    }
    factory = draw(
        st.sampled_from(
            [
                ConcaveOverModularUtility.sqrt,
                ConcaveOverModularUtility.log1p,
                lambda w: ConcaveOverModularUtility.capped(w, cap=5.0),
                lambda w: ConcaveOverModularUtility.saturating(w, rate=0.4),
            ]
        )
    )
    return factory(weights)


any_utility = st.one_of(
    detection_utilities(),
    logsum_utilities(),
    coverage_utilities(),
    area_utilities(),
    target_systems(),
    kcoverage_utilities(),
    concave_utilities(),
)


def _assert_monotone_step(fn: UtilityFunction, base, sensor):
    assert fn.value(base | {sensor}) >= fn.value(base) - 1e-9


@settings(max_examples=150, deadline=None)
@given(fn=any_utility)
def test_normalized(fn):
    assert abs(fn.value(frozenset())) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(fn=any_utility, base=subset_strategy, sensor=sensor_strategy)
def test_monotone(fn, base, sensor):
    _assert_monotone_step(fn, base, sensor)


@settings(max_examples=200, deadline=None)
@given(
    fn=any_utility,
    small=subset_strategy,
    extra=subset_strategy,
    sensor=sensor_strategy,
)
def test_submodular(fn, small, extra, sensor):
    big = small | extra
    if sensor in big:
        return
    gain_small = fn.marginal(sensor, small)
    gain_big = fn.marginal(sensor, big)
    assert gain_small >= gain_big - 1e-9


@settings(max_examples=150, deadline=None)
@given(fn=any_utility, base=subset_strategy, sensor=sensor_strategy)
def test_marginal_consistent_with_value(fn, base, sensor):
    if sensor in base:
        assert fn.marginal(sensor, base) == 0.0
        return
    direct = fn.value(base | {sensor}) - fn.value(base)
    assert fn.marginal(sensor, base) == pytest.approx(direct, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(fn=any_utility, base=subset_strategy, sensor=sensor_strategy)
def test_decrement_consistent_with_value(fn, base, sensor):
    if sensor not in base:
        assert fn.decrement(sensor, base) == 0.0
        return
    direct = fn.value(base) - fn.value(base - {sensor})
    assert fn.decrement(sensor, base) == pytest.approx(direct, abs=1e-9)


# ----------------------------------------------------------------------
# Lemma 4.2: residuals preserve the axioms.
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(fn=any_utility, fixed=subset_strategy)
def test_residual_normalized(fn, fixed):
    res = ResidualUtility(fn, fixed)
    assert abs(res.value(frozenset())) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(fn=any_utility, fixed=subset_strategy, base=subset_strategy, sensor=sensor_strategy)
def test_residual_monotone(fn, fixed, base, sensor):
    res = ResidualUtility(fn, fixed)
    _assert_monotone_step(res, base, sensor)


@settings(max_examples=200, deadline=None)
@given(
    fn=any_utility,
    fixed=subset_strategy,
    small=subset_strategy,
    extra=subset_strategy,
    sensor=sensor_strategy,
)
def test_residual_submodular(fn, fixed, small, extra, sensor):
    # This is exactly Lemma 4.2, checked numerically on random instances.
    res = ResidualUtility(fn, fixed)
    big = small | extra
    if sensor in big or sensor in fixed:
        return
    assert res.marginal(sensor, small) >= res.marginal(sensor, big) - 1e-9

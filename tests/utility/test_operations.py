"""Tests for utility combinators, centered on the residual of Lemma 4.2."""

import pytest

from repro.utility.base import check_monotone, check_normalized, check_submodular
from repro.utility.detection import DetectionUtility
from repro.utility.operations import (
    CappedCardinalityUtility,
    ResidualUtility,
    RestrictedUtility,
    ScaledUtility,
    residual,
)


def detection_fixture() -> DetectionUtility:
    return DetectionUtility({0: 0.3, 1: 0.5, 2: 0.4, 3: 0.6})


class TestResidualUtility:
    def test_definition(self):
        base = detection_fixture()
        res = ResidualUtility(base, fixed={0})
        for subset in [frozenset(), {1}, {1, 2}, {1, 2, 3}]:
            expected = base.value(frozenset(subset) | {0}) - base.value({0})
            assert res.value(subset) == pytest.approx(expected)

    def test_normalized(self):
        res = ResidualUtility(detection_fixture(), fixed={0, 1})
        assert check_normalized(res)

    def test_lemma_4_2_submodularity_preserved(self):
        # Lemma 4.2: U'(A) = U(A | {v1}) - U({v1}) stays submodular.
        res = ResidualUtility(detection_fixture(), fixed={0})
        assert check_monotone(res)
        assert check_submodular(res)

    def test_fixed_sensors_leave_ground_set(self):
        res = ResidualUtility(detection_fixture(), fixed={0, 2})
        assert res.ground_set == frozenset({1, 3})

    def test_fixed_sensor_has_zero_marginal(self):
        res = ResidualUtility(detection_fixture(), fixed={0})
        assert res.marginal(0, frozenset()) == 0.0

    def test_marginal_matches_base_conditional(self):
        base = detection_fixture()
        res = ResidualUtility(base, fixed={0})
        assert res.marginal(1, {2}) == pytest.approx(base.marginal(1, {0, 2}))

    def test_residual_of_everything_is_zero(self):
        base = detection_fixture()
        res = ResidualUtility(base, fixed=base.ground_set)
        assert res.value({0, 1, 2, 3}) == pytest.approx(0.0)


class TestResidualFactory:
    def test_empty_fixed_returns_base(self):
        base = detection_fixture()
        assert residual(base, frozenset()) is base

    def test_nested_residuals_flatten(self):
        base = detection_fixture()
        nested = residual(residual(base, {0}), {1})
        assert isinstance(nested, ResidualUtility)
        assert nested.base is base
        assert nested.fixed == frozenset({0, 1})

    def test_flattened_equals_nested_semantics(self):
        base = detection_fixture()
        level1 = ResidualUtility(base, {0})
        level2_manual = ResidualUtility(level1, {1})
        flattened = residual(level1, {1})
        for subset in [frozenset(), {2}, {2, 3}]:
            assert flattened.value(subset) == pytest.approx(
                level2_manual.value(subset)
            )


class TestScaledUtility:
    def test_scales(self):
        base = detection_fixture()
        scaled = ScaledUtility(base, 2.5)
        assert scaled.value({0, 1}) == pytest.approx(2.5 * base.value({0, 1}))
        assert scaled.marginal(2, {0}) == pytest.approx(2.5 * base.marginal(2, {0}))

    def test_zero_scale(self):
        scaled = ScaledUtility(detection_fixture(), 0.0)
        assert scaled.value({0, 1, 2, 3}) == 0.0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ScaledUtility(detection_fixture(), -1.0)


class TestRestrictedUtility:
    def test_intersection_semantics(self):
        base = detection_fixture()
        r = RestrictedUtility(base, {0, 1})
        assert r.value({0, 1, 2, 3}) == pytest.approx(base.value({0, 1}))

    def test_ground_set_clipped(self):
        r = RestrictedUtility(detection_fixture(), {0, 1, 99})
        assert r.ground_set == frozenset({0, 1})

    def test_outside_sensor_zero_marginal(self):
        r = RestrictedUtility(detection_fixture(), {0, 1})
        assert r.marginal(2, frozenset()) == 0.0

    def test_properties_preserved(self):
        r = RestrictedUtility(detection_fixture(), {0, 2})
        assert check_normalized(r)
        assert check_monotone(r)
        assert check_submodular(r)


class TestCappedCardinalityUtility:
    def test_caps(self):
        fn = CappedCardinalityUtility(range(5), cap=2)
        assert fn.value({0}) == 1.0
        assert fn.value({0, 1}) == 2.0
        assert fn.value({0, 1, 2, 3}) == 2.0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CappedCardinalityUtility(range(3), cap=-1)

    def test_zero_cap_constant(self):
        fn = CappedCardinalityUtility(range(3), cap=0)
        assert fn.value({0, 1, 2}) == 0.0

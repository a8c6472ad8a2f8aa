"""Submodularity-preserving combinators over utility functions.

The central construction is :class:`ResidualUtility`: given a utility
``U`` and a *fixed* already-activated set ``F``, the residual

.. math:: U'(A) = U(A \\cup F) - U(F)

is again normalized, non-decreasing and submodular -- this is exactly
Lemma 4.2 of the paper, and it is what makes the induction in
Lemma 4.1 (the 1/2-approximation of the greedy hill-climbing scheme)
go through: after the greedy scheme commits sensor ``v_1`` to slot
``i``, the remaining problem ``P'`` replaces the slot-``i`` utility by
its residual with respect to ``{v_1}``.

The other combinators cover standard closure properties used elsewhere
in the library: :class:`ScaledUtility` (per-slot priorities),
:class:`RestrictedUtility` (``UtilityFunction.restricted``) and
:class:`CappedCardinalityUtility` (a closed form for the LP).  The
multi-target objective Eq. 1 is
:class:`~repro.utility.target_system.TargetSystem`.
"""

from __future__ import annotations

from typing import Iterable

from repro.utility.base import SensorSet, UtilityFunction, as_sensor_set


class ResidualUtility(UtilityFunction):
    """``U'(A) = U(A | fixed) - U(fixed)`` (paper Lemma 4.2).

    ``fixed`` sensors are removed from the ground set: they are treated
    as permanently active and querying them yields zero gain.
    """

    def __init__(self, base: UtilityFunction, fixed: Iterable[int]):
        self._base = base
        self._fixed: SensorSet = as_sensor_set(fixed)
        self._offset = base.value(self._fixed)
        self._ground: SensorSet = base.ground_set - self._fixed

    @property
    def ground_set(self) -> SensorSet:
        return self._ground

    @property
    def fixed(self) -> SensorSet:
        return self._fixed

    @property
    def base(self) -> UtilityFunction:
        return self._base

    def value(self, sensors: Iterable[int]) -> float:
        active = as_sensor_set(sensors) - self._fixed
        return self._base.value(active | self._fixed) - self._offset

    def marginal(self, sensor: int, base: Iterable[int]) -> float:
        if sensor in self._fixed:
            return 0.0
        base_set = as_sensor_set(base) - self._fixed
        return self._base.marginal(sensor, base_set | self._fixed)


def residual(base: UtilityFunction, fixed: Iterable[int]) -> UtilityFunction:
    """Build the residual of ``base`` w.r.t. ``fixed``, flattening nesting.

    Residual-of-residual is collapsed into a single residual over the
    union of the fixed sets, so long greedy runs do not build deep
    wrapper chains (each level would add an evaluation indirection).
    """
    fixed_set = as_sensor_set(fixed)
    if not fixed_set:
        return base
    if isinstance(base, ResidualUtility):
        return ResidualUtility(base.base, base.fixed | fixed_set)
    return ResidualUtility(base, fixed_set)


class ScaledUtility(UtilityFunction):
    """``c * U`` for ``c >= 0`` (closure under non-negative scaling)."""

    def __init__(self, base: UtilityFunction, factor: float):
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        self._base = base
        self._factor = factor

    @property
    def ground_set(self) -> SensorSet:
        return self._base.ground_set

    @property
    def factor(self) -> float:
        return self._factor

    def value(self, sensors: Iterable[int]) -> float:
        return self._factor * self._base.value(sensors)

    def marginal(self, sensor: int, base: Iterable[int]) -> float:
        return self._factor * self._base.marginal(sensor, base)


class RestrictedUtility(UtilityFunction):
    """``U(S & allowed)`` -- the per-target restriction of Sec. II-D.

    The paper evaluates ``U_i`` on ``S_X(O_i, t) = S(t) & V(O_i)``; this
    wrapper performs the intersection so callers can pass the full
    active set.
    """

    def __init__(self, base: UtilityFunction, allowed: Iterable[int]):
        self._base = base
        self._allowed: SensorSet = as_sensor_set(allowed) & base.ground_set

    @property
    def ground_set(self) -> SensorSet:
        return self._allowed

    def value(self, sensors: Iterable[int]) -> float:
        return self._base.value(as_sensor_set(sensors) & self._allowed)

    def marginal(self, sensor: int, base: Iterable[int]) -> float:
        if sensor not in self._allowed:
            return 0.0
        return self._base.marginal(sensor, as_sensor_set(base) & self._allowed)


class CappedCardinalityUtility(UtilityFunction):
    """``U(S) = min(|S & ground|, cap)`` -- a simple budget-style utility.

    Useful in tests as a non-strictly-concave submodular function whose
    greedy behaviour is easy to reason about.
    """

    def __init__(self, sensors: Iterable[int], cap: int):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self._ground: SensorSet = as_sensor_set(sensors)
        self._cap = cap

    @property
    def ground_set(self) -> SensorSet:
        return self._ground

    def value(self, sensors: Iterable[int]) -> float:
        return float(min(len(as_sensor_set(sensors) & self._ground), self._cap))

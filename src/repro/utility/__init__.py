"""Submodular utility functions for coverage service (paper Sec. II-C).

The paper assumes that the utility a WSN gains from activating a set
``S`` of sensors at a timeslot is a non-decreasing, submodular set
function with ``U(empty) = 0``.  This subpackage provides:

- :class:`~repro.utility.base.UtilityFunction` -- the abstract interface
  every utility implements, with marginal-gain helpers and numeric
  property checkers (monotonicity, submodularity, normalization).
- :class:`~repro.utility.detection.DetectionUtility` -- the probabilistic
  detection utility ``U(S) = 1 - prod_{v in S}(1 - p_v)`` used throughout
  the paper's evaluation (Sec. VI-B with ``p = 0.4``).
- :class:`~repro.utility.area.AreaCoverageUtility` -- the weighted area
  utility ``U(S) = sum_i I_i(S) w_i |A_i|`` over subregions (Eq. 2).
- :class:`~repro.utility.logsum.LogSumUtility` -- the
  ``log(1 + sum I_i)`` utility from the NP-hardness proof (Thm. 3.1).
- :class:`~repro.utility.coverage_count.CoverageCountUtility` and
  :class:`~repro.utility.coverage_count.WeightedCoverageUtility` --
  classic (weighted) coverage utilities.
- :mod:`~repro.utility.operations` -- submodularity-preserving
  combinators, most importantly the *residual* construction
  ``U'(A) = U(A | F) - U(F)`` that drives the induction in Lemma 4.1
  and whose submodularity is Lemma 4.2.
- :class:`~repro.utility.target_system.TargetSystem` -- the multi-target
  objective ``sum_i U_i(S intersect V(O_i))`` (Eq. 1) together with the
  coverage relation ``a_ij``.
- :mod:`~repro.utility.incremental` -- stateful marginal-gain
  evaluators for every family, bit-for-bit equal to the from-scratch
  ``marginal``/``decrement``/``value`` calls they replace.
"""

from repro.utility.base import (
    UtilityFunction,
    check_monotone,
    check_normalized,
    check_submodular,
)
from repro.utility.detection import DetectionUtility, HomogeneousDetectionUtility
from repro.utility.area import AreaCoverageUtility
from repro.utility.logsum import LogSumUtility
from repro.utility.coverage_count import CoverageCountUtility, WeightedCoverageUtility
from repro.utility.kcoverage import KCoverageUtility, k_coverage_system
from repro.utility.concave import ConcaveOverModularUtility
from repro.utility.operations import (
    CappedCardinalityUtility,
    ResidualUtility,
    ScaledUtility,
    residual,
)
from repro.utility.target_system import PerSlotUtility, TargetSystem
from repro.utility.incremental import (
    IncrementalEvaluator,
    SlotValueMemo,
    flush_ops,
    make_evaluator,
    make_slot_evaluators,
)

__all__ = [
    "UtilityFunction",
    "check_monotone",
    "check_normalized",
    "check_submodular",
    "DetectionUtility",
    "HomogeneousDetectionUtility",
    "AreaCoverageUtility",
    "LogSumUtility",
    "CoverageCountUtility",
    "WeightedCoverageUtility",
    "KCoverageUtility",
    "k_coverage_system",
    "ConcaveOverModularUtility",
    "ResidualUtility",
    "ScaledUtility",
    "CappedCardinalityUtility",
    "residual",
    "TargetSystem",
    "PerSlotUtility",
    "IncrementalEvaluator",
    "SlotValueMemo",
    "flush_ops",
    "make_evaluator",
    "make_slot_evaluators",
]

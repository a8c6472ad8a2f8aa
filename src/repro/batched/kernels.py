"""Vectorized cross-instance marginal-gain kernels, one per family.

A kernel answers whole *gain columns* for the members of an
:class:`~repro.batched.batch.InstanceBatch` -- the marginal gain of
every sensor of every requested instance in one numpy pass:

- :meth:`BatchKernel.initial_columns` -- the empty-set gains for all
  ``(instance, sensor, slot)`` triples at once;
- :meth:`BatchKernel.apply` -- record one placement (the serial
  evaluator's ``add``);
- :meth:`BatchKernel.columns` -- fresh gain columns for a batch of
  ``(instance, slot)`` pairs after their slots mutated.

Families without a kernel here (weighted coverage, area, the
``recompute`` fallback and target systems outside
:func:`~repro.utility.incremental.detection_targets`) solve serially by
design: :func:`~repro.batched.batch.family_of` answers ``None`` for
them.

No kernel keeps family state of its own.  Each holds one serial
evaluator per ``(instance, slot)``, built by
:func:`~repro.utility.incremental.make_evaluator`;
:meth:`BatchKernel.apply` is that evaluator's
``add``, and a column reads its cached scalar: the miss product
``_miss``, the count ``_k``, the weight total ``_total`` or the
per-target miss vector ``_miss_vec``.  Rules 1 and 2 of the
accumulation contract in :mod:`repro.utility.incremental` (the
``S | {v}`` chain, cached scalars recomputed by the family's own
methods) therefore hold by construction.  What a kernel owns is its
padded per-sensor arrays and the vectorized gain expression, which keep
the serial bits by two further rules:

3. Gain expressions reduce in the serial order.  Ragged per-sensor term
   lists are padded with exact-zero terms and reduced with
   ``np.cumsum`` (sequential left-to-right), which is bit-equal to the
   serial filtered ``sum`` because every real partial sum is
   ``>= +0.0`` and ``x + 0.0 == x`` exactly.
4. **No transcendental ufuncs.**  ``np.log1p``/``np.expm1`` do not
   bit-match libm's ``math.log1p``/``math.expm1`` everywhere, so the
   logsum kernel calls ``math.log1p`` per distinct weight (the vector
   add stays numpy) and the homogeneous-detection kernel calls
   ``value_of_count`` itself once per column.

Padded entries (sensor ids beyond an instance's real count) always
produce an exact ``0.0`` gain here; the greedy driver additionally
masks them (and placed sensors) to ``-inf`` before every argmax, so
they can never be selected even if a kernel regresses -- and the
mutation tests in ``tests/batched/test_mutation.py`` corrupt exactly
this layer to prove the differential suite notices.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)

import numpy as np

from repro.utility.incremental import make_evaluator

if TYPE_CHECKING:
    from repro.batched.batch import InstanceBatch

#: Per-instance ``{sensor: [(index, weight), ...]}`` term lists.
Terms = Sequence[Mapping[int, Sequence[Tuple[int, float]]]]


def _stack_terms(terms: Terms, n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pad per-sensor ``(index, weight)`` term lists to a rectangle.

    Returns ``(idx, w)`` of shape ``(N, n_max, d_max)``; padding entries
    are ``(0, 0.0)``, which contribute an exact ``+0.0`` term to the
    sequential sums.
    """
    d_max = max(
        (len(row) for rows in terms for row in rows.values()), default=0
    )
    idx = np.zeros((len(terms), n_max, d_max), dtype=np.intp)
    w = np.zeros((len(terms), n_max, d_max), dtype=np.float64)
    for i, rows in enumerate(terms):
        for s, row in rows.items():
            for j, (e, weight) in enumerate(row):
                idx[i, s, j] = e
                w[i, s, j] = weight
    return idx, w


def _sequential_sums(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sums over the last axis (rule 3)."""
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1], dtype=np.float64)
    return np.cumsum(terms, axis=-1)[..., -1]


class BatchKernel:
    """A kernel over one serial evaluator per ``(instance, slot)``."""

    family = "?"

    def __init__(self, batch: InstanceBatch):
        self.batch = batch
        self.N = batch.size
        self.T = batch.slots_per_period
        self.n_max = batch.n_max
        #: Vectorized kernel passes issued (the de-vectorization pin).
        self.invocations = 0
        #: Gain entries produced across all passes (eval accounting).
        self.entries = 0
        self._evals = [
            [make_evaluator(problem.utility) for _ in range(self.T)]
            for problem in batch.problems
        ]

    def apply(self, index: int, sensor: int, slot: int) -> None:
        """Record a placement (the serial evaluator's ``add``)."""
        self._evals[index][slot].add(sensor)

    def initial_columns(self) -> np.ndarray:
        """Empty-set gains, shape ``(N, n_max, T)``.

        All slots share the empty state, so slot 0's column is computed
        per instance and broadcast across ``T`` -- identical state gives
        identical bits, exactly as the serial path's per-slot
        evaluations do.
        """
        self.invocations += 1
        out = np.empty((self.N, self.n_max, self.T), dtype=np.float64)
        cols = self._columns([(i, 0) for i in range(self.N)])
        out[:] = cols[:, :, None]
        self.entries += out.size
        return out

    def columns(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Fresh gain columns for ``(instance, slot)`` pairs: ``(B, n_max)``."""
        self.invocations += 1
        out = self._columns(list(pairs))
        self.entries += out.size
        return out

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        raise NotImplementedError

    def _per_sensor(
        self, table: Callable[..., Mapping[int, float]]
    ) -> np.ndarray:
        """``(N, n_max)`` of ``table(utility)[s]``; 0.0 for sensors
        outside the table and for padding -- both give the serial
        literal 0.0 gain."""
        out = np.zeros((self.N, self.n_max), dtype=np.float64)
        for i, problem in enumerate(self.batch.problems):
            values = table(problem.utility)
            for s in range(problem.num_sensors):
                value = values.get(s)
                if value is not None:
                    out[i, s] = value
        return out


class DetectionKernel(BatchKernel):
    """``gain = p_v * miss(S_t)`` over each slot evaluator's ``_miss``."""

    family = "detection"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._p = self._per_sensor(lambda fn: fn._probabilities)

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = [i for i, _ in pairs]
        miss = np.array(
            [self._evals[i][t]._miss for i, t in pairs], dtype=np.float64
        )
        return self._p[rows] * miss[:, None]


class HomogeneousDetectionKernel(BatchKernel):
    """``value_of_count(k + 1) - value_of_count(k)`` over each slot
    evaluator's count ``_k``, masked to the ground set.

    The count gain is the serial scalar expression, one per column, so
    no ``expm1``/``log1p`` runs in numpy (rule 4).
    """

    family = "homogeneous-detection"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._in_ground = self._per_sensor(
            lambda fn: dict.fromkeys(fn.ground_set, 1.0)
        )

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = [i for i, _ in pairs]
        gains = []
        for i, t in pairs:
            evaluator = self._evals[i][t]
            fn, k = evaluator.fn, evaluator._k
            gains.append(fn.value_of_count(k + 1) - fn.value_of_count(k))
        gains = np.array(gains, dtype=np.float64)
        return self._in_ground[rows] * gains[:, None]


class LogSumKernel(BatchKernel):
    """``log1p(total + w) - log1p(total)`` over each slot evaluator's
    ``_total``, with libm transcendentals.

    The sum ``total + w`` is one IEEE add (numpy or scalar -- same
    bits); the ``log1p`` calls go through :mod:`math` per element
    because numpy's vectorized ``log1p`` is not bit-equal to libm's on
    every platform.
    """

    family = "logsum"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        w = self._per_sensor(lambda fn: fn._weights)
        # Weight palettes: log1p is evaluated once per *distinct*
        # weight and gathered back.  Equal weights share one IEEE add
        # ``total + w`` (identical bits), so the gathered column equals
        # the per-element one bit-for-bit.
        self._uniq: List[np.ndarray] = []
        self._inverse: List[np.ndarray] = []
        for i in range(self.N):
            uniq, inverse = np.unique(w[i], return_inverse=True)
            self._uniq.append(uniq)
            self._inverse.append(inverse.reshape(-1))

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        out = np.empty((len(pairs), self.n_max), dtype=np.float64)
        for b, (i, t) in enumerate(pairs):
            total = self._evals[i][t]._total
            uniq = self._uniq[i]
            base = math.log1p(total)
            col = np.fromiter(
                (math.log1p(x) for x in (total + uniq).tolist()),
                dtype=np.float64,
                count=len(uniq),
            )
            # w == 0.0 (missing weight / padding) gives log1p(total) -
            # base == x - x == +0.0, the serial early-return value.
            out[b] = (col - base)[self._inverse[i]]
        return out


class TargetSystemKernel(BatchKernel):
    """Eq. 1 sums of per-target detection gains over each slot
    evaluator's per-target miss vector ``_miss_vec``.

    The per-sensor ``(target-ids, probs)`` arrays are the evaluator's
    own (``TargetSystemEvaluator._fast``), padded; gains gather the miss
    vector by them and reduce sequentially (rule 3).
    """

    family = "target-system"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        terms = []
        for i, problem in enumerate(batch.problems):
            fast = self._evals[i][0]._fast
            terms.append(
                {
                    s: list(zip(tids.tolist(), probs.tolist()))
                    for s, (tids, probs) in fast.items()
                    if s < problem.num_sensors
                }
            )
        self._tids, self._probs = _stack_terms(terms, self.n_max)
        self._m_max = max(
            [p.utility.num_targets for p in batch.problems] + [1]
        )

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        miss = np.ones((len(pairs), self._m_max), dtype=np.float64)
        for b, (i, t) in enumerate(pairs):
            vec = self._evals[i][t]._miss_vec
            miss[b, : len(vec)] = vec
        b_index = np.arange(len(pairs), dtype=np.intp)[:, None, None]
        return _sequential_sums(
            self._probs[rows] * miss[b_index, self._tids[rows]]
        )


_KERNELS: Dict[str, type] = {
    "detection": DetectionKernel,
    "homogeneous-detection": HomogeneousDetectionKernel,
    "logsum": LogSumKernel,
    "target-system": TargetSystemKernel,
}


def make_kernel(batch: InstanceBatch) -> BatchKernel:
    """The family kernel for a built batch."""
    return _KERNELS[batch.family](batch)

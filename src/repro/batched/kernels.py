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
:func:`~repro.batched.batch.detection_targets`) solve serially by
design: :func:`~repro.batched.batch.family_of` answers ``None`` for
them.

No kernel keeps family state of its own.  Each holds one serial
evaluator per ``(instance, slot)``, built by
:func:`~repro.utility.incremental.make_evaluator`;
:meth:`BatchKernel.apply` is that evaluator's ``add``, and a column
reads the one per-slot quantity the evaluator declares and its own
``_gain`` uses: ``slot_factor()`` for the detection families (the
target-system kernel reads it from each per-target child) and
``weight_gain(w)`` for log-sum.  Rules 1-3 of the accumulation
contract in :mod:`repro.utility.incremental` therefore hold by
construction.  What a kernel owns is its padded per-sensor arrays and
the vectorized expression around that quantity, which keep the serial
bits by two further rules:

4. Gain expressions reduce in the serial order.  Ragged per-sensor term
   lists are padded with exact-zero terms and reduced with
   ``np.cumsum`` (sequential left-to-right), which is bit-equal to the
   serial filtered ``sum`` because every real partial sum is
   ``>= +0.0`` and ``x + 0.0 == x`` exactly.
5. **No transcendental ufuncs.**  ``np.log1p``/``np.expm1`` do not
   bit-match libm's ``math.log1p``/``math.expm1`` everywhere, so the
   transcendentals stay in the evaluators' scalar ``slot_factor`` and
   ``weight_gain``, called once per column (log-sum: once per distinct
   weight of the column).

Padded entries (sensor ids beyond an instance's real count) always
produce an exact ``0.0`` gain here; the greedy driver additionally
masks them (and placed sensors) to ``-inf`` before every argmax, so
they can never be selected even if a kernel regresses -- and the
mutation tests in ``tests/batched/test_mutation.py`` corrupt exactly
this layer to prove the differential suite notices.
"""

from __future__ import annotations

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

from repro.utility.incremental import DetectionEvaluator, make_evaluator

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
    """Left-to-right sums over the last axis (rule 4)."""
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1], dtype=np.float64)
    return np.cumsum(terms, axis=-1)[..., -1]


class BatchKernel:
    """A kernel over one serial evaluator per ``(instance, slot)``."""

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


class ProductKernel(BatchKernel):
    """``W[v] * slot_factor()``: the detection families.

    Detection's weight is ``p_v`` and its factor the miss product;
    homogeneous detection's weight is 1.0 per ground sensor and its
    factor the count gain.  Both come from the slot evaluator
    (``sensor_weights`` and ``slot_factor``), whose own ``_gain`` is the
    same product, so a column is its scalar gains bit for bit.
    """

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._w = self._per_sensor(type(self._evals[0][0]).sensor_weights)

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = [i for i, _ in pairs]
        factors = np.array(
            [self._evals[i][t].slot_factor() for i, t in pairs],
            dtype=np.float64,
        )
        return self._w[rows] * factors[:, None]


class LogSumKernel(BatchKernel):
    """Each slot evaluator's ``weight_gain`` over a palette of weights.

    ``weight_gain`` runs its libm ``log1p`` once per *distinct* weight
    of an instance (rule 5) and the column gathers the palette back.
    Equal weights give identical bits, so the gathered column equals the
    per-element one.
    """

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        w = self._per_sensor(lambda fn: fn.weights)
        self._uniq: List[List[float]] = []
        self._inverse: List[np.ndarray] = []
        for i in range(self.N):
            uniq, inverse = np.unique(w[i], return_inverse=True)
            self._uniq.append(uniq.tolist())
            self._inverse.append(inverse.reshape(-1))

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        out = np.empty((len(pairs), self.n_max), dtype=np.float64)
        for b, (i, t) in enumerate(pairs):
            weight_gain = self._evals[i][t].weight_gain
            uniq = self._uniq[i]
            # w == 0.0 (missing weight / padding) gains exactly +0.0,
            # the serial early-return value.
            col = np.fromiter(
                (weight_gain(w) for w in uniq),
                dtype=np.float64,
                count=len(uniq),
            )
            out[b] = col[self._inverse[i]]
        return out


class TargetSystemKernel(BatchKernel):
    """Eq. 1 sums of per-target detection gains.

    Each sensor's ``(target, p)`` terms come from the utility in the
    order ``TargetSystem.marginal`` sums them, padded; a column gathers
    every child evaluator's ``slot_factor()`` (its miss product) by
    target, multiplies and reduces sequentially (rule 4).
    """

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        terms = []
        for problem in batch.problems:
            fn = problem.utility
            probs = [
                DetectionEvaluator.sensor_weights(fn.target_utility(tid))
                for tid in range(fn.num_targets)
            ]
            terms.append(
                {
                    s: [(tid, probs[tid][s]) for tid in fn.targets_of(s)]
                    for s in range(problem.num_sensors)
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
            children = self._evals[i][t].children
            miss[b, : len(children)] = [c.slot_factor() for c in children]
        b_index = np.arange(len(pairs), dtype=np.intp)[:, None, None]
        return _sequential_sums(
            self._probs[rows] * miss[b_index, self._tids[rows]]
        )


_KERNELS: Dict[str, type] = {
    "detection": ProductKernel,
    "homogeneous-detection": ProductKernel,
    "logsum": LogSumKernel,
    "target-system": TargetSystemKernel,
}


def make_kernel(batch: InstanceBatch) -> BatchKernel:
    """The family kernel for a built batch."""
    return _KERNELS[batch.family](batch)

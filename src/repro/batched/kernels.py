"""Vectorized cross-instance marginal-gain kernels, one per family.

A kernel owns the per-``(instance, slot)`` running state for every
member of an :class:`~repro.batched.batch.InstanceBatch` and answers
whole *gain columns* -- the marginal gain of every sensor of every
requested instance in one numpy pass:

- :meth:`BatchKernel.initial_columns` -- the empty-set gains for all
  ``(instance, sensor, slot)`` triples at once;
- :meth:`BatchKernel.apply` -- record one placement (mirrors the serial
  evaluator's ``add``);
- :meth:`BatchKernel.columns` -- fresh gain columns for a batch of
  ``(instance, slot)`` pairs after their slots mutated.

Bit-exactness discipline (the same three rules as
:mod:`repro.utility.incremental`, plus one numpy-specific rule):

1. Active sets are mutated by the exact serial op sequence
   (``S | {v}`` starting from ``frozenset()``), so any recomputation
   that iterates them sees the serial iteration order.  Unlike the
   serial evaluator, which defers that chain until the set is read,
   :meth:`BatchKernel.apply` keeps it eager: batches hold small
   instances, where the copies cost little, and one plain frozenset
   per ``(instance, slot)`` keeps the kernels simple.
2. Cached scalars (detection miss products, logsum totals, per-target
   miss vectors) are recomputed *by the utility's own methods* over
   those set objects -- never updated arithmetically.
3. Gain expressions reduce in the serial order.  Ragged per-sensor term
   lists are padded with exact-zero terms and reduced with
   ``np.cumsum`` (sequential left-to-right), which is bit-equal to the
   serial filtered ``sum`` because every real partial sum is
   ``>= +0.0`` and ``x + 0.0 == x`` exactly.
4. **No transcendental ufuncs.**  ``np.log1p``/``np.expm1`` do not
   bit-match libm's ``math.log1p``/``math.expm1`` everywhere, so the
   logsum kernel calls ``math.log1p`` per candidate (the vector add
   stays numpy) and the homogeneous-detection kernel gathers from a
   table built by ``value_of_count`` itself.

Padded entries (sensor ids beyond an instance's real count) always
produce an exact ``0.0`` gain here; the greedy driver additionally
masks them (and placed sensors) to ``-inf`` before every argmax, so
they can never be selected even if a kernel regresses -- and the
mutation tests in ``tests/batched/test_mutation.py`` corrupt exactly
this layer to prove the differential suite notices.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.batched.batch import InstanceBatch
from repro.utility.base import SensorSet

_EMPTY: SensorSet = frozenset()


def _padded(
    rows: Sequence[Sequence[Tuple[int, float]]],
    n_max: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad per-sensor ``(index, weight)`` term lists to a rectangle.

    Returns ``(idx, w)`` of shape ``(n_max, d_max)``; padding entries
    are ``(0, 0.0)``, which contribute an exact ``+0.0`` term to the
    masked cumulative sums.
    """
    d_max = max((len(r) for r in rows), default=0)
    idx = np.zeros((n_max, d_max), dtype=np.intp)
    w = np.zeros((n_max, d_max), dtype=np.float64)
    for s, row in enumerate(rows):
        for j, (e, weight) in enumerate(row):
            idx[s, j] = e
            w[s, j] = weight
    return idx, w


class BatchKernel:
    """Shared state layout and bookkeeping for all family kernels."""

    family = "?"

    def __init__(self, batch: InstanceBatch):
        self.batch = batch
        self.N = batch.size
        self.T = batch.slots_per_period
        self.n_max = batch.n_max
        # Active sets per (instance, slot), mutated by the exact serial
        # op sequence so recomputations iterate in the serial order.
        self._active: List[List[SensorSet]] = [
            [_EMPTY] * self.T for _ in range(self.N)
        ]
        #: Vectorized kernel passes issued (the de-vectorization pin).
        self.invocations = 0
        #: Gain entries produced across all passes (eval accounting).
        self.entries = 0

    # -- public API ----------------------------------------------------

    def active_set(self, index: int, slot: int) -> SensorSet:
        return self._active[index][slot]

    def apply(self, index: int, sensor: int, slot: int) -> None:
        """Record a placement (the serial ``S | {v}`` update)."""
        before = self._active[index][slot]
        self._active[index][slot] = before | {sensor}
        self._on_apply(index, slot)

    def initial_columns(self) -> np.ndarray:
        """Empty-set gains, shape ``(N, n_max, T)``.

        All slots share the empty state, so one column per instance is
        computed and broadcast across ``T`` -- identical state gives
        identical bits, exactly as the serial path's per-slot
        evaluations do.
        """
        self.invocations += 1
        out = np.empty((self.N, self.n_max, self.T), dtype=np.float64)
        cols = self._initial()
        out[:] = cols[:, :, None]
        self.entries += out.size
        return out

    def columns(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Fresh gain columns for ``(instance, slot)`` pairs: ``(B, n_max)``."""
        self.invocations += 1
        out = self._columns(list(pairs))
        self.entries += out.size
        return out

    # -- family hooks --------------------------------------------------

    def _on_apply(self, index: int, slot: int) -> None:
        raise NotImplementedError

    def _initial(self) -> np.ndarray:
        raise NotImplementedError

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        raise NotImplementedError


class DetectionKernel(BatchKernel):
    """``gain = p_v * miss(S_t)`` with the miss product recomputed by
    :meth:`DetectionUtility.miss_probability` on every mutation."""

    family = "detection"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._fns = [p.utility for p in batch.problems]
        # p_v per (instance, sensor); 0.0 for sensors outside the table
        # and for padding -- both give the serial literal 0.0 gain.
        self._p = np.zeros((self.N, self.n_max), dtype=np.float64)
        for i, fn in enumerate(self._fns):
            probs = fn._probabilities
            for s in range(batch.problems[i].num_sensors):
                p = probs.get(s)
                if p is not None:
                    self._p[i, s] = p
        self._miss = [[1.0] * self.T for _ in range(self.N)]

    def _on_apply(self, index: int, slot: int) -> None:
        self._miss[index][slot] = self._fns[index].miss_probability(
            self._active[index][slot]
        )

    def _initial(self) -> np.ndarray:
        # miss(empty) == 1.0 and p * 1.0 == p exactly.
        return self._p.copy()

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        miss = np.array(
            [self._miss[i][t] for i, t in pairs], dtype=np.float64
        )
        return self._p[rows] * miss[:, None]


class HomogeneousDetectionKernel(BatchKernel):
    """Count-based gains gathered from a ``value_of_count`` table.

    The table rows are built by the utility's own method (rule 2), so
    the gather + subtract reproduces the serial
    ``value_of_count(k+1) - value_of_count(k)`` bit-for-bit without
    touching ``expm1``/``log1p`` in numpy.
    """

    family = "homogeneous-detection"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._grounds = [p.utility.ground_set for p in batch.problems]
        self._in_ground = np.zeros((self.N, self.n_max), dtype=np.float64)
        self._tables: List[np.ndarray] = []
        for i, problem in enumerate(batch.problems):
            fn = problem.utility
            for s in range(problem.num_sensors):
                if s in self._grounds[i]:
                    self._in_ground[i, s] = 1.0
            # Length n+2 so table[k+1] stays in range even at k == n.
            self._tables.append(
                np.array(
                    [
                        fn.value_of_count(k)
                        for k in range(problem.num_sensors + 2)
                    ],
                    dtype=np.float64,
                )
            )
        self._k = [[0] * self.T for _ in range(self.N)]

    def _on_apply(self, index: int, slot: int) -> None:
        # The count is an integer (it carries no rounding history), so
        # recomputing it via the utility's own method is both rule-2
        # clean and exact.
        self._k[index][slot] = self.batch.problems[index].utility.count(
            self._active[index][slot]
        )

    def _gain_scalar(self, index: int, slot: int) -> np.float64:
        table = self._tables[index]
        k = self._k[index][slot]
        return table[k + 1] - table[k]

    def _initial(self) -> np.ndarray:
        gains = np.array(
            [self._gain_scalar(i, 0) for i in range(self.N)],
            dtype=np.float64,
        )
        return self._in_ground * gains[:, None]

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        gains = np.array(
            [self._gain_scalar(i, t) for i, t in pairs], dtype=np.float64
        )
        return self._in_ground[rows] * gains[:, None]


class LogSumKernel(BatchKernel):
    """``log1p(total + w) - log1p(total)`` with libm transcendentals.

    The sum ``total + w`` is one IEEE add (numpy or scalar -- same
    bits); the ``log1p`` calls go through :mod:`math` per element
    because numpy's vectorized ``log1p`` is not bit-equal to libm's on
    every platform.
    """

    family = "logsum"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._fns = [p.utility for p in batch.problems]
        self._w = np.zeros((self.N, self.n_max), dtype=np.float64)
        for i, fn in enumerate(self._fns):
            weights = fn._weights
            for s in range(batch.problems[i].num_sensors):
                w = weights.get(s)
                if w is not None:
                    self._w[i, s] = w
        # total_weight(frozenset()) is the serial initial total (the
        # int 0 a python sum of nothing yields).
        self._total: List[List[float]] = [
            [self._fns[i].total_weight(_EMPTY)] * self.T
            for i in range(self.N)
        ]
        # Weight palettes: log1p is evaluated once per *distinct*
        # weight and gathered back.  Equal weights share one IEEE add
        # ``total + w`` (identical bits), so the gathered column equals
        # the per-element one bit-for-bit.
        self._uniq: List[np.ndarray] = []
        self._inverse: List[np.ndarray] = []
        for i in range(self.N):
            uniq, inverse = np.unique(self._w[i], return_inverse=True)
            self._uniq.append(uniq)
            self._inverse.append(inverse.reshape(-1))

    def _on_apply(self, index: int, slot: int) -> None:
        self._total[index][slot] = self._fns[index].total_weight(
            self._active[index][slot]
        )

    def _column_for(self, index: int, total: float) -> np.ndarray:
        uniq = self._uniq[index]
        sums = total + uniq
        base = math.log1p(total)
        col = np.fromiter(
            (math.log1p(x) for x in sums.tolist()),
            dtype=np.float64,
            count=len(uniq),
        )
        # w == 0.0 (missing weight / padding) gives log1p(total) - base
        # == x - x == +0.0, the serial early-return value.
        return (col - base)[self._inverse[index]]

    def _initial(self) -> np.ndarray:
        out = np.empty((self.N, self.n_max), dtype=np.float64)
        for i in range(self.N):
            out[i] = self._column_for(i, self._total[i][0])
        return out

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        out = np.empty((len(pairs), self.n_max), dtype=np.float64)
        for b, (i, t) in enumerate(pairs):
            out[b] = self._column_for(i, self._total[i][t])
        return out


class _MaskedSumKernel(BatchKernel):
    """Shared machinery for coverage/area: integer cover counters plus a
    masked cumulative sum over each sensor's element list.

    Subclasses provide, per instance, the dense element count and the
    per-sensor ``(element, weight)`` term lists in the exact iteration
    order the serial ``marginal`` generator uses.
    """

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._idx_pad = np.zeros((self.N, self.n_max, 0), dtype=np.intp)
        self._w_pad = np.zeros((self.N, self.n_max, 0), dtype=np.float64)
        self._add_idx: List[List[np.ndarray]] = []
        self._last_added: List[List[int]] = [
            [0] * self.T for _ in range(self.N)
        ]

    def _finish_build(
        self,
        term_rows: List[List[List[Tuple[int, float]]]],
        num_elements: List[int],
    ) -> None:
        d_max = 0
        per_instance = []
        for i, rows in enumerate(term_rows):
            idx, w = _padded(rows, self.n_max)
            per_instance.append((idx, w))
            d_max = max(d_max, idx.shape[1])
        self._idx_pad = np.zeros((self.N, self.n_max, d_max), dtype=np.intp)
        self._w_pad = np.zeros((self.N, self.n_max, d_max), dtype=np.float64)
        for i, (idx, w) in enumerate(per_instance):
            if idx.shape[1]:
                self._idx_pad[i, :, : idx.shape[1]] = idx
                self._w_pad[i, :, : w.shape[1]] = w
        self._add_idx = [
            [
                np.array([e for e, _ in rows[s]], dtype=np.intp)
                for s in range(self.n_max)
            ]
            for rows in term_rows
        ]
        e_max = max(num_elements, default=0)
        self._e_max = e_max
        # Dense per-(instance, slot) cover counts, padded to e_max.
        # Counts are integers: arithmetic maintenance is exact (the same
        # argument as CoverageEvaluator/AreaEvaluator).
        self._count_state = np.zeros(
            (self.N, self.T, max(e_max, 1)), dtype=np.int64
        )

    def _on_apply(self, index: int, slot: int) -> None:
        sensor = self._last_added[index][slot]
        idx = self._add_idx[index][sensor]
        if idx.size:
            # Each sensor's element list has no duplicates (it came
            # from a frozenset), so a fancy-indexed += is exact.
            self._count_state[index, slot, idx] += 1

    def apply(self, index: int, sensor: int, slot: int) -> None:
        self._last_added[index][slot] = sensor
        super().apply(index, sensor, slot)

    def _masked_sums(
        self, rows: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """``(B, n_max)`` of sequential sums of weights over uncovered
        elements, zeros interleaved for covered/padded ones."""
        if self._idx_pad.shape[2] == 0:
            return np.zeros((len(rows), self.n_max), dtype=np.float64)
        idx = self._idx_pad[rows]  # (B, n_max, d)
        w = self._w_pad[rows]
        b_index = np.arange(len(rows), dtype=np.intp)[:, None, None]
        gathered = counts[b_index, idx]  # (B, n_max, d)
        terms = w * (gathered == 0)
        return np.cumsum(terms, axis=-1)[..., -1]

    def _initial(self) -> np.ndarray:
        rows = np.arange(self.N, dtype=np.intp)
        counts = self._count_state[:, 0, :]
        return self._masked_sums(rows, counts)

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        slots = np.array([t for _, t in pairs], dtype=np.intp)
        counts = self._count_state[rows, slots]
        return self._masked_sums(rows, counts)


class CoverageKernel(_MaskedSumKernel):
    """Weighted set coverage: per-element cover counters, gains summed in
    each sensor's ``covers[v]`` frozenset iteration order."""

    family = "coverage"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        term_rows: List[List[List[Tuple[int, float]]]] = []
        num_elements: List[int] = []
        for problem in batch.problems:
            fn = problem.utility
            order = sorted(fn._weights)
            dense = {e: j for j, e in enumerate(order)}
            rows: List[List[Tuple[int, float]]] = []
            for s in range(self.n_max):
                if s < problem.num_sensors and s in fn._covers:
                    # Snapshot the frozenset's iteration order once; it
                    # is stable per object, so the cumsum reduction
                    # replays the serial generator's order every query.
                    rows.append(
                        [
                            (dense[e], fn._weights[e])
                            for e in fn._covers[s]
                        ]
                    )
                else:
                    rows.append([])
            term_rows.append(rows)
            num_elements.append(len(order))
        self._finish_build(term_rows, num_elements)


class AreaKernel(_MaskedSumKernel):
    """Area coverage: identical machinery over subregion cells, with
    weights ``subregions[cid].weighted_area`` in ``cells_of_sensor``
    tuple order."""

    family = "area"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        term_rows: List[List[List[Tuple[int, float]]]] = []
        num_elements: List[int] = []
        for problem in batch.problems:
            fn = problem.utility
            rows: List[List[Tuple[int, float]]] = []
            for s in range(self.n_max):
                cells = (
                    fn._cells_of_sensor.get(s, ())
                    if s < problem.num_sensors
                    else ()
                )
                rows.append(
                    [
                        (cid, fn._subregions[cid].weighted_area)
                        for cid in cells
                    ]
                )
            term_rows.append(rows)
            num_elements.append(len(fn._subregions))
        self._finish_build(term_rows, num_elements)


class TargetSystemKernel(BatchKernel):
    """Eq. 1 sums of per-target detection gains.

    Per mutation the whole per-target miss vector is refreshed through
    ``DetectionUtility.miss_probability`` on fresh ``S & V(O_i)``
    intersections of the same objects -- the exact
    ``TargetSystemEvaluator._rebuild`` sequence.  Gains gather the miss
    vector by each sensor's target list and reduce sequentially via the
    masked cumsum.
    """

    family = "target-system"

    def __init__(self, batch: InstanceBatch):
        super().__init__(batch)
        self._systems = [p.utility for p in batch.problems]
        self._children = [
            [fn.target_utility(i) for i in range(fn.num_targets)]
            for fn in self._systems
        ]
        self._m = [fn.num_targets for fn in self._systems]
        m_max = max(self._m, default=0)
        g_rows: List[List[List[Tuple[int, float]]]] = []
        g_max = 0
        for i, problem in enumerate(batch.problems):
            fn = self._systems[i]
            rows: List[List[Tuple[int, float]]] = []
            for s in range(self.n_max):
                tids = (
                    fn._targets_of_sensor.get(s, ())
                    if s < problem.num_sensors
                    else ()
                )
                rows.append(
                    [
                        (tid, self._children[i][tid]._probabilities[s])
                        for tid in tids
                    ]
                )
                g_max = max(g_max, len(tids))
            g_rows.append(rows)
        self._tids_pad = np.zeros((self.N, self.n_max, g_max), dtype=np.intp)
        self._probs_pad = np.zeros(
            (self.N, self.n_max, g_max), dtype=np.float64
        )
        for i, rows in enumerate(g_rows):
            for s, row in enumerate(rows):
                for j, (tid, p) in enumerate(row):
                    self._tids_pad[i, s, j] = tid
                    self._probs_pad[i, s, j] = p
        # miss(empty & V(O_i)) == 1.0 for every target.
        self._miss_state = np.ones(
            (self.N, self.T, max(m_max, 1)), dtype=np.float64
        )

    def _on_apply(self, index: int, slot: int) -> None:
        fn = self._systems[index]
        active = self._active[index][slot]
        children = self._children[index]
        for tid in range(self._m[index]):
            self._miss_state[index, slot, tid] = children[
                tid
            ].miss_probability(active & fn._coverage[tid])

    def _gains_for(self, rows: np.ndarray, miss: np.ndarray) -> np.ndarray:
        if self._tids_pad.shape[2] == 0:
            return np.zeros((len(rows), self.n_max), dtype=np.float64)
        tids = self._tids_pad[rows]
        probs = self._probs_pad[rows]
        b_index = np.arange(len(rows), dtype=np.intp)[:, None, None]
        terms = probs * miss[b_index, tids]
        return np.cumsum(terms, axis=-1)[..., -1]

    def _initial(self) -> np.ndarray:
        rows = np.arange(self.N, dtype=np.intp)
        return self._gains_for(rows, self._miss_state[:, 0, :])

    def _columns(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        slots = np.array([t for _, t in pairs], dtype=np.intp)
        return self._gains_for(rows, self._miss_state[rows, slots])


_KERNELS: Dict[str, type] = {
    "detection": DetectionKernel,
    "homogeneous-detection": HomogeneousDetectionKernel,
    "logsum": LogSumKernel,
    "coverage": CoverageKernel,
    "area": AreaKernel,
    "target-system": TargetSystemKernel,
}


def make_kernel(batch: InstanceBatch) -> BatchKernel:
    """The family kernel for a built batch."""
    return _KERNELS[batch.family](batch)

"""Array-native batched solving: many instances, one vectorized pass.

The serve batcher coalesces *duplicate* requests onto one solve, but
distinct instances -- the dominant shape of high-traffic serving --
were still solved one at a time.  This package adds the cross-instance
fast path:

- :class:`~repro.batched.batch.InstanceBatch` -- a struct-of-arrays
  view over a group of problems (padded sensor x slot masks and real
  sensor counts), built once per batch;
- :mod:`~repro.batched.kernels` -- one vectorized marginal-gain kernel
  per family that pays for itself (detection, homogeneous detection,
  logsum, target-system), evaluating whole gain columns for every
  instance of the batch in one numpy pass.  Weighted coverage and area
  have no kernel: a serial solve beat their masked-sum kernels, so they
  solve serially by design;
- :func:`~repro.batched.greedy.batched_greedy` -- a lockstep driver
  advancing all instances one placement per round, with per-instance
  termination masks;
- :func:`~repro.batched.greedy.solve_batch` -- the executor-facing
  entry point, returning :class:`~repro.core.solver.SolveResult`
  objects **bit-for-bit identical** to a serial ``solve(...)`` loop.

Bit-exactness is the contract, not an aspiration.  The kernels hold no
family state of their own: they drive one serial incremental evaluator
per ``(instance, slot)`` and vectorize only the gain read over its
cached scalar, so the running state is the serial path's by
construction.  The gain expressions reduce in the serial order (the
masked-cumsum identity ``x + 0.0 == x``) and avoid numpy's
transcendental ufuncs -- ``np.log1p``/``np.expm1`` are not bit-equal to
the ``math`` module's libm calls on every platform.
"""

from __future__ import annotations

from repro.batched.batch import InstanceBatch, batchable
from repro.batched.greedy import batched_greedy, solve_batch

__all__ = [
    "InstanceBatch",
    "batchable",
    "batched_greedy",
    "solve_batch",
]

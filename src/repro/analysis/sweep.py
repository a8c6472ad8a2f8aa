"""Parameter-sweep harness: grids of instances, methods, seeds.

The benchmark modules each hand-roll a small sweep; this harness is the
general version for users: define a grid over (n, m, rho, p, method,
seed), run every cell, and collect tidy records ready for tabulation or
export.  Geometric and random-bipartite workload generators are
provided; custom generators plug in as callables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.core.solver import SolveResult

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.runtime.cache import ScheduleCache
from repro.coverage.deployment import uniform_deployment
from repro.coverage.matrix import ensure_coverable
from repro.coverage.sensing import DiskSensingModel
from repro.energy.period import ChargingPeriod
from repro.utility.detection import HomogeneousDetectionUtility
from repro.utility.target_system import TargetSystem

#: A workload generator: (n, m, p, seed) -> utility function.
WorkloadFn = Callable[[int, int, float, int], Any]


def single_target_workload(n: int, m: int, p: float, seed: int):
    """All sensors cover one implicit target (Fig. 8(a) setting)."""
    return HomogeneousDetectionUtility(range(n), p=p)


def geometric_workload(
    n: int, m: int, p: float, seed: int, radius: float = 21.0
):
    """Uniform deployment + disk sensing (Fig. 9 setting)."""
    sensing = DiskSensingModel(radius=radius, p=p)
    deployment = ensure_coverable(
        uniform_deployment(num_sensors=n, num_targets=m, rng=seed), sensing
    )
    from repro.coverage.matrix import coverage_sets

    return TargetSystem.homogeneous_detection(
        coverage_sets(deployment, sensing), p=p
    )


def bipartite_workload(
    n: int, m: int, p: float, seed: int, cover_prob: float = 0.3
):
    """Random bipartite coverage at a fixed density."""
    rng = np.random.default_rng(seed)
    covers = []
    for _ in range(m):
        cover = {v for v in range(n) if rng.random() < cover_prob}
        if not cover:
            cover = {int(rng.integers(n))}
        covers.append(frozenset(cover))
    return TargetSystem.homogeneous_detection(covers, p=p)


WORKLOADS: Dict[str, WorkloadFn] = {
    "single-target": single_target_workload,
    "geometric": geometric_workload,
    "bipartite": bipartite_workload,
}


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiment cells."""

    sensor_counts: Sequence[int] = (50,)
    target_counts: Sequence[int] = (5,)
    rhos: Sequence[float] = (3.0,)
    ps: Sequence[float] = (0.4,)
    methods: Sequence[str] = ("greedy",)
    seeds: Sequence[int] = (0,)
    workload: str = "bipartite"
    num_periods: int = 1

    def cells(self) -> Iterable[Dict[str, Any]]:
        for n, m, rho, p, method, seed in itertools.product(
            self.sensor_counts,
            self.target_counts,
            self.rhos,
            self.ps,
            self.methods,
            self.seeds,
        ):
            yield {
                "n": n,
                "m": m,
                "rho": rho,
                "p": p,
                "method": method,
                "seed": seed,
            }


@dataclass
class SweepRecord:
    """One cell's outcome."""

    params: Dict[str, Any]
    result: SolveResult

    def as_row(self) -> Dict[str, Any]:
        row = dict(self.params)
        row["total_utility"] = self.result.total_utility
        row["avg_slot_utility"] = self.result.average_slot_utility
        row["avg_per_target"] = self.result.average_utility_per_target
        row["solve_seconds"] = self.result.solve_seconds
        return row


def run_sweep(
    spec: SweepSpec,
    workload_fn: Optional[WorkloadFn] = None,
    jobs: Optional[int] = None,
    cache: Optional["ScheduleCache"] = None,
) -> List[SweepRecord]:
    """Run every cell of the grid; returns one record per cell.

    ``workload_fn`` overrides the named workload in the spec.

    Cells are solved through :func:`repro.runtime.executor.solve_many`:
    ``jobs`` farms unique solves across worker processes, and ``cache``
    (a :class:`~repro.runtime.cache.ScheduleCache`) deduplicates
    identical ``(problem, method)`` cells -- e.g. a deterministic
    method swept over many seeds of a seed-independent workload solves
    once and fans out, instead of re-solving per pivot row.  Record
    order and contents match the serial, uncached run exactly.
    """
    if workload_fn is None:
        try:
            workload_fn = WORKLOADS[spec.workload]
        except KeyError:
            raise ValueError(
                f"unknown workload {spec.workload!r}; "
                f"available: {sorted(WORKLOADS)}"
            ) from None
    from repro.runtime.executor import solve_many

    cells = list(spec.cells())
    tasks = []
    for cell in cells:
        utility = workload_fn(cell["n"], cell["m"], cell["p"], cell["seed"])
        problem = SchedulingProblem(
            num_sensors=cell["n"],
            period=ChargingPeriod.from_ratio(cell["rho"]),
            utility=utility,
            num_periods=spec.num_periods,
        )
        tasks.append((problem, cell["method"], cell["seed"]))
    results, _ = solve_many(tasks, jobs=jobs, cache=cache)
    return [
        SweepRecord(params=cell, result=result)
        for cell, result in zip(cells, results)
    ]


def pivot(
    records: Sequence[SweepRecord],
    row_key: str,
    col_key: str,
    value: str = "avg_per_target",
) -> Dict[Any, Dict[Any, float]]:
    """Pivot sweep records into nested dicts (rows -> cols -> mean value).

    Cells with several records (e.g. multiple seeds) are averaged.
    """
    sums: Dict[Any, Dict[Any, List[float]]] = {}
    for record in records:
        row = record.as_row()
        sums.setdefault(row[row_key], {}).setdefault(row[col_key], []).append(
            row[value]
        )
    return {
        r: {c: float(np.mean(vals)) for c, vals in cols.items()}
        for r, cols in sums.items()
    }

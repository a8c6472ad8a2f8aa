"""Monte-Carlo batch runs: one policy, many seeds, aggregated statistics.

Stochastic simulations (random charging, events, failures) need
replication before their numbers mean anything.  :func:`run_batch`
executes a fresh (network, policy, models) triple per seed and
aggregates the headline metrics with confidence intervals; the factory
pattern keeps every replicate independent (no state leaks between
seeds).

Replicates are independent by construction, which also makes them the
ideal worker-pool payload: ``run_batch(..., jobs=4)`` farms the seeds
across processes through :mod:`repro.runtime.pool` and aggregates in
seed order, so the result is bit-for-bit identical to the serial run.
Factories must be picklable (module-level functions, partials or
callable objects) to actually run in workers; closures degrade
gracefully to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.stats import SeriesSummary, summarize_series
from repro.policies.base import ActivationPolicy
from repro.runtime.pool import TaskTelemetry, run_tasks
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.events import PoissonEventProcess
from repro.sim.network import SensorNetwork
from repro.sim.random_model import RandomChargingModel

#: A factory receives the replicate's seed and builds a fresh component.
NetworkFactory = Callable[[int], SensorNetwork]
PolicyFactory = Callable[[int], ActivationPolicy]
ChargingFactory = Callable[[int], Optional[RandomChargingModel]]
EventsFactory = Callable[[int], Optional[PoissonEventProcess]]


@dataclass
class BatchResult:
    """Aggregated outcome of a seed batch."""

    results: List[SimulationResult]
    utility: SeriesSummary  # average slot utility across seeds
    per_target_utility: SeriesSummary
    refused: SeriesSummary
    detection_rate: Optional[SeriesSummary]  # None when no event process
    telemetry: List[TaskTelemetry] = field(default_factory=list)

    @property
    def num_replicates(self) -> int:
        return len(self.results)

    def __str__(self) -> str:
        return (
            f"BatchResult(n={self.num_replicates}, "
            f"utility={self.utility.mean:.4f}"
            f"+/-{self.utility.std:.4f})"
        )


def _run_replicate(
    task: Tuple[
        NetworkFactory,
        PolicyFactory,
        Optional[ChargingFactory],
        Optional[EventsFactory],
        int,
        int,
    ],
) -> SimulationResult:
    """One replicate, self-contained so it can run in a pool worker."""
    network_factory, policy_factory, charging_factory, events_factory, \
        num_slots, seed = task
    network = network_factory(seed)
    policy = policy_factory(seed)
    charging = charging_factory(seed) if charging_factory else None
    events = events_factory(seed) if events_factory else None
    engine = SimulationEngine(
        network, policy, charging_model=charging, event_process=events
    )
    return engine.run(num_slots)


def run_batch(
    network_factory: NetworkFactory,
    policy_factory: PolicyFactory,
    num_slots: int,
    seeds: Sequence[int] = tuple(range(10)),
    charging_factory: Optional[ChargingFactory] = None,
    events_factory: Optional[EventsFactory] = None,
    jobs: Optional[int] = None,
) -> BatchResult:
    """Run one replicate per seed and aggregate.

    Each factory is invoked once per seed; returning fresh objects is
    the caller's responsibility (a shared mutable network across seeds
    would silently correlate the replicates -- the whole point of the
    factory interface is making that mistake hard).

    ``jobs`` farms the replicates across that many worker processes
    (results stay in seed order, so aggregates match the serial run
    exactly).  Factories that cannot be pickled fall back to serial
    execution -- check ``BatchResult.telemetry`` to see which path ran.
    """
    if num_slots < 0:
        raise ValueError(f"num_slots must be >= 0, got {num_slots}")
    if not seeds:
        raise ValueError("need at least one seed")
    tasks = [
        (
            network_factory,
            policy_factory,
            charging_factory,
            events_factory,
            num_slots,
            seed,
        )
        for seed in seeds
    ]
    results, telemetry = run_tasks(_run_replicate, tasks, jobs=jobs)

    utilities = [r.average_slot_utility for r in results]
    per_target = [r.average_utility_per_target for r in results]
    refused = [float(r.refused_activations) for r in results]
    detection = None
    if all(r.detection is not None for r in results) and results:
        detection = summarize_series(
            [r.detection.detection_rate for r in results]
        )
    return BatchResult(
        results=results,
        utility=summarize_series(utilities),
        per_target_utility=summarize_series(per_target),
        refused=summarize_series(refused),
        detection_rate=detection,
        telemetry=telemetry,
    )

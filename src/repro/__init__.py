"""repro -- reproduction of "Cool: On Coverage with Solar-Powered Sensors".

Tang, Li, Shen, Zhang, Dai, Das -- ICDCS 2011 (DOI 10.1109/ICDCS.2011.61).

The paper schedules the activation of solar-powered sensors so that a
non-decreasing submodular coverage utility, summed over targets and
time-slots, is maximized subject to recharge constraints.  This package
implements the full system:

- :mod:`repro.utility` -- submodular utility functions (detection,
  area coverage, log-sum) and the multi-target objective.
- :mod:`repro.coverage` -- deployments, sensing models, the coverage
  relation and the subregion arrangement.
- :mod:`repro.energy` -- battery, ACTIVE/PASSIVE/READY state machine,
  charging-period arithmetic (T_d, T_r, rho).
- :mod:`repro.solar` -- the simulated solar testbed: irradiance,
  weather, panel model, harvest estimation, synthetic traces.
- :mod:`repro.core` -- the schedulers: greedy hill-climbing (Alg. 1,
  1/2-approx), the rho <= 1 passive variant, LP relaxation + rounding,
  exact enumeration, baselines, bounds, and the Thm. 3.1 reduction.
- :mod:`repro.sim` -- slot-stepped network simulator with exact energy
  accounting, the Sec. V random charging model and event detection.
- :mod:`repro.policies` -- online activation policies, including the
  self-healing wrapper and the paper's future-work extensions.
- :mod:`repro.analysis` -- statistics and fixed-width report tables.
- :mod:`repro.runtime` -- parallel solve execution (process worker
  pool) and the content-addressed schedule cache.
- :mod:`repro.obs` -- observability: process-wide metrics registry
  with Prometheus/JSON exporters, deterministic span tracing and
  schema-versioned structured events.

Quickstart::

    import repro

    problem = repro.SchedulingProblem(
        num_sensors=20,
        period=repro.ChargingPeriod.paper_sunny(),   # T_d=15, T_r=45, rho=3
        utility=repro.HomogeneousDetectionUtility(range(20), p=0.4),
    )
    result = repro.solve(problem, method="greedy")
    print(result.average_slot_utility)
"""

from repro.core import (
    GreedyTrace,
    InfeasibleScheduleError,
    LpSolution,
    PeriodicSchedule,
    SchedulingProblem,
    SolveResult,
    UnrolledSchedule,
    greedy_passive_schedule,
    greedy_schedule,
    lp_relaxation,
    lp_schedule,
    optimal_schedule,
    single_target_upper_bound,
    solve,
)
from repro.coverage import (
    Deployment,
    DiskSensingModel,
    Point,
    Rectangle,
    compute_subregions,
    coverage_matrix,
    coverage_sets,
    uniform_deployment,
)
from repro.energy import Battery, ChargingPeriod, ChargingProfile, NodeState
from repro.solar import (
    DiurnalIrradiance,
    HarvestEstimator,
    SolarPanel,
    WeatherCondition,
    generate_node_trace,
)
from repro.runtime import (
    CacheStats,
    ScheduleCache,
    solve_cached,
    solve_fingerprint,
    solve_many,
)
from repro.utility import (
    AreaCoverageUtility,
    ConcaveOverModularUtility,
    DetectionUtility,
    HomogeneousDetectionUtility,
    KCoverageUtility,
    LogSumUtility,
    TargetSystem,
    UtilityFunction,
    k_coverage_system,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "SchedulingProblem",
    "PeriodicSchedule",
    "UnrolledSchedule",
    "InfeasibleScheduleError",
    "greedy_schedule",
    "greedy_passive_schedule",
    "GreedyTrace",
    "lp_schedule",
    "lp_relaxation",
    "LpSolution",
    "optimal_schedule",
    "single_target_upper_bound",
    "solve",
    "SolveResult",
    # utility
    "UtilityFunction",
    "DetectionUtility",
    "HomogeneousDetectionUtility",
    "AreaCoverageUtility",
    "LogSumUtility",
    "KCoverageUtility",
    "k_coverage_system",
    "ConcaveOverModularUtility",
    "TargetSystem",
    # coverage
    "Point",
    "Rectangle",
    "Deployment",
    "DiskSensingModel",
    "uniform_deployment",
    "coverage_sets",
    "coverage_matrix",
    "compute_subregions",
    # energy
    "Battery",
    "NodeState",
    "ChargingPeriod",
    "ChargingProfile",
    # solar
    "DiurnalIrradiance",
    "SolarPanel",
    "WeatherCondition",
    "HarvestEstimator",
    "generate_node_trace",
    # runtime
    "ScheduleCache",
    "CacheStats",
    "solve_cached",
    "solve_many",
    "solve_fingerprint",
]

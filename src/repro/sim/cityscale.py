"""City-scale scenario generator: heterogeneous fleets at constant density.

The fleet-scale benchmarks need instances that look like a city-wide
rooftop deployment rather than the paper's uniform lab setups: tens of
thousands of sensors at roughly constant spatial density, panels of
different sizes on different roofs, weather that varies by district,
and targets whose importance follows the diurnal demand curve of the
district they sit in.  :func:`city_scenario` builds exactly that from a
single seed, deterministically:

- **Constant density.**  The region is a square sized so sensor
  density stays fixed as ``n`` grows (side ``~ sqrt(n)``).  This is
  what makes the spatial grid index of
  :mod:`repro.coverage.spatial` pay off: each coverage query touches a
  bounded neighborhood regardless of fleet size.
- **Districts.**  The region is cut into a ``districts x districts``
  grid of weather cells.  Each district draws one
  :class:`~repro.solar.weather.WeatherCondition` and one diurnal
  demand peak hour.
- **Heterogeneous panels.**  Each node draws a
  :class:`~repro.solar.panel.SolarPanel` class (standard / large /
  compact).  Its recharge time under the district's weather --
  clear-sky irradiance through the condition's mean attenuation and
  charger derating -- is snapped to the nearest integer ``rho`` so the
  per-node :class:`~repro.energy.period.ChargingPeriod` satisfies the
  paper's integrality assumption.  Nodes whose period matches the
  shared base are left out of the override map.
- **Diurnal target weights.**  A target's weight is the demand curve
  of its district evaluated at the scenario hour -- districts peaking
  at 08:00 (commuter), 12:00 (commercial), 18:00 (residential) or
  22:00 (nightlife).

Everything downstream is the ordinary stack: coverage sets through the
spatial index, a :class:`~repro.utility.coverage_count.WeightedCoverageUtility`,
and a single :class:`~repro.sim.engine.SimulationEngine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.coverage.deployment import Deployment, make_rng, uniform_deployment
from repro.coverage.geometry import Point, Rectangle
from repro.coverage.matrix import coverage_sets
from repro.coverage.sensing import DiskSensingModel
from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.energy.period import ChargingPeriod
from repro.solar.panel import SolarPanel
from repro.solar.weather import WEATHER_ATTENUATION, WeatherCondition
from repro.utility.coverage_count import WeightedCoverageUtility

#: Sensors per unit area; fixed across fleet sizes so coverage queries
#: touch a bounded neighborhood at every ``n``.
DENSITY = 4.0

#: Sensing radius in region units (~ a rooftop sensor's reach).
SENSING_RADIUS = 1.0

#: Clear-sky irradiance (W/m^2) the weather attenuates.
CLEAR_SKY_IRRADIANCE = 1000.0

#: Mote battery capacity in joules (50 J: the default panel refills it
#: in ~45 min of sun, the paper's measured sunny T_r).
BATTERY_JOULES = 50.0

#: Shared base discharge time T_d in minutes (paper Sec. II-B example).
BASE_DISCHARGE_MINUTES = 15.0

#: The panel catalogue: (name, panel, sampling weight).  The standard
#: panel reproduces the paper's sunny rho = 3; large roofs fit a panel
#: that saturates twice as hard, compact retrofits harvest half.
PANEL_CLASSES: Tuple[Tuple[str, SolarPanel, float], ...] = (
    ("standard", SolarPanel(), 0.6),
    ("large", SolarPanel(panel_area=0.006, max_charge_power=0.037), 0.2),
    ("compact", SolarPanel(panel_area=0.0015, max_charge_power=0.009), 0.2),
)

#: District weather mix (roughly the sticky Markov chain's long run).
WEATHER_MIX: Tuple[Tuple[WeatherCondition, float], ...] = (
    (WeatherCondition.SUNNY, 0.5),
    (WeatherCondition.CLOUDY, 0.3),
    (WeatherCondition.RAINY, 0.2),
)

#: Candidate demand peaks (hour of day) a district can draw.
DEMAND_PEAKS: Tuple[float, ...] = (8.0, 12.0, 18.0, 22.0)

#: Relative swing of the diurnal demand curve around its mean.
DIURNAL_AMPLITUDE = 0.75


def diurnal_weight(hour: float, peak_hour: float) -> float:
    """The demand curve: a cosine peaking at ``peak_hour``, mean 1.

    Never drops below ``1 - DIURNAL_AMPLITUDE`` (> 0), so every target
    keeps a positive weight around the clock.
    """
    phase = 2.0 * math.pi * (hour - peak_hour) / 24.0
    return 1.0 + DIURNAL_AMPLITUDE * math.cos(phase)


def heterogeneous_period(
    panel: SolarPanel, condition: WeatherCondition
) -> ChargingPeriod:
    """The (T_d, T_r) a panel sustains under a weather condition.

    Mean attenuated irradiance through the charger (with the
    condition's derating), then the continuous recharge time snapped to
    the nearest integer ``rho >= 1`` -- the paper's integrality
    assumption, enforced by :class:`ChargingPeriod` itself.
    """
    params = WEATHER_ATTENUATION[condition]
    irradiance = CLEAR_SKY_IRRADIANCE * params.mean_attenuation
    power = panel.charge_power(irradiance) * params.charger_derating
    if power <= 0.0:
        # Charger never turns on: model as the slowest catalogued rho.
        rho = 48
    else:
        recharge_minutes = BATTERY_JOULES / (power * 60.0)
        rho = max(1, round(recharge_minutes / BASE_DISCHARGE_MINUTES))
    return ChargingPeriod(
        discharge_time=BASE_DISCHARGE_MINUTES,
        recharge_time=BASE_DISCHARGE_MINUTES * rho,
    )


@dataclass(frozen=True)
class District:
    """One weather/demand cell of the city grid."""

    cell: Tuple[int, int]
    condition: WeatherCondition
    peak_hour: float


@dataclass(frozen=True)
class CityScenario:
    """A generated fleet: deployment, utility, and heterogeneity maps.

    ``utility`` weights targets by their district's demand at ``hour``;
    ``node_periods`` holds only the nodes that differ from the shared
    ``period`` (standard panel, sunny district).
    """

    deployment: Deployment
    model: DiskSensingModel
    utility: WeightedCoverageUtility
    period: ChargingPeriod
    node_periods: Dict[int, ChargingPeriod]
    districts: Tuple[District, ...]
    panel_names: Tuple[str, ...]
    target_weights: Dict[int, float]
    hour: float

    @property
    def num_sensors(self) -> int:
        return self.deployment.num_sensors

    @property
    def num_targets(self) -> int:
        return self.deployment.num_targets

    def problem(self, num_periods: int = 1) -> SchedulingProblem:
        """The scheduling problem over the shared base period."""
        return SchedulingProblem(
            num_sensors=self.num_sensors,
            period=self.period,
            utility=self.utility,
            num_periods=num_periods,
        )

    def round_robin_schedule(self) -> PeriodicSchedule:
        """Sensor ``i`` active in slot ``i mod T``: the fixed schedule
        the throughput benchmarks execute (solver-independent, every
        node commanded once per period)."""
        T = self.period.slots_per_period
        return PeriodicSchedule(
            slots_per_period=T,
            assignment={i: i % T for i in range(self.num_sensors)},
            mode=ScheduleMode.ACTIVE_SLOT,
        )


def _district_of(
    point: Point, region: Rectangle, districts: int
) -> Tuple[int, int]:
    span_x = region.width or 1.0
    span_y = region.height or 1.0
    gx = min(int((point.x - region.x_min) / span_x * districts), districts - 1)
    gy = min(int((point.y - region.y_min) / span_y * districts), districts - 1)
    return (gx, gy)


def city_scenario(
    num_sensors: int,
    *,
    districts: int = 4,
    target_fraction: float = 0.1,
    hour: float = 12.0,
    seed: int = 0,
) -> CityScenario:
    """Generate a city fleet of ``num_sensors`` nodes, deterministically.

    Parameters
    ----------
    districts:
        The weather/demand grid is ``districts x districts``.
    target_fraction:
        Targets per sensor (default one target per ten sensors).
    hour:
        Hour of day at which target weights are evaluated.
    seed:
        Seeds deployment, weather, panel and peak-hour draws.
    """
    if num_sensors < 1:
        raise ValueError(f"num_sensors must be >= 1, got {num_sensors}")
    if districts < 1:
        raise ValueError(f"districts must be >= 1, got {districts}")
    if not 0.0 <= target_fraction:
        raise ValueError(f"target_fraction must be >= 0, got {target_fraction}")

    rng = make_rng(seed)
    side = math.sqrt(num_sensors / DENSITY)
    region = Rectangle.square(max(side, 2.0 * SENSING_RADIUS))
    num_targets = max(1, int(round(num_sensors * target_fraction)))
    deployment = uniform_deployment(
        num_sensors, num_targets=num_targets, region=region, rng=rng
    )
    model = DiskSensingModel(radius=SENSING_RADIUS)

    # Districts: one weather condition + one demand peak per cell.
    conditions = [c for c, _ in WEATHER_MIX]
    weights = [w for _, w in WEATHER_MIX]
    district_list: List[District] = []
    district_map: Dict[Tuple[int, int], District] = {}
    for gx in range(districts):
        for gy in range(districts):
            condition = conditions[int(rng.choice(len(conditions), p=weights))]
            peak = DEMAND_PEAKS[int(rng.choice(len(DEMAND_PEAKS)))]
            district = District(cell=(gx, gy), condition=condition, peak_hour=peak)
            district_list.append(district)
            district_map[(gx, gy)] = district

    # Panels, and per-node periods under the district weather.  One
    # bulk draw: per-node ``rng.choice`` calls would dominate scenario
    # generation at fleet sizes.
    panel_weights = [w for _, _, w in PANEL_CLASSES]
    panel_draws = rng.choice(
        len(PANEL_CLASSES), size=num_sensors, p=panel_weights
    )
    base_period = heterogeneous_period(
        PANEL_CLASSES[0][1], WeatherCondition.SUNNY
    )
    panel_names: List[str] = []
    node_periods: Dict[int, ChargingPeriod] = {}
    period_cache: Dict[Tuple[str, WeatherCondition], ChargingPeriod] = {}
    for i, sensor in enumerate(deployment.sensors):
        name, panel, _ = PANEL_CLASSES[int(panel_draws[i])]
        panel_names.append(name)
        district = district_map[_district_of(sensor, region, districts)]
        key = (name, district.condition)
        period = period_cache.get(key)
        if period is None:
            period = heterogeneous_period(panel, district.condition)
            period_cache[key] = period
        if period != base_period:
            node_periods[i] = period

    # Diurnal target weights from the district demand curves.
    target_weights: Dict[int, float] = {}
    for t, target in enumerate(deployment.targets):
        district = district_map[_district_of(target, region, districts)]
        target_weights[t] = diurnal_weight(hour, district.peak_hour)

    # Coverage through the spatial index (brute force for small fleets),
    # inverted to the sensor -> targets map the utility wants.
    sets = coverage_sets(deployment, model)
    covers: Dict[int, List[int]] = {j: [] for j in range(num_sensors)}
    for t, sensors in enumerate(sets):
        for j in sorted(sensors):
            covers[j].append(t)
    utility = WeightedCoverageUtility(covers, element_weights=target_weights)

    return CityScenario(
        deployment=deployment,
        model=model,
        utility=utility,
        period=base_period,
        node_periods=node_periods,
        districts=tuple(district_list),
        panel_names=tuple(panel_names),
        target_weights=target_weights,
        hour=hour,
    )

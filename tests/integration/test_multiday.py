"""Month-long end-to-end scenario: weather and failures.

The paper's deployed system ran 100 sensors for 30 days of real
weather.  This integration test runs the closest in-simulator
equivalent end to end and checks the high-level economics:

- mixed weather (Markov process) changes the effective charging rate
  day by day, and the static sunny plan degrades on cloudy days;
- injected failures degrade utility sub-linearly.
"""

import pytest

from repro.energy.period import ChargingPeriod
from repro.policies import GreedyPeriodicPolicy
from repro.sim import RandomChargingModel, SensorNetwork, SimulationEngine
from repro.sim.failures import FailureInjectedPolicy, FailurePlan
from repro.solar.weather import MarkovWeatherProcess, WeatherCondition
from repro.utility.detection import HomogeneousDetectionUtility

SUNNY = ChargingPeriod.paper_sunny()
N = 24
DAYS = 30
SLOTS_PER_DAY = 48  # 12 h of 15-min slots


class _WeatherChargingModel(RandomChargingModel):
    """Deterministic drain; recharge scaled by the day's weather."""

    _SCALE = {
        WeatherCondition.SUNNY: 1.0,
        WeatherCondition.CLOUDY: 0.5,
        WeatherCondition.RAINY: 0.25,
    }

    def __init__(self, daily_weather):
        super().__init__(SUNNY, arrival_rate=1.0, mean_duration=10.0, rng=0)
        self._daily = list(daily_weather)

    def drain_scale(self, slot):
        return 1.0

    def charge_scale(self, slot):
        day = min(slot // SLOTS_PER_DAY, len(self._daily) - 1)
        return self._SCALE[self._daily[day]]


@pytest.fixture(scope="module")
def month_weather():
    process = MarkovWeatherProcess(initial=WeatherCondition.SUNNY, rng=2024)
    return [WeatherCondition.SUNNY] + process.forecast(DAYS - 1)


def run_month(policy, weather, wrap=None):
    utility = HomogeneousDetectionUtility(range(N), p=0.4)
    network = SensorNetwork(N, SUNNY, utility)
    if wrap is not None:
        policy = wrap(policy)
    engine = SimulationEngine(
        network, policy, charging_model=_WeatherChargingModel(weather)
    )
    return engine.run(DAYS * SLOTS_PER_DAY)


class TestMonthLongRun:
    def test_weather_mix_is_nontrivial(self, month_weather):
        kinds = set(month_weather)
        assert len(kinds) >= 2, "the sampled month must contain weather changes"

    def test_static_plan_survives_but_degrades(self, month_weather):
        result = run_month(GreedyPeriodicPolicy(), month_weather)
        sunny_only = run_month(
            GreedyPeriodicPolicy(), [WeatherCondition.SUNNY] * DAYS
        )
        assert result.refused_activations > 0  # cloudy days bite
        assert 0 < result.total_utility < sunny_only.total_utility

    def test_failures_degrade_sublinearly(self, month_weather):
        horizon = DAYS * SLOTS_PER_DAY
        healthy = run_month(GreedyPeriodicPolicy(), month_weather)
        plan = FailurePlan.random_deaths(N, 0.25, horizon=horizon, rng=7)
        failed = run_month(
            GreedyPeriodicPolicy(),
            month_weather,
            wrap=lambda p: FailureInjectedPolicy(p, plan=plan),
        )
        lost_fraction = len(plan.deaths) / N
        retained = failed.total_utility / healthy.total_utility
        # Deaths happen midway on average, and coverage is redundant:
        # retained utility beats the naive 1 - lost share.
        assert retained > 1 - lost_fraction

    def test_utility_accounting_consistent(self, month_weather):
        result = run_month(GreedyPeriodicPolicy(), month_weather)
        series = result.accumulator.per_slot_series()
        assert series.shape == (DAYS * SLOTS_PER_DAY,)
        assert result.total_utility == pytest.approx(float(series.sum()))
        assert 0 <= series.min() and series.max() <= 1.0

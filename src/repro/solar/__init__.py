"""Solar harvesting model: the simulated substitute for the paper's testbed.

The paper's Sec. VI-A measures charging patterns of TelosB motes with
solar cells on a rooftop (Fig. 6/7): light strength over a day varies
widely, but the *charging voltage* stays nearly flat once harvesting
starts, so the recharge time ``T_r`` is effectively constant within a
day of stable weather.  We reproduce those measurements in software:

- :mod:`~repro.solar.irradiance` -- a clear-sky diurnal irradiance
  curve (sunrise/sunset, solar-noon peak).
- :mod:`~repro.solar.weather` -- weather conditions, attenuation
  factors and a Markov day-to-day weather process.
- :mod:`~repro.solar.panel` -- panel + charging-circuit model mapping
  light to charging current and regulated charging voltage.
- :mod:`~repro.solar.harvest` -- the short-window (2-hour) estimators
  for ``mu_r`` and ``rho`` that the scheduling layer consumes.
- :mod:`~repro.solar.trace` -- end-to-end synthetic testbed traces
  (time, light, voltage, battery) à la Fig. 7.
"""

from repro.solar.irradiance import DiurnalIrradiance
from repro.solar.weather import (
    WEATHER_ATTENUATION,
    MarkovWeatherProcess,
    WeatherCondition,
)
from repro.solar.panel import SolarPanel
from repro.solar.harvest import HarvestEstimator, estimate_period_from_trace
from repro.solar.trace import NodeTrace, TraceSample, generate_node_trace

__all__ = [
    "DiurnalIrradiance",
    "WeatherCondition",
    "WEATHER_ATTENUATION",
    "MarkovWeatherProcess",
    "SolarPanel",
    "HarvestEstimator",
    "estimate_period_from_trace",
    "TraceSample",
    "NodeTrace",
    "generate_node_trace",
]

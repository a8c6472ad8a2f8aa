"""Named charging profiles per weather condition (paper Sec. I, VI-A).

The paper measures one (T_d, T_r) pattern per weather condition and
"may choose different pattern each day for different weather
condition".  This module is the catalogue: a profile bundles the
measured discharge/recharge times with the weather they were measured
under, and ``examples/weather_adaptive.py`` looks up each day's profile
to compare against the period its harvest estimator recovers.

Measured anchor (Sec. VI-A, sunny): T_d = 15 min, T_r = 45 min, so
rho = 3 and the period is 4 slots of 15 minutes -- exactly the paper's
worked example "T = (3+1) x 15 = 60 minutes, L = 12 x 60 = 720 minutes".
The non-sunny profiles scale the recharge time by the attenuation the
solar model predicts for those conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.period import ChargingPeriod


@dataclass(frozen=True)
class ChargingProfile:
    """A (weather condition, charging period) pair."""

    name: str
    weather: str
    period: ChargingPeriod

    @property
    def rho(self) -> float:
        return self.period.rho

    def __str__(self) -> str:
        return f"{self.name} ({self.weather}): {self.period}"


PAPER_SUNNY = ChargingProfile(
    name="paper-sunny",
    weather="sunny",
    period=ChargingPeriod(discharge_time=15.0, recharge_time=45.0),
)

# Overcast roughly halves usable irradiance for a small panel, doubling
# the recharge time; heavy rain cuts it far more.  The discharge time is
# a property of the mote, not the weather, so it stays 15 min.
CLOUDY = ChargingProfile(
    name="cloudy",
    weather="cloudy",
    period=ChargingPeriod(discharge_time=15.0, recharge_time=90.0),
)

RAINY = ChargingProfile(
    name="rainy",
    weather="rainy",
    period=ChargingPeriod(discharge_time=15.0, recharge_time=180.0),
)

# A bright-summer profile where harvesting outpaces the duty-cycle drain:
# rho < 1, exercising the Sec. IV-B scheduler.
BRIGHT = ChargingProfile(
    name="bright",
    weather="bright",
    period=ChargingPeriod(discharge_time=45.0, recharge_time=15.0),
)

_PROFILES = {
    profile.name: profile for profile in (PAPER_SUNNY, CLOUDY, RAINY, BRIGHT)
}

_BY_WEATHER = {
    "sunny": PAPER_SUNNY,
    "cloudy": CLOUDY,
    "rainy": RAINY,
    "bright": BRIGHT,
}


def profile_by_name(name: str) -> ChargingProfile:
    """Look up a catalogued profile; raises ``KeyError`` with choices."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None


def profile_for_weather(weather: str) -> ChargingProfile:
    """The catalogued profile measured under the given weather condition."""
    try:
        return _BY_WEATHER[weather]
    except KeyError:
        raise KeyError(
            f"no profile for weather {weather!r}; available: {sorted(_BY_WEATHER)}"
        ) from None

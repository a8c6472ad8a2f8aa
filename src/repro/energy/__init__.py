"""Recharge/discharge energy model (paper Sec. II-B, Fig. 2).

Each sensor has a battery of capacity ``B`` that discharges at speed
``mu_d`` while ACTIVE and recharges at speed ``mu_r`` while PASSIVE;
fully charged sensors wait in READY with negligible drain.  The derived
quantities

- discharge time ``T_d = B / mu_d``,
- recharge time ``T_r = B / mu_r``,
- charging period ``T = T_r + T_d``,
- ratio ``rho = T_r / T_d``

drive the whole scheduling layer: after normalizing the slot length to
``T_d`` (rho >= 1) or ``T_r`` (rho < 1), a period spans ``rho + 1``
(resp. ``1 + 1/rho``) slots and each sensor can be ACTIVE at most one
slot per period (rho >= 1) or must be PASSIVE at least one slot per
period (rho <= 1).
"""

from repro.energy.battery import Battery
from repro.energy.states import IllegalTransition, NodeState
from repro.energy.period import ChargingPeriod, normalize_ratio
from repro.energy.profiles import (
    PAPER_SUNNY,
    ChargingProfile,
    profile_by_name,
    profile_for_weather,
)

__all__ = [
    "Battery",
    "NodeState",
    "IllegalTransition",
    "ChargingPeriod",
    "normalize_ratio",
    "ChargingProfile",
    "PAPER_SUNNY",
    "profile_by_name",
    "profile_for_weather",
]

"""The serving path never loads scipy or networkx.

``repro serve`` is restarted to recover from a crash, so the time until
it prints ``serving on`` is the outage, and importing scipy is most of
a cold start.  scipy is loaded by the first LP solve
(:mod:`repro.core.lp`) or confidence interval
(:mod:`repro.analysis.stats`) in a process; networkx only by
:mod:`repro.coverage.connectivity`.  Each case runs in a fresh
interpreter, since the test process itself may have loaded either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT_HEAVY = """
import json, sys
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
)
print(json.dumps({"heavy": heavy, "result": result}))
"""

SERVING_PATH = """
import repro
import repro.cli
import repro.serve.app
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.policies.schedule_policy import SchedulePolicy
from repro.sessions import SessionStore, delta_from_dict
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.detection import HomogeneousDetectionUtility

period = ChargingPeriod.from_ratio(3.0)
utility = HomogeneousDetectionUtility(range(8), p=0.4)
problem = SchedulingProblem(num_sensors=8, period=period, utility=utility)
solved = solve(problem, method="greedy")

store = SessionStore()
created = store.create(problem)
with store.checkout(created.session_id) as session:
    session.apply(delta_from_dict({"kind": "sensor-failed", "sensor": 1}))

engine = SimulationEngine(
    SensorNetwork(8, period, utility), SchedulePolicy(solved.schedule)
)
simulated = engine.run(4)
result = [solved.average_slot_utility, simulated.num_slots]
"""

LP_AND_CI = """
from repro.analysis.stats import mean_confidence_interval
from repro.core.lp import lp_schedule
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.utility.detection import HomogeneousDetectionUtility

problem = SchedulingProblem(
    num_sensors=6,
    period=ChargingPeriod.from_ratio(2.0),
    utility=HomogeneousDetectionUtility(range(6), p=0.4),
)
lp = lp_schedule(problem, rng=0)
lp.schedule.validate_feasible()
result = [lp.objective, list(mean_confidence_interval([1.0, 2.0, 4.0]))]
"""


def run_fresh(script: str, tmp_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    done = subprocess.run(
        [sys.executable, "-c", script + REPORT_HEAVY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_serving_path_loads_neither_scipy_nor_networkx(tmp_path):
    report = run_fresh(SERVING_PATH, tmp_path)
    assert report["heavy"] == []
    utility, slots = report["result"]
    assert utility > 0.0
    assert slots == 4


def test_lp_and_confidence_interval_load_scipy_on_first_use(tmp_path):
    report = run_fresh(LP_AND_CI, tmp_path)
    assert "scipy.optimize" in report["heavy"]
    assert "scipy.stats" in report["heavy"]
    objective, (mean, low, high) = report["result"]
    # Six identical sensors, T = 3: two per slot is integral and optimal,
    # 3 * (1 - 0.6**2).
    assert objective == pytest.approx(1.92, rel=1e-6)
    # t(0.975, df=2) = 4.302652729911275; sem = sqrt(7/3) / sqrt(3).
    half_width = 4.302652729911275 * (7.0 / 9.0) ** 0.5
    assert mean == pytest.approx(7.0 / 3.0)
    assert low == pytest.approx(7.0 / 3.0 - half_width, rel=1e-9)
    assert high == pytest.approx(7.0 / 3.0 + half_width, rel=1e-9)

"""Chaos harness runs: the robustness contract under seeded fault storms.

Each test drives real HTTP traffic through an embedded service with a
fault plan installed and asserts :func:`repro.faults.chaos.run_chaos`
found **zero contract violations**: every response was bit-identical
to a direct solve, honestly flagged degraded, or a structured 429/503.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import request_mix, run_chaos
from repro.faults.plan import FaultPlan


def plan(*specs: str, seed: int = 0) -> FaultPlan:
    return FaultPlan.from_cli_specs(list(specs), seed=seed)


def test_request_mix_is_deterministic():
    assert request_mix(20, seed=7) == request_mix(20, seed=7)
    assert request_mix(20, seed=7) != request_mix(20, seed=8)


@pytest.mark.slow
def test_clean_run_has_no_violations(tmp_path):
    report = run_chaos(
        plan(), requests=10, seed=0, cache_dir=str(tmp_path / "cache")
    )
    assert report["passed"], report["violations"]
    assert report["outcomes"]["ok"] == 10
    assert report["outcomes"]["degraded"] == 0


@pytest.mark.slow
def test_transient_solve_faults_never_corrupt_answers(tmp_path):
    report = run_chaos(
        plan("solve:error:p=0.4", seed=3),
        requests=25,
        seed=3,
        cache_dir=str(tmp_path / "cache"),
    )
    assert report["passed"], report["violations"]
    assert report["faults_fired"], "the plan never fired -- test is vacuous"
    outcomes = report["outcomes"]
    answered = outcomes["ok"] + outcomes["degraded"]
    assert answered + sum(outcomes["errors"].values()) == 25


@pytest.mark.slow
def test_torn_cache_writes_and_read_faults_are_absorbed(tmp_path):
    report = run_chaos(
        plan(
            "cache.write:torn-write:p=0.5",
            "cache.read:error:p=0.3",
            seed=5,
        ),
        requests=25,
        seed=5,
        cache_dir=str(tmp_path / "cache"),
    )
    assert report["passed"], report["violations"]
    assert report["faults_fired"]
    # Cache chaos must be invisible to clients: every request is a
    # clean, non-degraded, correct answer (the cache re-solves misses).
    assert report["outcomes"]["ok"] == 25


@pytest.mark.slow
def test_batcher_stalls_are_bounded_by_deadlines(tmp_path):
    report = run_chaos(
        plan("batcher.batch:sleep:delay=0.3,p=0.5", seed=11),
        requests=15,
        seed=11,
        request_timeout=5.0,
        cache_dir=str(tmp_path / "cache"),
    )
    assert report["passed"], report["violations"]


@pytest.mark.slow
def test_mixed_storm_fires_every_spec(tmp_path):
    # Both single-fault tests' rates at once; each spec must fire.  No
    # pool.task spec: run_chaos posts one request at a time and the
    # pool runs a lone task in-process, so a worker crash could never
    # fire here.  tests/runtime/test_pool_recovery.py crashes a worker.
    specs = ("solve:error:p=0.4", "cache.write:torn-write:p=0.5")
    report = run_chaos(
        plan(*specs, seed=17),
        requests=20,
        seed=17,
        cache_dir=str(tmp_path / "cache"),
    )
    assert report["passed"], report["violations"]
    assert sorted(report["faults_fired"]) == [
        str(index) for index in range(len(specs))
    ], report["faults_fired"]

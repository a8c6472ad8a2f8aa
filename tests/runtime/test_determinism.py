"""The runtime's core guarantee: jobs=N and cache temperature are
invisible in the results.

Every test here compares a parallel and/or cached execution against the
plain serial one and requires exact equality -- not approximate: the
subsystem's contract is bit-for-bit determinism.
"""

import pytest

from repro.analysis.sweep import SweepSpec, run_sweep
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.policies.greedy_periodic import GreedyPeriodicPolicy
from repro.runtime import ScheduleCache, solve_cached, solve_many
from repro.sim.batch import run_batch
from repro.sim.network import SensorNetwork
from repro.sim.random_model import RandomChargingModel
from repro.utility.detection import HomogeneousDetectionUtility

PERIOD = ChargingPeriod.paper_sunny()
N = 8


def network_factory(seed):
    return SensorNetwork(
        N, PERIOD, HomogeneousDetectionUtility(range(N), p=0.4)
    )


def policy_factory(seed):
    return GreedyPeriodicPolicy()


def charging_factory(seed):
    return RandomChargingModel(
        PERIOD, arrival_rate=0.5, mean_duration=1.0, rng=seed
    )


def make_problem(n=10, p=0.4):
    return SchedulingProblem(
        num_sensors=n,
        period=PERIOD,
        utility=HomogeneousDetectionUtility(range(n), p=p),
    )


def batch_signature(batch):
    """Everything a batch aggregates, as exact floats."""
    return (
        [r.average_slot_utility for r in batch.results],
        [r.refused_activations for r in batch.results],
        batch.utility.mean,
        batch.utility.std,
        batch.per_target_utility.mean,
        batch.refused.mean,
    )


class TestBatchDeterminism:
    def test_jobs_1_vs_jobs_4_identical_aggregates(self):
        kwargs = dict(
            network_factory=network_factory,
            policy_factory=policy_factory,
            num_slots=24,
            seeds=range(6),
            charging_factory=charging_factory,
        )
        serial = run_batch(jobs=1, **kwargs)
        parallel = run_batch(jobs=4, **kwargs)
        assert batch_signature(serial) == batch_signature(parallel)

    def test_parallel_batch_actually_used_workers(self, pool_engaged):
        batch = run_batch(
            network_factory,
            policy_factory,
            num_slots=8,
            seeds=range(4),
            jobs=2,
        )
        assert len(batch.telemetry) == 4
        # Seed 0 is the pool's serial probe; the rest ran in workers.
        assert all(t.parallel for t in batch.telemetry[1:])

    def test_closure_factories_fall_back_to_serial(self):
        batch = run_batch(
            network_factory,
            lambda seed: GreedyPeriodicPolicy(),
            num_slots=8,
            seeds=range(3),
            jobs=2,
        )
        assert batch.num_replicates == 3
        assert all(not t.parallel for t in batch.telemetry)


def sweep_signature(records):
    return [
        (
            r.params["n"],
            r.params["method"],
            r.params["seed"],
            r.result.total_utility,
            r.result.average_slot_utility,
            r.result.schedule.active_sets,
        )
        for r in records
    ]


class TestSweepDeterminism:
    SPEC = SweepSpec(
        sensor_counts=(8, 12),
        target_counts=(3,),
        methods=("greedy", "random"),
        seeds=(0, 1, 2),
        workload="bipartite",
    )

    def test_jobs_1_vs_jobs_4_identical_records(self):
        serial = run_sweep(self.SPEC, jobs=1)
        parallel = run_sweep(self.SPEC, jobs=4)
        assert sweep_signature(serial) == sweep_signature(parallel)

    def test_cold_vs_warm_cache_identical_records(self, tmp_path):
        baseline = run_sweep(self.SPEC)
        cache = ScheduleCache(directory=tmp_path)
        cold = run_sweep(self.SPEC, cache=cache)
        assert cache.stats.misses > 0
        warm = run_sweep(self.SPEC, cache=cache)
        assert sweep_signature(cold) == sweep_signature(baseline)
        assert sweep_signature(warm) == sweep_signature(baseline)

    def test_warm_sweep_serves_every_cell_from_cache(self, tmp_path):
        cache = ScheduleCache(directory=tmp_path)
        run_sweep(self.SPEC, cache=cache)
        stores_after_cold = cache.stats.stores
        run_sweep(self.SPEC, cache=cache)
        assert cache.stats.stores == stores_after_cold

    def test_deterministic_methods_deduplicate_across_seeds(self):
        # single-target workload ignores the seed, so (n, greedy) cells
        # repeat across the seed axis: one solve must serve them all.
        spec = SweepSpec(
            sensor_counts=(10,),
            methods=("greedy",),
            seeds=tuple(range(5)),
            workload="single-target",
        )
        cache = ScheduleCache()
        records = run_sweep(spec, cache=cache)
        assert len(records) == 5
        assert cache.stats.misses == 1
        assert len({sig[5] for sig in sweep_signature(records)}) == 1


class TestCacheCorrectness:
    def test_hit_equals_fresh_solve(self):
        cache = ScheduleCache()
        problem = make_problem()
        first, status_first = solve_cached(problem, cache=cache)
        again, status_again = solve_cached(problem, cache=cache)
        fresh = solve(problem, method="greedy")
        assert (status_first, status_again) == ("miss", "hit")
        assert again.schedule == fresh.schedule
        assert again.periodic == fresh.periodic
        assert again.total_utility == fresh.total_utility
        assert again.average_slot_utility == fresh.average_slot_utility

    def test_randomized_method_hits_only_same_seed(self):
        cache = ScheduleCache()
        problem = make_problem()
        solve_cached(problem, "random", rng=0, cache=cache)
        _result, status_other = solve_cached(
            problem, "random", rng=1, cache=cache
        )
        _result, status_same = solve_cached(
            problem, "random", rng=0, cache=cache
        )
        assert status_other == "miss"
        assert status_same == "hit"

    def test_randomized_hit_matches_fresh_seeded_solve(self):
        cache = ScheduleCache()
        problem = make_problem()
        solve_cached(problem, "random", rng=7, cache=cache)
        cached, status = solve_cached(problem, "random", rng=7, cache=cache)
        assert status == "hit"
        assert cached.schedule == solve(problem, "random", rng=7).schedule

    def test_uncacheable_inputs_still_solve(self):
        cache = ScheduleCache()
        problem = make_problem()
        result, status = solve_cached(problem, "random", rng=None, cache=cache)
        assert status == "uncached"
        assert result.schedule is not None
        assert cache.stats.lookups == 0


class TestSolveMany:
    def test_matches_serial_solve_loop(self):
        tasks = [
            (make_problem(8), "greedy", None),
            (make_problem(10), "round-robin", None),
            (make_problem(8), "random", 3),
        ]
        expected = [solve(p, m, rng=s) for p, m, s in tasks]
        for jobs in (None, 4):
            results, telemetry = solve_many(tasks, jobs=jobs)
            assert [r.schedule for r in results] == [
                e.schedule for e in expected
            ]
            assert [r.total_utility for r in results] == [
                e.total_utility for e in expected
            ]
            assert len(telemetry) == 3

    def test_duplicates_solved_once_and_fanned_out(self):
        # A sweep-shaped batch: a few instances crossed with a seed
        # axis, farmed with jobs=4 through a fresh cache.
        problems = [make_problem(n) for n in (8, 9, 10)]
        tasks = [(p, "greedy", seed) for seed in range(4) for p in problems]
        results, telemetry = solve_many(tasks, jobs=4, cache=ScheduleCache())
        assert [t.cache for t in telemetry] == ["miss"] * 3 + ["hit"] * 9
        assert [r.schedule for r in results] == [
            solve(p, m, rng=s).schedule for p, m, s in tasks
        ]

    def test_duplicate_results_do_not_alias(self):
        problem = make_problem(9)
        results, _ = solve_many([(problem, "greedy", 0), (problem, "greedy", 1)])
        results[0].extras["poked"] = 1.0
        assert "poked" not in results[1].extras

"""Tests for the parameter-sweep harness."""

import pytest

from repro.analysis.sweep import (
    SweepSpec,
    bipartite_workload,
    geometric_workload,
    pivot,
    run_sweep,
    single_target_workload,
)
from repro.utility.detection import HomogeneousDetectionUtility
from repro.utility.target_system import TargetSystem


class TestWorkloads:
    def test_single_target(self):
        fn = single_target_workload(10, 3, 0.4, seed=1)
        assert isinstance(fn, HomogeneousDetectionUtility)
        assert len(fn.ground_set) == 10

    def test_geometric(self):
        fn = geometric_workload(50, 5, 0.4, seed=1)
        assert isinstance(fn, TargetSystem)
        assert fn.num_targets <= 5  # uncoverable targets dropped

    def test_bipartite_every_target_covered(self):
        fn = bipartite_workload(20, 8, 0.4, seed=2)
        assert fn.num_targets == 8
        assert not fn.uncoverable_targets()

    def test_bipartite_seeded(self):
        a = bipartite_workload(20, 4, 0.4, seed=3)
        b = bipartite_workload(20, 4, 0.4, seed=3)
        assert [a.coverage_set(i) for i in range(4)] == [
            b.coverage_set(i) for i in range(4)
        ]


class TestSweep:
    def test_grid_size(self):
        spec = SweepSpec(
            sensor_counts=[10, 20],
            target_counts=[2],
            methods=["greedy", "random"],
            seeds=[0, 1, 2],
        )
        assert len(list(spec.cells())) == 12
        records = run_sweep(spec)
        assert len(records) == 12

    def test_records_have_metrics(self):
        spec = SweepSpec(sensor_counts=[8], seeds=[0])
        record = run_sweep(spec)[0]
        row = record.as_row()
        assert 0 <= row["avg_per_target"] <= 5.0
        assert row["method"] == "greedy"

    def test_unknown_workload_rejected(self):
        spec = SweepSpec(workload="nope")
        with pytest.raises(ValueError, match="unknown workload"):
            run_sweep(spec)

    def test_custom_workload_fn(self):
        spec = SweepSpec(sensor_counts=[6], seeds=[0])
        records = run_sweep(
            spec,
            workload_fn=lambda n, m, p, seed: HomogeneousDetectionUtility(
                range(n), p=p
            ),
        )
        assert len(records) == 1

    def test_greedy_dominates_random_in_sweep(self):
        spec = SweepSpec(
            sensor_counts=[30],
            target_counts=[5],
            methods=["greedy", "random"],
            seeds=[0, 1, 2],
        )
        table = pivot(run_sweep(spec), row_key="n", col_key="method")
        assert table[30]["greedy"] >= table[30]["random"] - 1e-9


class TestPivot:
    def test_averages_over_seeds(self):
        spec = SweepSpec(sensor_counts=[10], seeds=[0, 1, 2, 3])
        records = run_sweep(spec)
        table = pivot(records, row_key="n", col_key="method")
        values = [r.as_row()["avg_per_target"] for r in records]
        assert table[10]["greedy"] == pytest.approx(sum(values) / len(values))

    def test_pivot_keys(self):
        spec = SweepSpec(
            sensor_counts=[10, 20], rhos=[1.0, 3.0], seeds=[0]
        )
        table = pivot(run_sweep(spec), row_key="n", col_key="rho")
        assert set(table) == {10, 20}
        assert set(table[10]) == {1.0, 3.0}

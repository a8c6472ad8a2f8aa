"""Public-API hygiene: exports resolve, are documented, and stay stable."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.utility",
    "repro.coverage",
    "repro.energy",
    "repro.solar",
    "repro.core",
    "repro.sim",
    "repro.policies",
    "repro.analysis",
    "repro.io",
    "repro.runtime",
    "repro.obs",
]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} missing docstring"
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_public_items_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{package_name}.{name} undocumented"

    def test_public_classes_have_documented_methods(self):
        """Every public method on the core scheduling classes carries a
        docstring -- the deliverable's 'doc comments on every public
        item' requirement, spot-checked mechanically."""
        from repro import (
            PeriodicSchedule,
            SchedulingProblem,
            UnrolledSchedule,
            UtilityFunction,
        )

        for cls in (
            SchedulingProblem,
            PeriodicSchedule,
            UnrolledSchedule,
            UtilityFunction,
        ):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, property):
                    target = member.fget if isinstance(member, property) else member
                    assert inspect.getdoc(target), f"{cls.__name__}.{name} undocumented"


class TestMethodRegistry:
    def test_solver_methods_all_work_on_tiny_instance(self):
        from repro.core.solver import METHODS, solve

        problem = repro.SchedulingProblem(
            num_sensors=4,
            period=repro.ChargingPeriod.paper_sunny(),
            utility=repro.HomogeneousDetectionUtility(range(4), p=0.4),
        )
        for method in METHODS:
            result = solve(problem, method=method, rng=0)
            assert result.total_utility >= 0, method

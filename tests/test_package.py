"""Package-level consistency checks: exports, errors, metadata."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import errors

PACKAGES = [
    "repro",
    "repro.aggregates",
    "repro.algebra",
    "repro.bidding",
    "repro.budgets",
    "repro.core",
    "repro.engine",
    "repro.matching",
    "repro.metrics",
    "repro.plans",
    "repro.sharedsort",
    "repro.workloads",
]


def all_modules():
    names = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.append(f"{package_name}.{info.name}")
    return sorted(set(names))


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("module_name", all_modules())
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", all_modules())
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_version(self):
        assert repro.__version__ == "0.1.0"


class TestRemovedSurface:
    """A market is fixed for an engine's life (DESIGN.md section 14):
    there is no sharded engine, no plan maintainer and no per-advertiser
    view of the store to import."""

    @pytest.mark.parametrize(
        "module_name", ["repro.engine.sharded", "repro.plans.maintenance"]
    )
    def test_the_module_is_gone(self, module_name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)

    @pytest.mark.parametrize(
        "package_name,name",
        [
            ("repro.engine", "ShardedEngine"),
            ("repro.plans", "PlanMaintainer"),
            ("repro.core", "AdvertiserView"),
        ],
    )
    def test_the_name_is_not_exported(self, package_name, name):
        package = importlib.import_module(package_name)
        assert name not in getattr(package, "__all__", [])
        assert not hasattr(package, name)


class TestErrors:
    def test_hierarchy(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, Exception)
            if name != "ReproError":
                assert issubclass(exc, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.InvalidPlanError("x")

    def test_distinct_categories(self):
        assert not issubclass(errors.BudgetError, errors.InvalidPlanError)
        assert not issubclass(errors.AlgebraError, errors.BudgetError)

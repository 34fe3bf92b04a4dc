"""Package-level consistency checks: exports, errors, metadata."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors
from repro.engine import SharedAuctionEngine
from repro.reference import ReferenceEngine

_WALK = list(pkgutil.walk_packages(repro.__path__, "repro."))
MODULES = ["repro"] + sorted(info.name for info in _WALK)
PACKAGES = ["repro"] + sorted(info.name for info in _WALK if info.ispkg)


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", MODULES)
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_version(self):
        assert repro.__version__ == "0.1.0"


class TestRemovedSurface:
    """A market is fixed for an engine's life (DESIGN.md section 13):
    there is no sharded engine, no plan maintainer and no per-advertiser
    view of the store to import.  Nor is there a query-to-phrase
    rewriter: the paper assumes one, and the engine takes phrases."""

    @pytest.mark.parametrize(
        "module_name",
        ["repro.engine.sharded", "repro.plans.maintenance", "repro.matching"],
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


class TestNoDecayFamily:
    """One debt model (DESIGN.md section 5): an outstanding ad keeps
    its display CTR until the horizon.  The pluggable click-decay
    family, its per-ad accessors and the engines' ``decay`` knob are
    gone."""

    @pytest.mark.parametrize(
        "module_name", ["repro.budgets", "repro.budgets.outstanding"]
    )
    @pytest.mark.parametrize(
        "name",
        [
            "ClickDecayModel",
            "NoDecay",
            "GeometricDecay",
            "ExponentialDecay",
            "dead_elapsed",
        ],
    )
    def test_the_name_is_gone(self, module_name, name):
        module = importlib.import_module(module_name)
        assert name not in getattr(module, "__all__", [])
        assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "module_name,owner,name",
        [
            ("repro.budgets.outstanding", "", "OutstandingAd"),
            ("repro.budgets.outstanding", "OutstandingLedger", "decay"),
            ("repro.engine.budget_manager", "BudgetManager", "decay_varies"),
            ("repro.engine.budget_manager", "", "_DEAD_AFTER_MEMO"),
        ],
    )
    def test_the_attribute_is_gone(self, module_name, owner, name):
        target = importlib.import_module(module_name)
        if owner:
            target = getattr(target, owner)
        assert not hasattr(target, name)

    @pytest.mark.parametrize(
        "engine", [SharedAuctionEngine, ReferenceEngine],
        ids=["engine", "reference"],
    )
    def test_no_engine_takes_decay(self, engine):
        assert "decay" not in inspect.signature(engine.__init__).parameters


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

"""The reference stands apart from the engine it checks.

:mod:`repro.reference` may share the books, the click model, the exact
Section IV solver and the single-pass top-k with the engine -- the two
must draw the same random stream to be compared at all -- but none of
the machinery it is the oracle for: the columnar store and kernels
(:mod:`repro.core.columnar`), the shared plans (:mod:`repro.plans`), the
shared sort (:mod:`repro.sharedsort`), and of the engine's own module
nothing but the report types.
"""

from __future__ import annotations

import ast
import inspect

import repro.reference

FORBIDDEN = ("repro.core.columnar", "repro.plans", "repro.sharedsort")
FROM_THE_ENGINE = {"RoundReport", "EngineReport"}


def _imports():
    """``(module, names)`` of every import in the reference's source."""
    tree = ast.parse(inspect.getsource(repro.reference))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set()
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import hides its module"
            yield node.module, {alias.name for alias in node.names}


def test_the_reference_imports_none_of_what_it_checks():
    for module, names in _imports():
        assert not any(
            module == forbidden or module.startswith(forbidden + ".")
            for forbidden in FORBIDDEN
        ), f"the reference imports {module}"
        if module == "repro.engine.pipeline":
            assert names <= FROM_THE_ENGINE, names
        assert module not in ("repro.engine", "repro"), (
            f"{module} re-exports the engine's machinery"
        )


def test_the_import_walk_sees_the_imports():
    modules = {module for module, _ in _imports()}
    assert {"repro.engine.pipeline", "repro.budgets.throttle"} <= modules


def test_the_reference_is_small_enough_to_read_in_one_sitting():
    assert len(inspect.getsource(repro.reference).splitlines()) <= 400


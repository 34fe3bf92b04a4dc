"""Every name the benchmark of record patches still exists.

``benchmarks/e2e/spans.py`` records its spans from outside the program:
``installed()`` reads ``vars(owner)[attribute]`` for every row of its
``TARGETS`` table and rebinds it.  A refactor that renames or inlines
one of those attributes crashes the traced pass -- in the benchmark,
after the PR.  This test makes it fail in tier-1 instead.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

SPANS_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "e2e"
    / "spans.py"
)


@pytest.fixture(scope="module")
def spans():
    if not SPANS_PATH.exists():
        pytest.skip("benchmarks/e2e is not part of this checkout")
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(spans):
    assert spans.TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in spans.TARGETS
        if attribute not in vars(owner)
    ]
    assert not missing, f"benchmarks/e2e/spans.py patches {missing}"
    for owner, attribute, _, _ in spans.TARGETS:
        target = vars(owner)[attribute]
        if isinstance(target, classmethod):
            target = target.__func__
        assert callable(target), f"{owner}.{attribute} is not callable"

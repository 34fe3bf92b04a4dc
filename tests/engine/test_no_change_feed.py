"""The change feed is retired (DESIGN §13): churn reaches its consumers
by plain method calls.

``repro/engine/changefeed.py`` survives only as two inert classes that
``benchmarks/e2e/spans.py`` imports and patches; nothing else in the
package names it.
"""

from __future__ import annotations

import pathlib
import re

import repro.engine
from repro.engine import changefeed

SRC = pathlib.Path(repro.engine.__file__).resolve().parents[1]
SHIM = pathlib.Path(changefeed.__file__).resolve()
FEED_WORDS = re.compile(r"changefeed|ChangeFeed")


def test_nothing_in_src_names_the_feed():
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.resolve() != SHIM
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FEED_WORDS.search(line)
    ]
    assert not offenders


def test_repro_engine_does_not_export_it():
    assert not {"ChangeFeed", "Subscription", "changefeed"} & set(
        repro.engine.__all__
    )

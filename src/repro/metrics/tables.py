"""Plain-text experiment tables and counter-driven work columns.

Benchmarks print their series in a fixed-width format so the
bench_output log doubles as the reproduction record referenced from
EXPERIMENTS.md.  :func:`counter_table` and :func:`work_columns` turn a
:class:`repro.instrument.MetricsCollector` into the paper's Figure 4/5
style work accounting directly, so benchmarks report measured counters
instead of ad-hoc tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.instrument import MetricsCollector

__all__ = [
    "ExperimentTable",
    "format_table",
    "counter_table",
    "work_columns",
    "WORK_COLUMN_NAMES",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as an aligned fixed-width table.

    Floats are shown with four significant decimals; everything else via
    ``str``.
    """
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(v.rjust(widths[i]) for i, v in enumerate(row))
        for row in text_rows
    ]
    return "\n".join([line, separator, *body])


@dataclass
class ExperimentTable:
    """An accumulating table with a title, printed at the end of a bench.

    Attributes:
        title: Experiment identifier, e.g. ``"Fig.4: expected plan cost"``.
        headers: Column names.
        rows: Accumulated rows.
    """

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add(self, *values: object) -> None:
        """Append one row."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} columns, got {len(values)}"
            )
        self.rows.append(values)

    def render(self) -> str:
        """The table as printable text, preceded by its title."""
        return f"\n== {self.title} ==\n" + format_table(self.headers, self.rows)

    def show(self) -> None:
        """Print the table (used at the end of each benchmark module)."""
        print(self.render())


def counter_table(
    collector: "MetricsCollector",
    title: str = "Work counters",
    prefixes: Sequence[str] = (),
) -> ExperimentTable:
    """A two-column ``counter / value`` table from a collector.

    Args:
        collector: An enabled :class:`repro.instrument.MetricsCollector`.
        title: Table title.
        prefixes: Keep only counters whose name starts with one of these
            (e.g. ``("plan.", "ta.")``); empty keeps everything.

    Returns:
        The table, sorted by counter name.
    """
    table = ExperimentTable(title, ["counter", "value"])
    for name in sorted(collector.counters):
        if prefixes and not any(name.startswith(p) for p in prefixes):
            continue
        table.add(name, collector.counters[name])
    return table


WORK_COLUMN_NAMES: Tuple[str, ...] = (
    "nodes",
    "merges",
    "leaf scans",
    "scan entries",
    "operator pulls",
    "sorted accesses",
    "reused",
)
"""Headers matching :func:`work_columns`, mode-agnostic.

``nodes``/``merges``/``leaf scans`` carry Section II shared-plan work,
``scan entries`` the unshared baseline, ``operator pulls``/``sorted
accesses`` the Section III shared-sort pipeline, and ``reused`` the
columnar exec cache's reused fragments (nonzero only with ``--exec-cache``);
counters a mode does not touch render as 0, so rows from different
engine modes line up in one table (the Fig. 4/5 presentation).
"""


def work_columns(collector: "MetricsCollector") -> Tuple[int, ...]:
    """The canonical work columns of one run, from counters alone.

    Pairs with :data:`WORK_COLUMN_NAMES`; append these to a row alongside
    the experiment's own parameters.
    """
    from repro.instrument import names

    return (
        collector.counter(names.PLAN_NODES),
        collector.counter(names.PLAN_MERGES),
        collector.counter(names.PLAN_LEAF_SCANS),
        collector.counter(names.TOPK_SCAN_ENTRIES),
        collector.counter(names.SORT_OPERATOR_PULLS),
        collector.counter(names.TA_SORTED_ACCESSES),
        collector.counter(names.PLAN_NODES_REUSED),
    )


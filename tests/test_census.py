"""The module census: every module in ``src/repro`` is run by something.

A module earns its place in one of two ways (DESIGN §12).  Either
the engine reaches it -- it lies in the import closure of the entry
points below -- or a benchmark or example named in README's "What's
inside" table drives it to a paper result.  The walk reads imports the
way ``tests/test_reference.py`` does, from the source's AST:
``from X import Y`` means the module ``X.Y`` when there is one and
``X`` otherwise, a package ``__init__`` reached that way is walked too,
and importing ``a.b`` does not implicitly walk ``a``.

The engine's own closure is pinned by name (:data:`ENGINE_CLOSURE`),
walked the way Python imports: ``a.b`` loads ``a``'s ``__init__`` too,
so a package that re-exports its library drags it into every engine
user's process.

The same file keeps the docs' cross-references honest: every
``DESIGN §N`` and ``EXPERIMENTS EN`` citation names a heading that
exists, and every import in README's python blocks resolves.
"""

from __future__ import annotations

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.__main__",
    "repro.reference",
    "repro.engine.pipeline",
    "repro.serving.loop",
)


def _module_files():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@functools.lru_cache(maxsize=None)
def imported_modules(path):
    """The ``repro`` modules one file's source imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module:
            assert node.level == 0, f"{path}: a relative import hides its module"
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in MODULES:
                    found.add(submodule)
                elif node.module in MODULES:
                    found.add(node.module)
    return frozenset(found)


def closure(paths):
    """Every module reachable from the files ``paths`` by imports."""
    seen = set()
    stack = list(paths)
    while stack:
        for module in imported_modules(stack.pop()):
            if module not in seen:
                seen.add(module)
                stack.append(MODULES[module])
    return seen


ENGINE = closure(MODULES[name] for name in ENTRY_POINTS) | set(ENTRY_POINTS)


def census_rows(readme_text):
    """``(modules, drivers, run_by)`` of each row of the census table."""
    section = readme_text.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    module_column, run_by_column = header.index("Module"), header.index("Run by")
    rows = []
    for line in lines[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append(
            (
                re.findall(r"`(repro[\w.]*)`", cells[module_column]),
                re.findall(r"`([\w./-]+\.py)`", cells[run_by_column]),
                cells[run_by_column],
            )
        )
    return rows


ROWS = census_rows((ROOT / "README.md").read_text(encoding="utf-8"))


def owner(module, rows=ROWS):
    """The row whose module is the longest prefix of ``module``."""
    matches = [
        (len(name), index)
        for index, row in enumerate(rows)
        for name in row[0]
        if module == name or module.startswith(name + ".")
    ]
    return rows[max(matches)[1]] if matches else None


def unreached(rows=ROWS):
    """Modules outside the engine that their row's drivers do not reach."""
    missing = []
    for module in sorted(set(MODULES) - ENGINE - PACKAGES):
        row = owner(module, rows)
        drivers = [ROOT / driver for driver in row[1]] if row else []
        if module not in closure(drivers):
            missing.append(module)
    return missing


def idle_drivers(rows=ROWS):
    """Drivers that reach none of their row's modules outside the engine."""
    idle = []
    for row in rows:
        for driver in row[1]:
            reached = closure([ROOT / driver]) - ENGINE
            if not any(owner(module, rows) is row for module in reached):
                idle.append(driver)
    return idle


class TestCensus:
    def test_every_module_is_run_by_the_engine_or_a_driver(self):
        assert unreached() == []

    def test_every_module_has_a_row(self):
        assert [m for m in MODULES if m != "repro" and owner(m) is None] == []

    def test_every_row_names_modules_that_exist(self):
        for modules, _drivers, _run_by in ROWS:
            assert modules and set(modules) <= set(MODULES), modules

    def test_every_row_cites_a_result(self):
        for modules, _drivers, run_by in ROWS:
            assert re.search(r"\bE\d+\b|§", run_by), modules

    @pytest.mark.parametrize(
        "driver", sorted({driver for row in ROWS for driver in row[1]})
    )
    def test_every_driver_exists(self, driver):
        assert (ROOT / driver).is_file()

    def test_every_driver_reaches_its_rows_modules(self):
        assert idle_drivers() == []

    @pytest.mark.parametrize("package", sorted(PACKAGES))
    def test_a_package_init_defines_nothing(self, package):
        tree = ast.parse(MODULES[package].read_text(encoding="utf-8"))
        defined = [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        assert defined == [], f"{package} defines {defined}"

    def test_the_package_docstring_lists_the_census(self):
        listed = set(re.findall(r":mod:`(repro\.\w+)`", repro.__doc__))
        top_level = {
            ".".join(name.split(".")[:2]) for row in ROWS for name in row[0]
        }
        assert listed == top_level


class TestTheCensusBites:
    """The checks fail where they should, on doctored inputs."""

    def test_a_driver_that_does_not_import_its_module_is_idle(self):
        rows = [
            (["repro.algebra"], ["examples/quickstart.py"], "(E4)")
            if row[0] == ["repro.algebra"]
            else row
            for row in ROWS
        ]
        assert "repro.algebra.magmas" in unreached(rows)
        assert "examples/quickstart.py" in idle_drivers(rows)

    def test_a_module_without_a_row_is_unreached(self):
        rows = [row for row in ROWS if row[0] != ["repro.aggregates"]]
        assert "repro.aggregates.operators" in unreached(rows)


# --------------------------------------------------------------------
# the engine's import closure, pinned by name
# --------------------------------------------------------------------
def with_parents(module):
    """``module`` and the packages above it: ``a.b.c`` -> a, a.b, a.b.c."""
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def import_closure(names):
    """What importing the modules ``names`` may load, walked the way
    Python imports: every module also loads its parent packages'
    ``__init__``s, and their imports in turn."""
    seen = set()
    stack = [module for name in names for module in with_parents(name)]
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            for imported in imported_modules(MODULES[module]):
                stack.extend(with_parents(imported))
    return seen


ENGINE_ENTRY_POINTS = ("repro.engine.pipeline", "repro.serving.loop")

ENGINE_CLOSURE = {
    "repro": "the top package; holds __version__",
    "repro.errors": "the exception hierarchy every stage raises",
    "repro.core": "parent package of the store and the data model",
    "repro.core.advertiser": "the Advertiser the engine is built from",
    "repro.core.columnar": "the struct-of-arrays store and its top-k kernels",
    "repro.core.ctr": "the separable CTR model of the slots",
    "repro.core.money": "integer-cent bids and budgets",
    "repro.core.topk": "the TopKList a ranked phrase is reported as",
    "repro.budgets": "parent package of the ledgers and throttling",
    "repro.budgets.outstanding": "display-batch checks of the books",
    "repro.budgets.throttle": "the Section IV exact throttled bid",
    "repro.plans": "parent package of the fragment executor",
    "repro.plans.instance": "the aggregate queries the shared mode plans",
    "repro.plans.fragments": "Section II-D.1 fragments the executor ranks",
    "repro.plans.columnar_exec": "the shared mode's fragment executor",
    "repro.sharedsort": "parent package of the threshold kernel",
    "repro.sharedsort.columnar": "the shared-sort mode's lockstep TA kernel",
    "repro.engine": "re-exports the engine's classes",
    "repro.engine.pipeline": "SharedAuctionEngine: the entry point",
    "repro.engine.budget_manager": "the budget books",
    "repro.engine.click_model": "delayed clicks",
    "repro.engine.rounds": "round batching and its count checks",
    "repro.reference": "the layout='object' seam's ReferenceEngine",
    "repro.instrument": "re-exports the collector the stages report to",
    "repro.instrument.names": "the metric vocabulary",
    "repro.instrument.registry": "the collectors, NULL by default",
    "repro.instrument.trace": "the trace ring an enabled collector keeps",
    "repro.serving": "re-exports the serving loop and its traffic",
    "repro.serving.loop": "ServingEngine: the query-at-a-time entry point",
    "repro.serving.latency": "the served queries' latency summaries",
    "repro.serving.traffic": "seeded Poisson/Zipf query arrivals",
    "repro.workloads": "parent package of the traffic's distributions",
    "repro.workloads.distributions": "the Zipf and exponential draws",
}
"""The modules importing the engine and the serving loop may load, each
with why.  A module that joins this list is loaded by every user of the
engine; name it here, with its reason, or import it where it is run."""

LAZY_IN_ENGINE = {"repro.reference"}
"""Imported inside a function: only ``layout="object"`` loads it."""

# Only repro.engine, repro.serving and repro.instrument re-export; every
# name they import is in the pinned closure.
LIBRARY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.plans",
    "repro.sharedsort",
    "repro.budgets",
    "repro.workloads",
)


class TestEngineClosure:
    def test_the_closure_is_the_pinned_list(self):
        assert import_closure(ENGINE_ENTRY_POINTS) == set(ENGINE_CLOSURE)

    def test_the_walk_loads_parent_packages(self):
        assert import_closure(["repro.plans.fragments"]) == {
            "repro",
            "repro.errors",
            "repro.plans",
            "repro.plans.fragments",
            "repro.plans.instance",
        }

    def test_a_fresh_interpreter_loads_the_list_but_the_lazy_seam(self):
        code = (
            "import sys, repro.engine.pipeline, repro.serving.loop\n"
            "print(*sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'repro'))"
        )
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])),
        )
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()
        assert set(loaded) == set(ENGINE_CLOSURE) - LAZY_IN_ENGINE

    @pytest.mark.parametrize("package", LIBRARY_PACKAGES)
    def test_a_library_package_re_exports_nothing(self, package):
        tree = ast.parse(MODULES[package].read_text(encoding="utf-8"))
        imports = [
            node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == [], f"{package} imports at lines {imports}"


# --------------------------------------------------------------------
# README's code
# --------------------------------------------------------------------
def readme_imports():
    """``(module, names)`` of every import in README's python blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    found = []
    for block in re.findall(r"^```python\n(.*?)^```", text, re.S | re.M):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Import):
                found += [(alias.name, ()) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = tuple(alias.name for alias in node.names)
                found.append((node.module, names))
    return found


README_IMPORTS = readme_imports()


def test_readme_has_imports():
    assert len(README_IMPORTS) >= 10


@pytest.mark.parametrize(
    "module, names", README_IMPORTS, ids=[m for m, _ in README_IMPORTS]
)
def test_a_readme_import_resolves(module, names):
    imported = importlib.import_module(module)
    assert [n for n in names if not hasattr(imported, n)] == []


# --------------------------------------------------------------------
# citations
# --------------------------------------------------------------------
CITING = (
    sorted((SRC / "repro").rglob("*.py"))
    + sorted((ROOT / "tests").rglob("*.py"))
    + sorted((ROOT / "benchmarks").glob("*.py"))
    + sorted((ROOT / "examples").glob("*.py"))
    + [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "EXPERIMENTS.md",
        ROOT / "ROADMAP.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        ROOT / ".github" / "workflows" / "ci.yml",
    ]
)
_NUMBERS = r"(\d+(?:(?:,\s*|,?\s+and\s+|\s*[-–]\s*)\d+)*)"
DESIGN_CITATION = re.compile(
    r"DESIGN(?:\.md)?`?,?\s+(?:§\s*|sections?\s+)?" + _NUMBERS
)
EXPERIMENTS_CITATION = re.compile(
    r"EXPERIMENTS(?:\.md)?`?,?\s+(E\d+(?:(?:,\s*|,?\s+and\s+)E\d+)*)"
)


def _headings(name, pattern):
    text = (ROOT / name).read_text(encoding="utf-8")
    return set(re.findall(pattern, text, flags=re.MULTILINE))


DESIGN_SECTIONS = _headings("DESIGN.md", r"^## (\d+)\. ")
EXPERIMENTS_ENTRIES = _headings("EXPERIMENTS.md", r"^#+ (E\d+) ")


def _citations(path):
    text = " ".join(path.read_text(encoding="utf-8").split())
    text = text.replace("# ", " ")  # a citation broken over comment lines
    for match in DESIGN_CITATION.finditer(text):
        for number in re.findall(r"\d+", match.group(1)):
            yield "DESIGN", number
    for match in EXPERIMENTS_CITATION.finditer(text):
        for number in re.findall(r"E\d+", match.group(1)):
            yield "EXPERIMENTS", number


def test_the_headings_are_found():
    assert {"1", "4", "13"} <= DESIGN_SECTIONS
    assert {"E1", "E10", "E11", "E36"} <= EXPERIMENTS_ENTRIES


def test_every_citation_names_a_heading():
    dangling = [
        (str(path.relative_to(ROOT)), doc, number)
        for path in CITING
        if path.exists()
        for doc, number in _citations(path)
        if number not in (DESIGN_SECTIONS if doc == "DESIGN" else EXPERIMENTS_ENTRIES)
    ]
    assert dangling == []

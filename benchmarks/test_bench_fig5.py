"""E4 -- Figure 5: the complexity table, checked empirically.

Operators are classified from concrete Cayley tables: the axioms each
one satisfies are decided by brute force, and the profile picks its
row.  For the table's PTIME rows (non-associative operators), the
optimal shared plan is common-subexpression sharing after canonical
normalization: the hash-consed plan's node count equals the number of
distinct canonical subterms of a fixed query set, and the plan computes
every query's value under the concrete operator.  For the NP-complete
rows, the Theorem 2/3 reduction embeds set cover: optimal plan extra
cost decodes the exact minimum cover.  The benchmark times the
exhaustive optimal planner on a reduction instance (the operation the
table says cannot stay polynomial).
"""

from __future__ import annotations

import pytest

from repro.algebra.axioms import Axiom, AxiomProfile, SEMILATTICE_WITH_IDENTITY
from repro.algebra.complexity import Complexity, complexity_of, fig5_rows
from repro.algebra.expressions import Op, Var, balanced, right_deep
from repro.algebra.magmas import (
    FiniteMagma,
    cyclic_group,
    left_zero_band,
    min_semilattice,
    satisfied_axioms,
    subtraction_quasigroup,
)
from repro.metrics.tables import ExperimentTable
from repro.plans.optimal import optimal_plan
from repro.plans.reductions import set_cover_to_instance_closed
from repro.plans.set_cover import exact_min_set_cover
from repro.plans.syntactic import SyntacticPlan, count_distinct_subterms

# Two commutative, non-associative magmas on small carriers.
COMMUTATIVE_MAGMA = FiniteMagma(
    [[(a * b + 1) % 3 for b in range(3)] for a in range(3)], name="ab+1 mod 3"
)
MIDPOINT = FiniteMagma(
    [[(a + b) // 2 for b in range(4)] for a in range(4)], name="midpoint"
)

# (operator, witness, the row its axioms must land on)
OPERATORS = [
    ("top-k merge (k = 1)", min_semilattice(4), Complexity.NP_COMPLETE),
    ("sum (Abelian group)", cyclic_group(5), Complexity.NP_COMPLETE),
    ("commutative magma", COMMUTATIVE_MAGMA, Complexity.PTIME),
    ("commutative idempotent magma", MIDPOINT, Complexity.PTIME),
    ("quasigroup", subtraction_quasigroup(3), Complexity.PTIME),
    ("band (open)", left_zero_band(3), Complexity.UNKNOWN),
]

_A, _B, _C, _D = (Var(name) for name in "abcd")
# A fixed query set with sharing under every non-associative profile
# (a ⊕ b twice verbatim) and more under A4 (b ⊕ a) and A3 (a ⊕ a).
PTIME_QUERIES = {
    "q1": Op(Op(_A, _B), _C),
    "q2": Op(_C, Op(_B, _A)),
    "q3": balanced([_A, _B, _C, _D]),
    "q4": right_deep([_A, _B, _C, _D]),
    "q5": Op(Op(_A, _A), Op(_A, _B)),
}


def _evaluate(expr, magma, assignment):
    if isinstance(expr, Var):
        return assignment[expr.name]
    return magma.op(
        _evaluate(expr.left, magma, assignment),
        _evaluate(expr.right, magma, assignment),
    )


def _operator_nodes(expr):
    if isinstance(expr, Var):
        return 0
    return 1 + _operator_nodes(expr.left) + _operator_nodes(expr.right)


@pytest.mark.experiment("Fig5")
def test_fig5_table_and_reduction(benchmark):
    table = ExperimentTable(
        "Fig. 5 -- complexity of optimal shared aggregation",
        ["A1", "A2", "A3", "A4", "A5", "complexity"],
    )
    for row in fig5_rows():
        table.add(*row.pattern, row.complexity.value)
    table.show()

    # Concrete operators land on the right rows by the axioms their
    # Cayley tables satisfy.
    checks = ExperimentTable(
        "Operator classification",
        ["operator", "witness", "profile", "complexity"],
    )
    for name, magma, want in OPERATORS:
        profile = satisfied_axioms(magma)
        got = complexity_of(profile)
        checks.add(name, magma.name, repr(profile), got.value)
        assert got is want
    checks.show()
    assert satisfied_axioms(min_semilattice(4)) == SEMILATTICE_WITH_IDENTITY

    # NP-complete row witnessed by the reduction: optimal extra cost
    # decodes the minimum set cover exactly (Theorems 2/3).
    universe = frozenset(range(6))
    collection = [
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
        frozenset({0, 2}),
        frozenset({1, 3}),
    ]
    instance = set_cover_to_instance_closed(universe, collection)
    min_cover = exact_min_set_cover(universe, collection)

    def solve():
        return optimal_plan(instance)

    plan = benchmark(solve)
    assert plan.extra_cost == len(min_cover) - 2

    reduction = ExperimentTable(
        "Theorem 2/3 reduction check",
        ["universe", "collection", "min cover", "optimal extra cost"],
    )
    reduction.add(len(universe), len(collection), len(min_cover), plan.extra_cost)
    reduction.show()


@pytest.mark.experiment("Fig5")
def test_fig5_exhaustive_profile_coverage(benchmark):
    """Every one of the 32 axiom profiles is classified consistently:
    matched rows are unique, and unmatched profiles are exactly the
    paper's open cases (A1=Y, A4=N)."""

    def classify_all():
        out = {}
        for mask in range(32):
            profile = AxiomProfile(
                {a for i, a in enumerate(Axiom) if mask >> i & 1}
            )
            out[profile] = complexity_of(profile)
        return out

    results = benchmark(classify_all)
    for profile, complexity in results.items():
        matches = [r for r in fig5_rows() if r.matches(profile)]
        assert len(matches) <= 1
        if complexity is Complexity.UNKNOWN:
            assert profile.associative and not profile.commutative
        else:
            assert matches and matches[0].complexity is complexity


@pytest.mark.experiment("Fig5")
def test_fig5_ptime_rows_share_by_hash_consing(benchmark):
    """Without A1 a plan's shape is forced, so hash-consing canonical
    subterms is optimal: the plan's cost is the distinct-subterm count,
    below the unshared operator count, and the plan evaluates every
    query as the operator does."""
    unshared = sum(_operator_nodes(expr) for expr in PTIME_QUERIES.values())
    table = ExperimentTable(
        "PTIME rows: hash-consed plan cost",
        ["witness", "profile", "plan cost", "distinct subterms", "unshared"],
    )
    ptime = [
        (magma, satisfied_axioms(magma))
        for _name, magma, want in OPERATORS
        if want is Complexity.PTIME
    ]
    for magma, profile in ptime:
        plan = SyntacticPlan(PTIME_QUERIES, profile)
        distinct = count_distinct_subterms(PTIME_QUERIES, profile)
        table.add(magma.name, repr(profile), plan.optimal_cost, distinct, unshared)
        assert plan.optimal_cost == distinct < unshared
        assignment = {name: index % magma.order for index, name in enumerate("abcd")}
        assert plan.evaluate(magma.op, assignment) == {
            name: _evaluate(expr, magma, assignment)
            for name, expr in PTIME_QUERIES.items()
        }
    table.show()

    _magma, profile = ptime[0]
    benchmark(SyntacticPlan, PTIME_QUERIES, profile)

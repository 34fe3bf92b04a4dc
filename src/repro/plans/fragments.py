"""Fragment identification -- stage 1 of the planning heuristic.

Section II-D.1: associate with each variable the bit string recording
which query expressions it occurs in, and group variables with identical
bit strings.  The groups are equivalence classes called *fragments*
(after Krishnamurthy, Wu & Franklin's on-the-fly stream sharing).
Aggregating within a fragment is always safe -- no sharing boundary ever
splits a fragment -- and already provides basic multi-query optimization
because no fragment is computed twice.

Although there are ``2^m`` possible bit strings for ``m`` queries, at
most ``n`` fragments are non-empty for ``n`` variables; grouping is a
hash of bit strings, each kept sparse as its set bits' query indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Tuple

from repro.plans.instance import SharedAggregationInstance

__all__ = ["Fragment", "identify_fragments", "fragment_cover_counts"]

Variable = Hashable


@dataclass(frozen=True)
class Fragment:
    """An equivalence class of variables occurring in the same queries.

    Attributes:
        variables: The variables in the class.
        query_names: Names of the queries the fragment belongs to, in the
            instance's query order: the set bits of the Section II-D.1
            membership bit string.
    """

    variables: FrozenSet[Variable]
    query_names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.variables)


def identify_fragments(instance: SharedAggregationInstance) -> List[Fragment]:
    """Group the instance's variables into fragments.

    Variables that occur in *no* non-trivial query (they appear only in
    trivial single-variable queries) are excluded: they need no
    aggregation.  Fragments are returned sorted by membership bit string
    (as a bool tuple), descending, for determinism.

    Each variable is keyed by the ascending tuple of the query indices it
    occurs in, built in one pass over the query memberships (``O(sum_q
    |X_q|)`` instead of ``O(m * n)`` set probes).  Sorting the keys by
    ``indices + (m,)`` ascending is the descending bool-tuple order: at
    the first index where two keys differ, the smaller index is the
    query only the first key's bit string holds, and the sentinel ``m``
    puts a key after every key it is a proper prefix of.
    """
    queries = instance.queries
    num_queries = len(queries)
    indices_of: Dict[Variable, List[int]] = {}
    for index, query in enumerate(queries):
        for variable in query.variables:
            indices_of.setdefault(variable, []).append(index)
    groups: Dict[Tuple[int, ...], List[Variable]] = {}
    for variable, indices in indices_of.items():
        groups.setdefault(tuple(indices), []).append(variable)
    name_of = [q.name for q in queries].__getitem__
    return [
        Fragment(frozenset(groups[indices]), tuple(map(name_of, indices)))
        for indices in sorted(groups, key=lambda key: key + (num_queries,))
    ]


def fragment_cover_counts(
    instance: SharedAggregationInstance, fragments: List[Fragment]
) -> Dict[str, int]:
    """Number of fragments making up each query's variable set.

    Because fragments partition each query's variables exactly, query
    ``q`` is the disjoint union of the fragments whose
    :attr:`Fragment.query_names` hold ``q``; the count is the size of
    the (unique) exact cover of ``X_q`` by fragments.  This is the
    starting value of ``|C_q|`` for the greedy completion stage.
    """
    counts = {q.name: 0 for q in instance.queries}
    for fragment in fragments:
        for name in fragment.query_names:
            counts[name] += 1
    return counts

"""The Fig. 4 experiment protocol.

The paper's only quantitative experiment: "Figure 4 shows an example of
the savings provided in a set of 10 top-k queries over 20 advertisers.
The queries were chosen by flipping coins to determine whether each
advertiser would be in the list of top-k contenders, discarding
duplicate queries."  The x-axis is the (common) query probability, the
y-axis the expected cost of the plan.

:func:`fig4_instance` builds one such instance; the benchmark sweeps the
query probability and compares the greedy shared plan's expected cost
against the no-sharing baseline, averaged over seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.advertiser import Advertiser
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.workloads.distributions import lognormal_cents

__all__ = ["fig4_instance", "fig4_market"]


def fig4_instance(
    query_probability: float,
    num_queries: int = 10,
    num_advertisers: int = 20,
    membership_probability: float = 0.5,
    seed: int = 0,
) -> SharedAggregationInstance:
    """One Fig. 4 instance.

    Args:
        query_probability: The common search rate given to every query
            (the figure's x-axis).
        num_queries: Distinct queries to draw (10 in the paper).
        num_advertisers: Variable universe size (20 in the paper).
        membership_probability: Coin-flip probability that an advertiser
            is in a query (a fair coin in the paper).
        seed: Drawing seed.

    Returns:
        The instance; duplicate draws are discarded and redrawn, and
        queries with fewer than two advertisers are redrawn too (the
        planning problem drops single-variable queries, so keeping them
        would silently shrink the instance).

    Determinism contract: the draw is fully determined by the arguments
    (all randomness comes from ``random.Random(seed)``; membership sets
    are ``frozenset`` but only ever compared/stored, never iterated), so
    the same ``(query_probability, ..., seed)`` tuple reproduces the
    identical instance on any platform and ``PYTHONHASHSEED``.
    """
    rng = random.Random(seed)
    seen: set[frozenset[int]] = set()
    queries: List[AggregateQuery] = []
    attempts = 0
    while len(queries) < num_queries:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError(
                "could not draw enough distinct queries; loosen parameters"
            )
        members = frozenset(
            advertiser
            for advertiser in range(num_advertisers)
            if rng.random() < membership_probability
        )
        if len(members) < 2 or members in seen:
            continue
        seen.add(members)
        queries.append(
            AggregateQuery(f"q{len(queries)}", members, query_probability)
        )
    return SharedAggregationInstance(queries)


def fig4_market(
    query_probability: float = 0.5,
    num_queries: int = 10,
    num_advertisers: int = 20,
    membership_probability: float = 0.5,
    median_bid_cents: int = 120,
    median_budget_cents: int = 1500,
    num_components: int = 1,
    seed: int = 0,
) -> Tuple[List[Advertiser], Dict[str, float]]:
    """An engine-ready market over a Fig. 4 sharing structure.

    :func:`fig4_instance` gives the paper's *sharing topology* (which
    advertisers each query aggregates); this helper fleshes it out into
    live :class:`~repro.core.advertiser.Advertiser` objects so the same
    topology can be auctioned end to end -- in particular by the serving
    benchmark, which replays Zipf-weighted Fig. 4 queries against every
    engine configuration.

    Bids are log-normal around ``median_bid_cents`` and budgets around
    ``median_budget_cents`` (``median_budget_cents <= 0`` means
    unlimited), drawn from a dedicated string-seeded RNG so the market
    fleshing never perturbs the topology draw.  Advertisers the coin
    flips left out of every query are dropped: the engine has no phrase
    to auction them under.

    Args:
        num_components: Number of disjoint Fig. 4 sub-markets to tile.
            ``1`` (the default) reproduces the original single draw
            byte-for-byte.  ``c > 1`` draws ``c`` independent topologies
            (seeds ``seed*1000 + component``), each with its own
            advertiser-id range (offset by ``num_advertisers``) and
            phrase namespace (``c0q0``, ``c1q0``, ...).  Coin-flip
            membership keeps each sub-market internally connected with
            overwhelming probability, so the tiled market has ``c``
            phrase-advertiser connected components -- the scaled shape
            the sharded engine partitions across workers.  Per-component
            query/advertiser counts are the other knobs unchanged, so
            ``num_queries=60, num_advertisers=250, num_components=8``
            yields a 2000-advertiser, 480-phrase market.

    Returns:
        ``(advertisers, search_rates)`` where ``search_rates`` maps each
        query phrase (``q0``.., or ``c0q0``.. when tiling) to its common
        ``query_probability`` -- the shape
        :meth:`TrafficGenerator.from_search_rates` and
        :class:`~repro.engine.pipeline.SharedAuctionEngine` both accept.
    """
    if num_components < 1:
        raise ValueError(
            f"num_components must be >= 1, got {num_components}"
        )
    if num_components > 1:
        advertisers: List[Advertiser] = []
        search_rates: Dict[str, float] = {}
        for component in range(num_components):
            sub_advertisers, sub_rates = fig4_market(
                query_probability,
                num_queries=num_queries,
                num_advertisers=num_advertisers,
                membership_probability=membership_probability,
                median_bid_cents=median_bid_cents,
                median_budget_cents=median_budget_cents,
                num_components=1,
                seed=seed * 1000 + component,
            )
            offset = component * num_advertisers
            for advertiser in sub_advertisers:
                advertisers.append(
                    Advertiser(
                        advertiser.advertiser_id + offset,
                        bid=advertiser.bid,
                        ctr_factor=advertiser.ctr_factor,
                        daily_budget=advertiser.daily_budget,
                        phrases=frozenset(
                            f"c{component}{phrase}"
                            for phrase in advertiser.phrases
                        ),
                    )
                )
            for phrase, rate in sub_rates.items():
                search_rates[f"c{component}{phrase}"] = rate
        return advertisers, search_rates
    instance = fig4_instance(
        query_probability,
        num_queries=num_queries,
        num_advertisers=num_advertisers,
        membership_probability=membership_probability,
        seed=seed,
    )
    rng = random.Random(f"fig4-market-{seed}")
    phrases_by_advertiser: Dict[int, set] = {}
    search_rates = {}
    for query in instance.queries:
        search_rates[query.name] = query.search_rate
        for advertiser_id in sorted(query.variables):
            phrases_by_advertiser.setdefault(advertiser_id, set()).add(
                query.name
            )
    advertisers: List[Advertiser] = []
    for advertiser_id in sorted(phrases_by_advertiser):
        bid = lognormal_cents(rng, median_bid_cents) / 100.0
        budget = (
            float("inf")
            if median_budget_cents <= 0
            else lognormal_cents(rng, median_budget_cents) / 100.0
        )
        advertisers.append(
            Advertiser(
                advertiser_id,
                bid=bid,
                ctr_factor=round(rng.uniform(0.5, 1.5), 3),
                daily_budget=budget,
                phrases=frozenset(phrases_by_advertiser[advertiser_id]),
            )
        )
    return advertisers, search_rates

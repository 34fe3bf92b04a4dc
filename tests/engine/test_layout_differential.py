"""Layout differential: columnar mechanisms vs the object reference.

``layout="columnar"`` runs each mode's mechanism -- the Section II
fragment executor, the Section III lockstep threshold kernel, the
vectorized scans -- over standing score columns.  ``layout="object"`` is
the reference: exact Section IV scoring and one scan of ``b̂ * c`` per
phrase in every mode.  The implementation promise is *byte identity*,
not approximate agreement: the same winners, the same GSP prices, the
same budget trajectories, round for round, under every mode and with
the exec cache on.  These tests run both layouts in lockstep on
randomized markets across 50 seeds.

The exec cache exists on the columnar layout only: it keeps fragment
top-k lists alive behind a row-granular dirty mask drawn from its own
score diff.  It runs the full lockstep sweep against the uncached
object engine, the serving loop's per-query trace is compared across
layouts, and a hypothesis property pins the dirty mask to the score
diff and every cached answer to a from-scratch top-k.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore, columnar_top_k
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.generator import MarketConfig, generate_market

DIFFERENTIAL_SEEDS = range(50)

# Every engine configuration the columnar layout supports.  The object
# reference runs each one uncached (see _build).
CONFIGS = {
    "unshared": dict(mode="unshared", throttle=False),
    "unshared+throttle": dict(mode="unshared", throttle=True),
    "shared": dict(mode="shared"),
    "shared+exec_cache": dict(mode="shared", exec_cache=True),
    "shared-sort": dict(mode="shared-sort"),
    "shared-sort-unthrottled": dict(mode="shared-sort", throttle=False),
}


def _small_market(seed: int):
    return generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=5,
            generalists=3,
            generalist_categories=2,
            median_budget_cents=2_000,
            seed=seed,
        )
    )


def _with_overrides(advertisers, seed: int):
    """Give a third of the population per-phrase CTR overrides.

    The shared-sort TA kernel walks per-phrase CTR-ranked lists, so the
    ``c_i^q`` override path (Section III) needs its own coverage: the
    phrase-independent rank order and the per-phrase order genuinely
    differ on these markets.
    """
    rng = random.Random(f"overrides-{seed}")
    result = []
    for advertiser in advertisers:
        if rng.random() < 1 / 3 and advertiser.phrases:
            overrides = {
                phrase: round(rng.uniform(0.3, 1.8), 3)
                for phrase in sorted(advertiser.phrases)
                if rng.random() < 0.5
            }
            advertiser = Advertiser(
                advertiser.advertiser_id,
                bid=advertiser.bid,
                ctr_factor=advertiser.ctr_factor,
                daily_budget=advertiser.daily_budget,
                phrases=advertiser.phrases,
                phrase_ctr_factors=overrides,
            )
        result.append(advertiser)
    return result


def _build(advertisers, search_rates, layout, seed, collector=None, **kw):
    if layout == "object":
        # The exec cache is columnar-only; the reference is uncached.
        kw.pop("exec_cache", None)
    return SharedAuctionEngine(
        advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=search_rates,
        layout=layout,
        seed=seed,
        collector=collector,
        **kw,
    )


def _run_lockstep(advertisers, search_rates, seed, rounds=8, **kw):
    """Drive object and columnar engines round-for-round in lockstep.

    The object engine samples the occurring phrases; both engines then
    run the identical set with synchronized RNG states, and every
    outcome surface -- allocations (winners *and* prices), revenue,
    forgiven value, displays, clicks, and each advertiser's remaining
    budget -- must match exactly.
    """
    collector_object = MetricsCollector()
    collector_columnar = MetricsCollector()
    engine_object = _build(
        advertisers, search_rates, "object", seed, collector_object, **kw
    )
    engine_columnar = _build(
        advertisers, search_rates, "columnar", seed, collector_columnar,
        **kw,
    )
    for round_index in range(rounds):
        occurring = engine_object.sample_occurring_phrases()
        engine_columnar._rng.setstate(engine_object._rng.getstate())
        report_object = engine_object.run_round(occurring)
        report_columnar = engine_columnar.run_round(occurring)
        assert report_object.allocations == report_columnar.allocations, (
            f"layouts diverged in round {round_index} (seed {seed})"
        )
        assert report_object.revenue_cents == report_columnar.revenue_cents
        assert (
            report_object.forgiven_cents == report_columnar.forgiven_cents
        )
        assert report_object.displays == report_columnar.displays
        assert report_object.clicks == report_columnar.clicks
        for advertiser in advertisers:
            assert engine_object.budget_manager.remaining_cents(
                advertiser.advertiser_id
            ) == engine_columnar.budget_manager.remaining_cents(
                advertiser.advertiser_id
            ), f"budget trajectory diverged in round {round_index}"
        engine_object._rng.setstate(engine_columnar._rng.getstate())
    assert (
        engine_object.budget_manager.spent_snapshot()
        == engine_columnar.budget_manager.spent_snapshot()
    )
    return collector_object, collector_columnar


class TestColumnarMatchesObject:
    """The full 50-seed sweep on the cheap configurations."""

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_unshared_with_throttle(self, seed):
        market = _small_market(seed)
        _, columnar = _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["unshared+throttle"],
        )
        # Rounds where no phrase occurs skip the scoring batch, so the
        # count is bounded by, not equal to, the number of rounds.
        assert 1 <= columnar.counter(names.COLUMNAR_SCORE_BATCHES) <= 8
        assert columnar.counter(names.COLUMNAR_SCORE_ROWS) > 0

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_unshared_no_throttle(self, seed):
        market = _small_market(seed)
        _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["unshared"],
        )

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared(self, seed):
        market = _small_market(seed)
        _, columnar = _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["shared"],
        )
        # The columnar executor really ran fragments, not a fallback.
        assert columnar.counter(names.PLAN_LEAF_SCANS) > 0

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared_with_exec_cache(self, seed):
        # Fragments persist across rounds and only rows whose score
        # moved force rescans; the object engine is the reference.
        market = _small_market(seed)
        _, columnar = _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["shared+exec_cache"],
        )
        assert columnar.counter(names.PLAN_LEAF_SCANS) > 0
        # Eight rounds on a static-bid market: later rounds must serve
        # clean fragments straight from the cross-round cache.
        assert columnar.counter(names.PLAN_NODES_REUSED) > 0

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared_sort_with_overrides(self, seed):
        market = _small_market(seed)
        advertisers = _with_overrides(market.advertisers, seed)
        _, columnar = _run_lockstep(
            advertisers, market.search_rates, seed,
            **CONFIGS["shared-sort"],
        )
        assert columnar.counter(names.TA_RUNS) > 0
        assert columnar.counter(names.TA_SORTED_ACCESSES) > 0

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared_sort_unthrottled(self, seed):
        # The lockstep TA kernel on every seed, without the Section IV
        # throttle: effective bids are min(b, remaining budget).
        market = _small_market(seed)
        _, columnar = _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["shared-sort-unthrottled"],
        )
        assert columnar.counter(names.TA_RUNS) > 0


def _half_unbudgeted(advertisers):
    """Lift the budget of about half of each phrase's bidders.

    Phrase by phrase, the bidders not yet decided alternate unbudgeted /
    budgeted in id order, so every phrase of two or more bidders mixes
    an advertiser that keeps no books with one that does.
    """
    bidders = {}
    for advertiser in advertisers:
        for phrase in advertiser.phrases:
            bidders.setdefault(phrase, []).append(advertiser.advertiser_id)
    unbudgeted = {}
    for phrase in sorted(bidders):
        undecided = [
            advertiser_id
            for advertiser_id in sorted(bidders[phrase])
            if advertiser_id not in unbudgeted
        ]
        lifted = sum(unbudgeted.get(i, False) for i in bidders[phrase])
        kept = len(bidders[phrase]) - len(undecided) - lifted
        for advertiser_id in undecided:
            unbudgeted[advertiser_id] = lifted <= kept
            lifted += unbudgeted[advertiser_id]
            kept += not unbudgeted[advertiser_id]
    return [
        Advertiser(
            advertiser.advertiser_id,
            bid=advertiser.bid,
            ctr_factor=advertiser.ctr_factor,
            daily_budget=(
                float("inf")
                if unbudgeted.get(advertiser.advertiser_id)
                else advertiser.daily_budget
            ),
            phrases=advertiser.phrases,
            phrase_ctr_factors=advertiser.phrase_ctr_factors,
        )
        for advertiser in advertisers
    ], bidders


class TestMixedBudgetsMatchObject:
    """Unbudgeted advertisers keep no books (DESIGN section 17); the
    budgeted ones beside them in the same auctions keep theirs.  Both
    layouts, every configuration, round for round."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", range(20))
    def test_half_of_each_phrase_unbudgeted(self, config, seed):
        market = _small_market(seed)
        advertisers, bidders = _half_unbudgeted(market.advertisers)
        unlimited = {
            advertiser.advertiser_id
            for advertiser in advertisers
            if advertiser.daily_budget == float("inf")
        }
        for members in bidders.values():
            if len(members) > 1:
                assert unlimited & set(members) and set(members) - unlimited
        _run_lockstep(
            advertisers, market.search_rates, seed, **CONFIGS[config]
        )


def _effective_bids_of_each_round(engine):
    """Wrap stage 3 so every round hands it its stage-2 ``b̂`` map."""
    seen = []
    rank = engine._rank_phrases

    def recording_rank(phrases, scores, effective_bid_cents, report):
        seen.append(dict(effective_bid_cents.items()))
        return rank(phrases, scores, effective_bid_cents, report)

    engine._rank_phrases = recording_rank
    return seen


class TestWideBudgetedMarketLockstep:
    """Both layouts allocate alike on a wide market under budgets.

    Each round both layouts must also hand stage 3 the same ``b̂`` map,
    and some budget must bind: an advertiser scored in an earlier round
    whose throttled ``b̂`` moved again, below its bid.  The wide market
    (24 phrases, 3 slots) prices most rounds' slots through the columnar
    array pass, so this is the lockstep of that pass against the object
    reference under budgets; the shared plan runs on a 9-phrase market.
    """

    @pytest.mark.parametrize(
        "config,phrases",
        [
            ("unshared+throttle", 24),
            ("shared-sort", 24),
            ("shared+exec_cache", 9),
        ],
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_same_allocations_every_round(self, config, phrases, seed):
        from repro.engine.pipeline import ARRAY_PRICING_MIN_SLOTS
        from repro.workloads.fig4 import fig4_market

        advertisers, rates = fig4_market(
            num_queries=phrases, num_advertisers=phrases + 8,
            median_budget_cents=700, seed=seed,
        )
        engines = {
            layout: _build(advertisers, rates, layout, seed, **CONFIGS[config])
            for layout in ("object", "columnar")
        }
        seen = {
            layout: _effective_bids_of_each_round(engine)
            for layout, engine in engines.items()
        }
        bid_cents = {a.advertiser_id: round(a.bid * 100) for a in advertisers}
        last_effective = {}
        repeated_throttle_moves = array_rounds = 0
        for round_index in range(30):
            occurring = engines["object"].sample_occurring_phrases()
            engines["columnar"]._rng.setstate(engines["object"]._rng.getstate())
            reports = {
                layout: engine.run_round(occurring)
                for layout, engine in engines.items()
            }
            engines["object"]._rng.setstate(engines["columnar"]._rng.getstate())
            assert reports["object"].allocations == reports["columnar"].allocations
            effective = seen["object"].pop()
            assert effective == seen["columnar"].pop(), (
                f"stage-2 bids diverged in round {round_index}"
            )
            repeated_throttle_moves += sum(
                1
                for advertiser_id, bid in effective.items()
                if bid < bid_cents[advertiser_id]
                and last_effective.get(advertiser_id, bid) != bid
            )
            last_effective.update(effective)
            array_rounds += len(occurring) * 3 >= ARRAY_PRICING_MIN_SLOTS
        assert repeated_throttle_moves, "no budget ever bound a multiplicity change"
        if phrases == 24:
            assert array_rounds >= 15, "rounds too small for the array pass"


class TestLayoutValidation:
    def test_unknown_layout_rejected(self):
        market = _small_market(0)
        with pytest.raises(InvalidAuctionError, match="unknown layout"):
            _build(market.advertisers, market.search_rates, "rowwise", 0)

    def test_exec_cache_requires_columnar_layout(self):
        market = _small_market(0)
        with pytest.raises(InvalidAuctionError, match="layout='columnar'"):
            SharedAuctionEngine(
                market.advertisers,
                slot_factors=[0.3, 0.2, 0.1],
                search_rates=market.search_rates,
                mode="shared",
                layout="object",
                exec_cache=True,
            )

    def test_columnar_full_run_matches_object_end_to_end(self):
        # A plain .run() (engine-sampled phrases, terminal click flush)
        # as the CLI drives it, compared on the final report.
        market = _small_market(3)
        reports = {}
        for layout in ("object", "columnar"):
            engine = _build(
                market.advertisers, market.search_rates, layout, 3
            )
            reports[layout] = engine.run(10)
        assert (
            reports["object"].revenue_cents
            == reports["columnar"].revenue_cents
        )
        assert (
            reports["object"].forgiven_cents
            == reports["columnar"].forgiven_cents
        )
        assert reports["object"].clicks == reports["columnar"].clicks


class TestNonFiniteInputsAreRefused:
    """NaN passed every ``< 0`` check, and the layouts then disagreed:
    one NaN ``ctr_factor`` among four bidders gave the object layout two
    winners and the columnar layout one; a NaN slot factor priced slot 2
    at ``min(1.0, nan)`` on the object layout and raised mid-round on
    the columnar one.  Both are now refused before any engine runs."""

    def test_a_nan_ctr_factor_never_reaches_an_engine(self):
        with pytest.raises(InvalidAuctionError, match="ctr_factor"):
            SharedAuctionEngine(
                [
                    Advertiser(
                        i, bid=bid, ctr_factor=factor,
                        phrases=frozenset({"p"}),
                    )
                    for i, (bid, factor) in enumerate(
                        [(1.0, 1.0), (1.2, float("nan")), (1.3, 1.0),
                         (1.5, 1.0)]
                    )
                ],
                slot_factors=[0.3, 0.2],
                search_rates={"p": 1.0},
                mode="shared-sort",
            )

    @pytest.mark.parametrize("layout", ("object", "columnar"))
    def test_a_nan_slot_factor_is_refused_at_construction(self, layout):
        phrases = [f"q{i}" for i in range(20)]  # 40 slots: array pricing
        advertisers = [
            Advertiser(i, bid=1.0 + i / 10, phrases=frozenset(phrases))
            for i in range(4)
        ]
        with pytest.raises(InvalidAuctionError, match="slot factors"):
            SharedAuctionEngine(
                advertisers,
                slot_factors=[0.3, float("nan")],
                search_rates={p: 1.0 for p in phrases},
                mode="unshared",
                layout=layout,
            )


def _serve_trace(market, seed, **kw):
    """Serve a fixed arrival trace; return the per-query outcome tuple.

    The traffic generator is seeded identically for every engine
    configuration, so the traces are the same queries in the same order
    and the returned tuples are directly comparable.
    """
    engine = _build(
        market.advertisers, market.search_rates, kw.pop("layout"), seed, **kw
    )
    traffic = TrafficGenerator.from_search_rates(
        market.search_rates, rate_qps=80.0, seed=seed
    )
    loop = ServingEngine(engine, traffic, keep_history=True)
    report = loop.run(40)
    trace = [
        (query.phrase, query.allocation) for query in report.history
    ]
    return (
        trace,
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
        engine.budget_manager.spent_snapshot(),
    )


class TestCachedColumnarServing:
    """Serving on the columnar layout, the exec cache on.

    The exec cache diffs each query's scores, so the serving loop is
    where cross-round caching and the vectorized kernels genuinely
    compose.  The trace -- every query's phrase, winners, and prices,
    plus click money and final budgets -- must be byte-identical to the
    uncached object layout serving the same arrivals.  The full 50-seed
    identity (and the speedup) is gated in
    ``benchmarks/test_bench_columnar_serving.py``; this sweep keeps a
    fast tier-1 guard on the same claim.
    """

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_exec_cache_serving_trace_identical(self, seed):
        market = _small_market(seed)
        object_trace = _serve_trace(
            market, seed, layout="object", mode="shared"
        )
        columnar_trace = _serve_trace(
            market, seed, layout="columnar", mode="shared", exec_cache=True
        )
        assert object_trace == columnar_trace

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_shared_sort_serving_trace_identical(self, seed):
        market = _small_market(seed)
        object_trace = _serve_trace(
            market, seed, layout="object", mode="shared-sort"
        )
        columnar_trace = _serve_trace(
            market, seed, layout="columnar", mode="shared-sort"
        )
        assert object_trace == columnar_trace

    def test_cached_equals_uncached_columnar_serving(self):
        # The cache changes the work, never the trace.
        market = _small_market(11)
        reference = _serve_trace(market, 11, layout="object", mode="shared")
        assert reference == _serve_trace(
            market, 11, layout="columnar", mode="shared"
        )
        assert reference == _serve_trace(
            market, 11, layout="columnar", mode="shared", exec_cache=True
        )


class TestDirtyMaskIsTheScoreDiff:
    """Property: the rows the exec cache rescans are the score diff.

    The cross-round executor sees a stream of score columns and is told
    nothing else.  After every round, the rows it treated as dirty must
    be exactly the rows it had never seen plus the rows whose score
    moved since it last absorbed them, each row's epoch must count those
    moves, and every answer must equal a from-scratch
    :func:`repro.core.columnar.columnar_top_k` over the query's rows.
    """

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_dirty_rows_are_first_sights_and_moved_scores(self, data):
        ids = sorted(
            data.draw(
                st.sets(st.integers(0, 60), min_size=4, max_size=12),
                label="ids",
            )
        )
        num_queries = data.draw(st.integers(1, 4), label="queries")
        queries = [
            AggregateQuery(
                f"q{index}",
                data.draw(
                    st.sets(st.sampled_from(ids), min_size=1),
                    label=f"members{index}",
                ),
            )
            for index in range(num_queries)
        ]
        instance = SharedAggregationInstance(queries)
        store = ColumnarStore(
            [
                Advertiser(i, 1.0, phrases=frozenset({"p"}))
                for i in ids
            ]
        )
        executor = ColumnarFragmentExecutor(
            instance, store, 3, cross_round=True
        )
        # A-equivalent queries (identical variable sets) deduplicate to
        # one canonical query; request the survivors, as the engine does.
        canonical = instance.queries + instance.trivial_queries
        request = [query.name for query in canonical]
        score_by_row = np.zeros(store.size, dtype=np.float64)
        # Scores from a small value pool so ties and no-op "changes"
        # (redrawn to the same value) genuinely occur.
        value = st.integers(1, 6).map(lambda v: v / 2.0)
        for i in ids:
            score_by_row[store.row_of(i)] = data.draw(value, label=f"s{i}")
        last_seen = {}
        epochs = dict.fromkeys(ids, 0)
        for round_index in range(data.draw(st.integers(2, 4), label="rounds")):
            if round_index:
                for i in data.draw(
                    st.sets(st.sampled_from(ids)), label="redrawn"
                ):
                    score_by_row[store.row_of(i)] = data.draw(value)
            # Some rounds score only one query's rows: the others are
            # not compared, so a move there waits for a later round.
            scored = data.draw(
                st.sampled_from([None] + list(canonical)), label="scored"
            )
            names = request if scored is None else [scored.name]
            members = (
                ids if scored is None else sorted(scored.variables)
            )
            rows = store.rows_of(members)
            result = executor.run_round(score_by_row, names, rows=rows)
            expected_dirty = set()
            for i in members:
                score = float(score_by_row[store.row_of(i)])
                if last_seen.get(i) != score:
                    expected_dirty.add(i)
                    epochs[i] += 1
                    last_seen[i] = score
            dirty_ids = {
                int(store.ids[row])
                for row in executor.dirty_rows_last_round()
            }
            assert dirty_ids == expected_dirty
            for i in ids:
                assert executor.row_epoch(store.row_of(i)) == epochs[i]
            for query in canonical:
                if query.name not in names:
                    continue
                query_rows = store.rows_of(sorted(query.variables))
                fresh = columnar_top_k(
                    3, score_by_row[query_rows], store.ids[query_rows]
                )
                assert (
                    result.answers[query.name].entries == fresh.entries
                ), f"answers diverged in round {round_index}"

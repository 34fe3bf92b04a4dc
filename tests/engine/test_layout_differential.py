"""The engine against the reference, round for round.

:class:`SharedAuctionEngine` runs each mode's mechanism -- the Section
II fragment executor, or the scan of a round's cells (with ``c_i^q``
under ``"shared-sort"``) -- over standing score columns.
:class:`repro.reference.ReferenceEngine` is the paper's auction written
plainly: exact Section IV scoring and one scan of ``b̂ * c`` per phrase
in every mode.  The implementation promise is *byte identity*, not
approximate agreement: the same winners, the same GSP prices, the same
budget trajectories, round for round, under every mode and with the
exec cache on.  These tests run the two in lockstep on randomized
markets across 50 seeds.

The exec cache keeps fragment top-k lists alive behind a row-granular
dirty mask drawn from its own score diff.  It runs the full lockstep
sweep against the reference, the serving loop's per-query trace is
compared with the reference's, and a hypothesis property pins the dirty
mask to the score diff and every cached answer to a from-scratch top-k.
The last tests pin the ``layout`` seam that still builds the reference
through ``SharedAuctionEngine(..., layout="object")``.
"""

from __future__ import annotations

import inspect
import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.columnar import ColumnarStore, columnar_top_k
from repro.engine.pipeline import SharedAuctionEngine
from repro.errors import InvalidAuctionError
from repro.instrument import MetricsCollector, names
from repro.plans.columnar_exec import ColumnarFragmentExecutor
from repro.plans.instance import AggregateQuery, SharedAggregationInstance
from repro.reference import ReferenceEngine
from repro.serving import ServingEngine, TrafficGenerator
from repro.workloads.generator import MarketConfig, generate_market

from .round_scans import assert_scanned_with_phrase_ctrs, watch_round_scans

DIFFERENTIAL_SEEDS = range(50)

# Every engine configuration.  The reference runs each one uncached (see
# _build).
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

    The shared-sort scan scores with ``c_i^q``, so the override path
    (Section III) needs its own coverage: the phrase-independent rank
    order and the per-phrase order genuinely differ on these markets.
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


def _build(advertisers, search_rates, reference, seed, collector=None, **kw):
    """The engine, or with ``reference`` the (uncached) reference."""
    if reference:
        kw.pop("exec_cache", None)
        return ReferenceEngine(
            advertisers, [0.3, 0.2, 0.1], search_rates, seed=seed, **kw
        )
    return SharedAuctionEngine(
        advertisers,
        slot_factors=[0.3, 0.2, 0.1],
        search_rates=search_rates,
        seed=seed,
        collector=collector,
        **kw,
    )


def _run_lockstep(advertisers, search_rates, seed, rounds=8, **kw):
    """Drive the reference and the engine round-for-round in lockstep.

    The reference samples the occurring phrases; both then run the
    identical set with synchronized RNG states, and every outcome
    surface -- allocations (winners *and* prices), revenue, forgiven
    value, displays, clicks, and each advertiser's remaining budget --
    must match exactly.

    Returns:
        The engine's collector.
    """
    collector_columnar = MetricsCollector()
    engine_object = _build(advertisers, search_rates, True, seed, **kw)
    engine_columnar = _build(
        advertisers, search_rates, False, seed, collector_columnar, **kw
    )
    for round_index in range(rounds):
        occurring = engine_object.sample_occurring_phrases()
        engine_columnar._rng.setstate(engine_object._rng.getstate())
        report_object = engine_object.run_round(occurring)
        report_columnar = engine_columnar.run_round(occurring)
        assert report_object.allocations == report_columnar.allocations, (
            f"engine and reference diverged in round {round_index} "
            f"(seed {seed})"
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
    return collector_columnar


class TestEngineMatchesReference:
    """The full 50-seed sweep on the cheap configurations."""

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_unshared_with_throttle(self, seed):
        market = _small_market(seed)
        columnar = _run_lockstep(
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
        columnar = _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["shared"],
        )
        # The columnar executor really ran fragments, not a fallback.
        assert columnar.counter(names.PLAN_LEAF_SCANS) > 0

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared_with_exec_cache(self, seed):
        # Fragments persist across rounds and only rows whose score
        # moved force rescans; the uncached reference is the oracle.
        market = _small_market(seed)
        columnar = _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["shared+exec_cache"],
        )
        assert columnar.counter(names.PLAN_LEAF_SCANS) > 0
        # Eight rounds on a static-bid market: later rounds must serve
        # clean fragments straight from the cross-round cache.
        assert columnar.counter(names.PLAN_NODES_REUSED) > 0

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared_sort_with_overrides(self, seed, monkeypatch):
        market = _small_market(seed)
        advertisers = _with_overrides(market.advertisers, seed)
        scans = watch_round_scans(monkeypatch)
        _run_lockstep(
            advertisers, market.search_rates, seed,
            **CONFIGS["shared-sort"],
        )
        assert_scanned_with_phrase_ctrs(scans)

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_shared_sort_unthrottled(self, seed, monkeypatch):
        # The c_i^q round scan on every seed, without the Section IV
        # throttle: effective bids are min(b, remaining budget).
        market = _small_market(seed)
        scans = watch_round_scans(monkeypatch)
        _run_lockstep(
            market.advertisers, market.search_rates, seed,
            **CONFIGS["shared-sort-unthrottled"],
        )
        assert_scanned_with_phrase_ctrs(scans)


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


class TestMixedBudgetsMatchReference:
    """Unbudgeted advertisers keep no books (DESIGN section 5); the
    budgeted ones beside them in the same auctions keep theirs.  Engine
    and reference, every configuration, round for round."""

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


def stage_two_bids(engine):
    """Record the ``b̂`` map of each round the engine (or reference) scores.

    The reference's is what its scoring step returns; the engine's is
    what its stage 2 hands stage 3.
    """
    seen = []
    if isinstance(engine, ReferenceEngine):
        score = engine._throttled_bids

        def recording_score(phrases, round_index, report):
            seen.append(score(phrases, round_index, report))
            return seen[-1]

        engine._throttled_bids = recording_score
        return seen
    rank = engine._rank_phrases

    def recording_rank(phrases, scored, report):
        rows, bids, _ = scored
        ids = engine._store.ids[rows].tolist()
        seen.append(dict(zip(ids, bids.tolist())))
        return rank(phrases, scored, report)

    engine._rank_phrases = recording_rank
    return seen


class TestWideBudgetedMarketLockstep:
    """Engine and reference allocate alike on a wide market under budgets.

    Each round the engine's stage 2 must also hand stage 3 the
    reference's ``b̂`` map, and some budget must bind: an advertiser
    scored in an earlier round whose throttled ``b̂`` moved again, below
    its bid.  The wide market (24 phrases, 3 slots) prices most rounds'
    slots through the engine's array pass, so this is the lockstep of
    that pass against the reference under budgets; the shared plan runs
    on a 9-phrase market.
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
            "object": _build(advertisers, rates, True, seed, **CONFIGS[config]),
            "columnar": _build(
                advertisers, rates, False, seed, **CONFIGS[config]
            ),
        }
        seen = {name: stage_two_bids(engine) for name, engine in engines.items()}
        bid_cents = {a.advertiser_id: round(a.bid * 100) for a in advertisers}
        last_effective = {}
        repeated_throttle_moves = array_rounds = 0
        for round_index in range(30):
            occurring = engines["object"].sample_occurring_phrases()
            engines["columnar"]._rng.setstate(engines["object"]._rng.getstate())
            reports = {
                name: engine.run_round(occurring)
                for name, engine in engines.items()
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


class TestTheLayoutSeam:
    """``layout`` survives only as ``SharedAuctionEngine.__new__``'s seam
    to the reference, for callers that still name it."""

    def _engine(self, **kw):
        market = _small_market(0)
        return SharedAuctionEngine(
            market.advertisers, [0.3, 0.2, 0.1], market.search_rates, **kw
        )

    def test_object_is_the_reference(self):
        engine = self._engine(mode="shared-sort", layout="object", seed=4)
        assert type(engine) is ReferenceEngine
        assert engine.mode == "shared-sort"

    def test_both_constructors_take_the_same_parameters(self):
        # The seam binds the engine's signature and hands every argument
        # on by name: a parameter only one class takes would fail there.
        def parameters(cls):
            return [
                (p.name, p.kind, p.default)
                for p in inspect.signature(cls.__init__).parameters.values()
                if p.name not in ("exec_cache", "collector", "layout")
            ]

        assert parameters(SharedAuctionEngine) == parameters(ReferenceEngine)

    def test_columnar_is_the_engine(self):
        assert type(self._engine(layout="columnar")) is SharedAuctionEngine

    def test_unknown_layout_rejected(self):
        with pytest.raises(InvalidAuctionError, match="unknown layout"):
            self._engine(layout="rowwise")

    def test_the_reference_takes_no_enabled_collector(self):
        with pytest.raises(InvalidAuctionError, match="no collector"):
            self._engine(layout="object", collector=MetricsCollector())
        assert type(self._engine(layout="object", collector=None)) is (
            ReferenceEngine
        )

    def test_the_reference_has_no_exec_cache(self):
        with pytest.raises(InvalidAuctionError, match="no exec_cache"):
            self._engine(mode="shared", layout="object", exec_cache=True)

    def test_the_seam_runs_what_the_reference_runs(self):
        market = _small_market(0)
        through_seam = self._engine(layout="object", seed=3).run(10)
        direct = _build(
            market.advertisers, market.search_rates, True, 3
        ).run(10)
        assert through_seam.history == direct.history

    def test_engine_full_run_matches_reference_end_to_end(self):
        # A plain .run() (engine-sampled phrases, terminal click flush)
        # as the CLI drives it, compared on the final report.
        market = _small_market(3)
        reports = {
            name: _build(
                market.advertisers, market.search_rates, reference, 3
            ).run(10)
            for name, reference in (("object", True), ("columnar", False))
        }
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
    """NaN passed every ``< 0`` check, and engine and reference then
    disagreed: one NaN ``ctr_factor`` among four bidders gave the
    reference two winners and the engine one; a NaN slot factor priced
    slot 2 at ``min(1.0, nan)`` on the reference and raised mid-round on
    the engine.  Both are now refused before either runs."""

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

    @pytest.mark.parametrize(
        "build", (ReferenceEngine, SharedAuctionEngine), ids=("reference", "engine")
    )
    def test_a_nan_slot_factor_is_refused_at_construction(self, build):
        phrases = [f"q{i}" for i in range(20)]  # 40 slots: array pricing
        advertisers = [
            Advertiser(i, bid=1.0 + i / 10, phrases=frozenset(phrases))
            for i in range(4)
        ]
        with pytest.raises(InvalidAuctionError, match="slot factors"):
            build(
                advertisers,
                slot_factors=[0.3, float("nan")],
                search_rates={p: 1.0 for p in phrases},
                mode="unshared",
            )

    @pytest.mark.parametrize("field", ("bid", "daily_budget"))
    @pytest.mark.parametrize(
        "build", (ReferenceEngine, SharedAuctionEngine), ids=("reference", "engine")
    )
    def test_money_beyond_int64_cents_is_refused_at_construction(
        self, build, field
    ):
        # 1e300 dollars passes every finiteness check; the reference used
        # to run it (revenue 0) while the engine raised OverflowError.
        advertisers = [
            Advertiser(1, phrases=frozenset({"p"}), **{"bid": 1.0, field: 1e300}),
            Advertiser(2, bid=1.2, phrases=frozenset({"p"})),
        ]
        with pytest.raises(InvalidAuctionError, match="int64"):
            build(advertisers, slot_factors=[0.3], search_rates={"p": 1.0})

    @pytest.mark.parametrize(
        "build", (ReferenceEngine, SharedAuctionEngine), ids=("reference", "engine")
    )
    def test_a_bid_past_the_exact_bound_is_refused_at_construction(self, build):
        # 10^16 cents fits int64 but not 2**53: the engine used to fail a
        # bare assert (nothing under python -O) while the reference ran.
        advertisers = [
            Advertiser(1, bid=1e14, phrases=frozenset({"p"})),
            Advertiser(2, bid=1.2, phrases=frozenset({"p"})),
        ]
        with pytest.raises(InvalidAuctionError, match="2\\*\\*53"):
            build(advertisers, slot_factors=[0.3], search_rates={"p": 1.0})


def _serve_trace(market, seed, reference=False, **kw):
    """Serve a fixed arrival trace; return the per-query outcome tuple.

    The traffic generator is seeded identically for every engine
    configuration, so the traces are the same queries in the same order
    and the returned tuples are directly comparable.
    """
    engine = _build(
        market.advertisers, market.search_rates, reference, seed, **kw
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
    """Serving on the engine, the exec cache on.

    The exec cache diffs each query's scores, so the serving loop is
    where cross-round caching and the vectorized kernels genuinely
    compose.  The trace -- every query's phrase, winners, and prices,
    plus click money and final budgets -- must be byte-identical to the
    reference serving the same arrivals.  The full 50-seed
    identity (and the speedup) is gated in
    ``benchmarks/test_bench_columnar_serving.py``; this sweep keeps a
    fast tier-1 guard on the same claim.
    """

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_exec_cache_serving_trace_identical(self, seed):
        market = _small_market(seed)
        object_trace = _serve_trace(
            market, seed, reference=True, mode="shared"
        )
        columnar_trace = _serve_trace(
            market, seed, mode="shared", exec_cache=True
        )
        assert object_trace == columnar_trace

    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_shared_sort_serving_trace_identical(self, seed):
        market = _small_market(seed)
        object_trace = _serve_trace(
            market, seed, reference=True, mode="shared-sort"
        )
        columnar_trace = _serve_trace(
            market, seed, mode="shared-sort"
        )
        assert object_trace == columnar_trace

    def test_cached_equals_uncached_columnar_serving(self):
        # The cache changes the work, never the trace.
        market = _small_market(11)
        reference = _serve_trace(market, 11, reference=True, mode="shared")
        assert reference == _serve_trace(market, 11, mode="shared")
        assert reference == _serve_trace(
            market, 11, mode="shared", exec_cache=True
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

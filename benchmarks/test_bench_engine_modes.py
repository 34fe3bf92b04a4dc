"""E15 -- the three engine modes head to head.

``shared`` (Section II plans), ``shared-sort`` (Section III shared sort
+ threshold algorithm), both on the columnar layout, and ``unshared``
(independent scans, the object reference) resolve the same generated
market.  With phrase-independent CTR factors all three must produce
identical outcomes; the work profiles differ.

``test_uncached_shared_plan_within_reach_of_the_scan`` is ROADMAP item
1's threshold by the clock: on the scaled Fig. 4 market the Section II
shared plan, with no cache to replay answers from, must stay within
1.5x of independent vectorized scans (it was ~9x while every phrase
was a ~125-deep Python merge chain); and Section III's shared sort +
threshold algorithm, which also caches nothing, must not be slower than
the scans at all (it was 1.8x while TA ran phrase by phrase; the
lockstep round kernel of DESIGN section 20 measured 0.7x).

``test_book_rows_follow_movers`` gates the budget books' traffic on
the same market by count: a round's scoring stage re-derives one
standing-column row per advertiser the books moved, not one per
movement.

``test_cached_shared_tick_within_reach_of_the_scan`` gates the served
tick of the shared plan with the exec cache against the unshared scan
on ``serve_scan``'s budgeted market: at most 2.45x, same process (2.6-
2.9x while the cache drained the change feed every tick, 2.2-2.4x
diffing its own scores).

``test_served_tick_scores_off_standing_columns`` gates ROADMAP item 5's
served tick by the engine's own stage timers: through the unshared scan
on the budgeted market, scoring a query (Section IV throttling
included) may cost at most twice ranking it.  It was 3.3x while stage 2
re-derived every member of the phrase each tick; reading the standing
score columns of DESIGN section 21 it measures 1.75x.

``test_debt_round_scores_off_standing_distributions`` gates the batch
round under debt the same way: on ``batch_debt``'s shape the score stage
of a session that keeps each carrier's throttle problem until its books
move (DESIGN section 22) may cost at most 0.8x the stage of the same
session given no room to keep any -- the per-round rebuild it replaced
(measured 0.52-0.72x) -- and, by count, at most half of the exact
scorings of the timed rounds may rebuild their problem (measured 0.37).

``test_unbudgeted_round_keeps_no_books`` gates the books of an
unbudgeted advertiser (DESIGN section 17): on ``batch_rank``'s market,
the deliver + allocate stages of a session with no budgets may cost at
most 0.8x those of the same session with every budget finite but never
binding, which books every display and click (measured 0.54-0.68x).

``test_a_round_of_displays_is_one_click_model_call`` gates stage 4's
hand-off to the click model: the displays of one ``batch_rank`` round
through one ``record_displays`` call must schedule exactly what one
``record_display`` call per display does -- same rows, same random
stream after -- at most 0.3x its cost (measured 0.14-0.15x).
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time

import pytest

from repro.engine import DelayedClickModel, SharedAuctionEngine, pipeline
from repro.instrument import MetricsCollector, names
from repro.metrics.tables import ExperimentTable
from repro.workloads.fig4 import fig4_market
from repro.workloads.generator import MarketConfig, generate_market

ROUNDS = 25
MODES = ("shared", "shared-sort", "unshared")
SHARED_OVER_SCAN_CEILING = 1.5
SORT_OVER_SCAN_CEILING = 1.0


def build_engine(market, mode: str) -> SharedAuctionEngine:
    return SharedAuctionEngine(
        market.advertisers,
        slot_factors=[0.3, 0.2],
        search_rates=market.search_rates,
        mode=mode,
        # The sharing mechanisms run on the columnar layout; the
        # unshared scan is held to the object reference.
        layout="object" if mode == "unshared" else "columnar",
        throttle=True,
        seed=31,
    )


@pytest.mark.experiment("EngineModes")
def test_three_modes_agree_and_differ_in_work(benchmark):
    market = generate_market(
        MarketConfig(
            num_categories=3,
            phrases_per_category=3,
            specialists_per_category=12,
            generalists=20,
            generalist_categories=2,
            seed=4,
        )
    )
    table = ExperimentTable(
        f"Engine modes over {ROUNDS} rounds (identical outcomes required)",
        ["mode", "scans", "merges", "revenue ($)", "displays"],
    )
    reports = {}
    for mode in MODES:
        engine = build_engine(market, mode)
        reports[mode] = engine.run(ROUNDS)
        table.add(
            mode,
            reports[mode].scans,
            reports[mode].merges,
            reports[mode].revenue_cents / 100,
            reports[mode].displays,
        )
    table.show()

    # Exactness: all three modes deliver identical auction outcomes.
    assert (
        reports["shared"].revenue_cents
        == reports["shared-sort"].revenue_cents
        == reports["unshared"].revenue_cents
    )
    assert (
        reports["shared"].displays
        == reports["shared-sort"].displays
        == reports["unshared"].displays
    )
    # Work: the Section II plan scans fewer advertisers than independent
    # resolution; the Section III pipeline touches fewer entries still
    # through early termination (sorted accesses).
    assert reports["shared"].scans < reports["unshared"].scans
    assert reports["shared-sort"].scans < reports["unshared"].scans

    engine = build_engine(market, "shared-sort")
    benchmark(lambda: engine.run_round())


def _median_round_ms(advertisers, rates, mode, rounds, warm):
    """Median wall clock of the timed rounds of one fresh session, and
    every round's allocations (the outcome the modes must agree on)."""
    engine = SharedAuctionEngine(
        advertisers, [0.3, 0.2, 0.1], rates,
        mode=mode, layout="columnar", seed=11,
    )
    samples = []
    allocations = []
    for index, occurring in enumerate(rounds):
        start = time.perf_counter()
        report = engine.run_round(occurring)
        if index >= warm:
            samples.append(time.perf_counter() - start)
        allocations.append(report.allocations)
    return statistics.median(samples) * 1e3, allocations


@pytest.mark.experiment("EngineModes")
def test_uncached_shared_plan_within_reach_of_the_scan():
    pytest.importorskip("numpy")
    # batch_rank's market: 8 Fig. 4 components (2000 advertisers, 480
    # phrases), unlimited budgets, each phrase occurring with
    # probability 0.5.  Both engines replay the same rounds in this
    # process, so the gate is a ratio and survives a slow box.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=8,
        median_budget_cents=0, seed=0,
    )
    rng = random.Random(16)
    phrases = sorted(rates)
    warm, timed = 5, 40
    rounds = [
        [phrase for phrase in phrases if rng.random() < 0.5]
        for _ in range(warm + timed)
    ]
    ceilings = {
        "shared": SHARED_OVER_SCAN_CEILING,
        "shared-sort": SORT_OVER_SCAN_CEILING,
    }
    best = {}
    outcomes = {}
    for _lap in range(2):
        for mode in ("unshared", *ceilings):
            ms, outcomes[mode] = _median_round_ms(
                advertisers, rates, mode, rounds, warm
            )
            best[mode] = min(best.get(mode, ms), ms)
    table = ExperimentTable(
        "Uncached sharing vs unshared scan, columnar, "
        f"{statistics.mean(map(len, rounds)):.0f} phrases/round "
        f"(median of {timed} rounds, best of 2 laps)",
        ["mode", "ms/round", "x scan", "ceiling"],
    )
    table.add("unshared", best["unshared"], 1.0, "")
    for mode, ceiling in ceilings.items():
        table.add(mode, best[mode], best[mode] / best["unshared"], ceiling)
    table.show()
    for mode, ceiling in ceilings.items():
        # No per-phrase CTR factors on this market, so Section III must
        # find the scan's winners too.
        assert outcomes[mode] == outcomes["unshared"]
        ratio = best[mode] / best["unshared"]
        assert ratio <= ceiling, (
            f"uncached {mode} is {ratio:.2f}x the unshared scan "
            f"(ceiling {ceiling}x)"
        )


# About 1.5x the measured 89 and far below the 2000 budgeted rows, so
# re-deriving every budgeted row each stage fails it.
BOOK_ROWS_PER_ROUND_CEILING = 135


def _booked(advertisers):
    """``advertisers`` with every budget a finite 10^11 cents: one no
    click stream here reaches, so every bid and outcome stays that of
    the unbudgeted market while every display and click is booked."""
    return [
        dataclasses.replace(advertiser, daily_budget=1e9)
        for advertiser in advertisers
    ]


@pytest.mark.experiment("EngineModes")
def test_book_rows_follow_movers():
    pytest.importorskip("numpy")
    # batch_rank's configuration, but every budget a finite 10^11 cents
    # (an unbudgeted advertiser keeps no books, so moves none), through
    # the shared plan with the exec cache.  ~240 phrases a round display
    # ~720 ads to ~90 distinct winners, settle ~180 clicks and expire
    # ~700 ads; no budget binds.  Each scoring stage re-derives the
    # standing-column rows of the advertisers whose books moved since
    # the one before (columnar.book_rows_synced): one row per advertiser
    # a round moved (measured 89 a round), not one per display, click
    # or expiry (716 displays alone).  Exact counts, not a timing: they
    # hold on any runner.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=8,
        median_budget_cents=0, seed=0,
    )
    collector = MetricsCollector()
    engine = SharedAuctionEngine(
        _booked(advertisers), [0.3, 0.2, 0.1], rates,
        mode="shared", layout="columnar", exec_cache=True, seed=11,
        collector=collector,
    )
    rng = random.Random(16)
    phrases = sorted(rates)
    warm, counted = 20, 40
    displays = 0
    for index in range(warm + counted):
        occurring = [phrase for phrase in phrases if rng.random() < 0.5]
        if index == warm:
            synced = collector.counter(names.COLUMNAR_BOOK_ROWS_SYNCED)
        report = engine.run_round(occurring)
        if index >= warm:
            displays += report.displays
    displays /= counted
    per_round = (
        collector.counter(names.COLUMNAR_BOOK_ROWS_SYNCED) - synced
    ) / counted
    table = ExperimentTable(
        f"Book rows synced per round, shared + exec_cache ({counted} rounds)",
        ["displays/round", "rows synced/round", "ceiling"],
    )
    table.add(displays, per_round, BOOK_ROWS_PER_ROUND_CEILING)
    table.show()
    assert displays > BOOK_ROWS_PER_ROUND_CEILING
    assert 0 < per_round <= BOOK_ROWS_PER_ROUND_CEILING, (
        f"{per_round:.0f} book rows synced a round for {displays:.0f} "
        f"displays (ceiling {BOOK_ROWS_PER_ROUND_CEILING})"
    )


def _serve_scan_queries(rates, count):
    """serve_scan's trace shape: ``count`` Zipf-popular phrases."""
    rng = random.Random(16)
    phrases = sorted(rates)
    rng.shuffle(phrases)
    return rng.choices(
        phrases,
        [1.0 / rank for rank in range(1, len(phrases) + 1)],
        k=count,
    )


CACHED_SHARED_TICK_OVER_SCAN_CEILING = 2.45


@pytest.mark.experiment("EngineModes")
def test_cached_shared_tick_within_reach_of_the_scan():
    pytest.importorskip("numpy")
    # serve_scan's market and trace shape: the 8-component market with
    # log-normal budgets, one Zipf-popular phrase a tick, 200 warm ticks
    # then 2000 timed.  The shared plan with the exec cache serves the
    # same ticks as the unshared scan in this process, so the gate is a
    # ratio of median ticks and survives a slow box; the better of two
    # laps is kept.  Measured 2.74-2.87x while the exec cache drained
    # the change feed every tick, 2.22-2.41x diffing its own scores.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=8, seed=0,
    )
    warm = 200
    queries = _serve_scan_queries(rates, warm + 2000)
    configs = {
        "unshared": dict(mode="unshared"),
        "shared": dict(mode="shared", exec_cache=True),
    }

    def median_tick_ms(config):
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            layout="columnar", seed=11, **config,
        )
        samples = []
        allocations = []
        for index, phrase in enumerate(queries):
            start = time.perf_counter()
            report = engine.serve_query(phrase)
            if index >= warm:
                samples.append(time.perf_counter() - start)
            allocations.append(report.allocations)
        return statistics.median(samples) * 1e3, allocations

    best = {}
    outcomes = {}
    for _lap in range(2):
        for name, config in configs.items():
            ms, outcomes[name] = median_tick_ms(config)
            best[name] = min(best.get(name, ms), ms)
    ratio = best["shared"] / best["unshared"]
    table = ExperimentTable(
        f"Served tick, columnar: shared + exec_cache vs unshared scan "
        f"(median of {len(queries) - warm} ticks, best of 2 laps)",
        ["profile", "ms/tick", "x scan", "ceiling"],
    )
    table.add("unshared", best["unshared"], 1.0, "")
    table.add(
        "shared + exec_cache", best["shared"], ratio,
        CACHED_SHARED_TICK_OVER_SCAN_CEILING,
    )
    table.show()
    assert outcomes["shared"] == outcomes["unshared"]
    assert ratio <= CACHED_SHARED_TICK_OVER_SCAN_CEILING, (
        f"a cached shared tick is {ratio:.2f}x the unshared scan's "
        f"(ceiling {CACHED_SHARED_TICK_OVER_SCAN_CEILING}x)"
    )


SCORE_OVER_RANK_CEILING = 2.0


@pytest.mark.experiment("EngineModes")
def test_served_tick_scores_off_standing_columns():
    pytest.importorskip("numpy")
    # serve_scan's configuration: the 8-component market with log-normal
    # budgets (so budgets bind and the exact DP runs: it is part of the
    # score stage on both sides of the gate), one Zipf-popular phrase a
    # tick through the unshared scan.  Both totals come from one
    # session's engine.stage.* timers, so the gate is a ratio and
    # survives a slow box; the better of two sessions is kept.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=8, seed=0,
    )
    queries = _serve_scan_queries(rates, 2000)
    sessions = []
    for _lap in range(2):
        collector = MetricsCollector()
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="unshared", layout="columnar", seed=11, collector=collector,
        )
        throttled = 0
        for phrase in queries:
            throttled += engine.serve_query(phrase).debt_carriers_scored
        assert throttled > 1000, "no budget bound: the market was too easy"
        timers = collector.as_dict()["timers"]
        score = timers[names.ENGINE_STAGE_SCORE_TIMER]["total_s"]
        rank = timers[names.ENGINE_STAGE_RANK_TIMER]["total_s"]
        sessions.append((score / rank, score, rank))
    ratio, score, rank = min(sessions)
    table = ExperimentTable(
        f"Served tick, unshared scan: score vs rank ({len(queries)} queries, "
        "engine.stage.* totals, better of 2 sessions)",
        ["score (ms)", "rank (ms)", "score / rank", "ceiling"],
    )
    table.add(score * 1e3, rank * 1e3, ratio, SCORE_OVER_RANK_CEILING)
    table.show()
    assert ratio <= SCORE_OVER_RANK_CEILING, (
        f"scoring a served query costs {ratio:.2f}x ranking it "
        f"(ceiling {SCORE_OVER_RANK_CEILING}x)"
    )


KEPT_OVER_REBUILT_SCORE_CEILING = 0.8
REBUILT_SHARE_CEILING = 0.5


@pytest.mark.experiment("EngineModes")
def test_debt_round_scores_off_standing_distributions(monkeypatch):
    pytest.importorskip("numpy")
    # batch_debt's shape: one budgeted Fig. 4 component (250 advertisers,
    # 60 phrases, ~30 a round) through the shared plan with the exec
    # cache, 17 warm rounds (the click horizon + 1: the ledgers are
    # full) then 24 counted.  Both sessions replay the same rounds in
    # this process and read the engine's own engine.stage.score timer,
    # so the gate is a ratio and survives a slow box; the better of two
    # laps is kept.  A session with no room to keep anything is the
    # parent commit's stage 2: every failing carrier's problem built from
    # its ledger and its DP run, every round.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=1, seed=0,
    )
    rng = random.Random(16)
    phrases = sorted(rates)
    warm, counted = 17, 24
    rounds = [
        [phrase for phrase in phrases if rng.random() < 0.5]
        for _ in range(warm + counted)
    ]

    def session(cell_limit):
        monkeypatch.setattr(pipeline, "STANDING_THROTTLE_CELL_LIMIT", cell_limit)
        collector = MetricsCollector()
        engine = SharedAuctionEngine(
            advertisers, [0.3, 0.2, 0.1], rates,
            mode="shared", layout="columnar", exec_cache=True, seed=11,
            collector=collector,
        )
        allocations = []
        for index, occurring in enumerate(rounds):
            if index == warm:
                before = dict(collector.as_dict()["counters"])
            allocations.append(engine.run_round(occurring).allocations)
        after = collector.as_dict()
        scored, rebuilt = (
            after["counters"][name] - before[name]
            for name in (
                names.ENGINE_DEBT_CARRIERS_SCORED,
                names.COLUMNAR_THROTTLE_PROBLEMS_REBUILT,
            )
        )
        score_s = after["timers"][names.ENGINE_STAGE_SCORE_TIMER]["total_s"]
        return score_s, scored, rebuilt, allocations

    room = pipeline.STANDING_THROTTLE_CELL_LIMIT
    laps = [(session(room), session(0)) for _lap in range(2)]
    kept_s, scored, rebuilt, kept_allocations = min(kept for kept, _ in laps)
    scratch_s, scratch_scored, scratch_rebuilt, scratch_allocations = min(
        scratch for _, scratch in laps
    )
    table = ExperimentTable(
        f"Debt round, shared + exec_cache: engine.stage.score of {warm} + "
        f"{counted} rounds, problems kept vs rebuilt every round "
        "(better of 2 laps)",
        ["session", "score (ms)", "exact scorings", "rebuilt", "x rebuilt"],
    )
    table.add("kept", kept_s * 1e3, scored, rebuilt, kept_s / scratch_s)
    table.add("no room", scratch_s * 1e3, scratch_scored, scratch_rebuilt, 1.0)
    table.show()
    assert kept_allocations == scratch_allocations
    assert scratch_rebuilt == scratch_scored == scored > 1000
    assert rebuilt <= REBUILT_SHARE_CEILING * scored, (
        f"{rebuilt} of {scored} exact scorings rebuilt their problem "
        f"(ceiling {REBUILT_SHARE_CEILING})"
    )
    ratio = kept_s / scratch_s
    assert ratio <= KEPT_OVER_REBUILT_SCORE_CEILING, (
        f"scoring off kept problems costs {ratio:.2f}x rebuilding them "
        f"every round (ceiling {KEPT_OVER_REBUILT_SCORE_CEILING}x)"
    )


UNBUDGETED_OVER_BOOKED_CEILING = 0.8


@pytest.mark.experiment("EngineModes")
def test_unbudgeted_round_keeps_no_books():
    pytest.importorskip("numpy")
    # batch_rank's configuration: the 8-component market with unlimited
    # budgets through the shared plan with the exec cache, 5 warm rounds
    # then 80 timed.  The same market with every budget a finite 10^11
    # cents (_booked: every bid and outcome is the same) keeps an
    # outstanding ledger, expiry runs and book changes for every winner.
    # Both sessions replay the same rounds in this process and read the
    # engine's own engine.stage.* timers, so the gate is a ratio and
    # survives a slow box; the best of three laps is kept.  Measured
    # 0.54-0.68x.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=8,
        median_budget_cents=0, seed=0,
    )
    booked = _booked(advertisers)
    rng = random.Random(16)
    phrases = sorted(rates)
    warm, timed = 5, 80
    rounds = [
        [phrase for phrase in phrases if rng.random() < 0.5]
        for _ in range(warm + timed)
    ]
    stages = (names.ENGINE_STAGE_DELIVER_TIMER, names.ENGINE_STAGE_ALLOCATE_TIMER)

    def session(market):
        collector = MetricsCollector()
        engine = SharedAuctionEngine(
            market, [0.3, 0.2, 0.1], rates,
            mode="shared", layout="columnar", exec_cache=True, seed=11,
            collector=collector,
        )
        allocations = []
        for index, occurring in enumerate(rounds):
            if index == warm:
                before = collector.as_dict()["timers"]
            allocations.append(engine.run_round(occurring).allocations)
        after = collector.as_dict()["timers"]
        seconds = sum(
            after[stage]["total_s"] - before[stage]["total_s"]
            for stage in stages
        )
        return seconds, allocations, engine

    laps = [(session(advertisers), session(booked)) for _lap in range(3)]
    unbudgeted_s, allocations, engine = min(
        (free for free, _ in laps), key=lambda lap: lap[0]
    )
    booked_s, booked_allocations, booked_engine = min(
        (kept for _, kept in laps), key=lambda lap: lap[0]
    )
    ratio = unbudgeted_s / booked_s
    table = ExperimentTable(
        f"Unbudgeted round, shared + exec_cache: engine.stage.deliver + "
        f"allocate of {timed} rounds (best of 3 laps)",
        ["budgets", "deliver + allocate (ms)", "x booked", "ceiling"],
    )
    table.add("none", unbudgeted_s * 1e3, ratio, UNBUDGETED_OVER_BOOKED_CEILING)
    table.add("10^11 cents", booked_s * 1e3, 1.0, "")
    table.show()
    assert allocations == booked_allocations
    assert not engine.budget_manager.outstanding_counts()
    assert booked_engine.budget_manager.outstanding_counts()
    assert ratio <= UNBUDGETED_OVER_BOOKED_CEILING, (
        f"an unbudgeted round's deliver + allocate costs {ratio:.2f}x a "
        f"booked one's (ceiling {UNBUDGETED_OVER_BOOKED_CEILING}x)"
    )


BATCHED_OVER_SINGLE_CLICKS_CEILING = 0.3


@pytest.mark.experiment("EngineModes")
def test_a_round_of_displays_is_one_click_model_call():
    pytest.importorskip("numpy")
    # batch_rank's market: one sampled round through the shared plan;
    # its ~720 displays, as stage 4 hands them to the click model,
    # are captured.  Two models with one seed then take them -- one
    # record_displays call against one record_display call per display
    # -- and must schedule the same rows and leave the same stream.  The
    # gate is a ratio in this process, so it survives a slow box; each
    # lap times 20 fresh pairs and the best of three laps is kept.
    # Measured 0.14-0.15x.
    advertisers, rates = fig4_market(
        num_queries=60, num_advertisers=250, num_components=8,
        median_budget_cents=0, seed=0,
    )
    engine = SharedAuctionEngine(
        advertisers, [0.3, 0.2, 0.1], rates,
        mode="shared", layout="columnar", exec_cache=True, seed=11,
    )
    captured = []
    record_displays = engine.click_model.record_displays
    engine.click_model.record_displays = (
        lambda *args: captured.append(args) or record_displays(*args)
    )
    engine.run_round()
    ((display_round, *columns),) = captured
    rows = list(zip(*columns))

    def models():
        return [
            DelayedClickModel(
                engine.click_model.mean_delay_rounds,
                engine.click_model.horizon_rounds,
                random.Random(seed),
            )
            for seed in range(20)
        ]

    best = {}
    for _lap in range(3):
        batched, single = models(), models()
        start = time.perf_counter()
        for model in batched:
            model.record_displays(display_round, *columns)
        batched_s = time.perf_counter() - start
        start = time.perf_counter()
        for model in single:
            record_display = model.record_display
            for advertiser_id, price, ctr, handle in rows:
                record_display(advertiser_id, price, ctr, display_round, handle)
        single_s = time.perf_counter() - start
        best["batched"] = min(best.get("batched", batched_s), batched_s)
        best["single"] = min(best.get("single", single_s), single_s)
        for one, other in zip(batched, single):
            assert one._pending == other._pending
            assert one._rounds == other._rounds
            assert one._rng.getstate() == other._rng.getstate()
    ratio = best["batched"] / best["single"]
    table = ExperimentTable(
        f"Click model, one batch_rank round ({len(rows)} displays): one "
        f"call vs one call per display (20 models, best of 3 laps)",
        ["calls", "ms", "x per display", "ceiling"],
    )
    table.add("record_displays", best["batched"] * 1e3, ratio,
              BATCHED_OVER_SINGLE_CLICKS_CEILING)
    table.add("record_display", best["single"] * 1e3, 1.0, "")
    table.show()
    assert len(rows) > 500
    assert sum(model.pending_count for model in batched) > 0
    assert ratio <= BATCHED_OVER_SINGLE_CLICKS_CEILING, (
        f"one record_displays call costs {ratio:.2f}x a record_display "
        f"call per display (ceiling {BATCHED_OVER_SINGLE_CLICKS_CEILING}x)"
    )

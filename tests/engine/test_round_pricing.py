"""Stage 4's two slot arithmetics agree bit for bit (DESIGN sections 7 and 8).

``_allocate_phrase`` prices one phrase's slots with Python floats;
``_price_slots`` prices a whole round's slots as arrays.  The engine
picks between them from the slot count alone
(``ARRAY_PRICING_MIN_SLOTS``), so a round on either side of the
crossover must come out the same to the last bit -- prices (half-even
rounding on an exact half cent included), CTRs, skipped slots.

Both read stage 3's flat arrays (``RankedRound``), which every ranking
backend hands over: the fragment executor, the Section III round kernel
and the scan for a round of several phrases, and the one-phrase scan for
a round of one (a served tick).  That hand-off is held to the same
oracle, to arrays built from :class:`repro.reference.ReferenceEngine`'s
``TopKList``s and ``b̂``, and to building no ``TopKList`` at all.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advertiser import Advertiser
from repro.core.topk import TopKList
from repro.engine.pipeline import ARRAY_PRICING_MIN_SLOTS, SharedAuctionEngine
from repro.reference import ReferenceEngine
from repro.sharedsort.columnar import RankedRound
from repro.workloads.generator import MarketConfig, generate_market

from ..sharedsort.test_rank_round import ranked_lists

SLOT_FACTORS = (0.3, 0.2, 0.1)
K = len(SLOT_FACTORS)
PHRASES = tuple(f"p{index:02d}" for index in range(24))
# 0.0 (never displayed), powers of two (exact quotients), one above 1
# (the CTR cap) and ordinary factors.
CTR_FACTORS = (0.0, 0.25, 0.5, 1.0, 4.0, 0.3, 0.07, 0.9, 0.61, 0.125, 1.0, 0.5)
ADVERTISER_IDS = tuple(range(3, 3 + 2 * len(CTR_FACTORS), 2))


def _engine(mode: str) -> SharedAuctionEngine:
    rng = random.Random(17)
    advertisers = [
        Advertiser(
            advertiser_id,
            bid=1.0 + position / 10.0,
            ctr_factor=ctr_factor,
            phrases=frozenset(PHRASES),
            # Per-phrase factors, zero included, for the Section III mode.
            phrase_ctr_factors={
                phrase: rng.choice((0.0, 0.5, 1.0, rng.random()))
                for phrase in PHRASES[::3]
            },
        )
        for position, (advertiser_id, ctr_factor) in enumerate(
            zip(ADVERTISER_IDS, CTR_FACTORS)
        )
    ]
    return SharedAuctionEngine(
        advertisers,
        SLOT_FACTORS,
        {phrase: 1.0 for phrase in PHRASES},
        mode=mode,
        seed=0,
    )


ENGINES = {mode: _engine(mode) for mode in ("unshared", "shared-sort")}

# Eighths times 100 are exact, so x/8 over a power-of-two factor lands a
# price exactly on a half cent; mixed with arbitrary floats and zeros.
amounts = st.one_of(
    st.integers(min_value=0, max_value=48).map(lambda n: n / 8.0),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    st.just(0.0),
)
# Effective bids in cents: exact half cents (a price capped by b-hat
# then sits on one), whole cents, arbitrary floats.
bids = st.one_of(
    st.integers(min_value=0, max_value=900).map(lambda n: n / 2.0),
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
# Up to k + 1 ranked entries: fewer than the slots, exactly the slots
# (no runner-up for the last), and the full k + 1.
ranked = st.lists(
    st.tuples(amounts, st.sampled_from(ADVERTISER_IDS)),
    min_size=0,
    max_size=K + 1,
    unique_by=lambda entry: entry[1],
)


def _ranked_round(engine, phrases, rankings, bid_by_row):
    """``TopKList`` rankings laid end to end as stage 3 hands them over:
    each entry's store row, its ``c`` (``c_i^q`` under shared-sort) and
    its ``b̂`` off ``bid_by_row``."""
    store = engine._store
    ranked = [rankings[phrase].entries for phrase in phrases]
    flat = [entry for entries in ranked for entry in entries]
    ids = np.array([e.advertiser_id for e in flat], dtype=np.int64)
    rows = store.rows_of(ids)
    if engine.mode == "shared-sort":
        c = np.array(
            [
                engine._by_id[entry.advertiser_id].ctr_factor_for(phrase)
                for phrase, entries in zip(phrases, ranked)
                for entry in entries
            ],
            dtype=np.float64,
        )
    else:
        c = store.ctr_factors[rows]
    return RankedRound(
        phrases,
        K + 1,
        np.array([len(entries) for entries in ranked], dtype=np.int64),
        np.array([e.score for e in flat], dtype=np.float64),
        ids,
        c,
        np.asarray(bid_by_row, dtype=np.float64)[rows],
    )


def _scalar(engine, phrases, rankings, bid_by_row):
    """The scalar pricer over each phrase's ``TopKList``, with ``c`` and
    ``b̂`` looked up by id off the advertisers and ``bid_by_row``."""
    row_of = engine._store.row_of
    shown, rows = [], []
    for phrase in phrases:
        entries = rankings[phrase].entries
        ids = [entry.advertiser_id for entry in entries]
        ads = engine._allocate_phrase(
            ids,
            [float(bid_by_row[row_of(i)]) for i in ids],
            [entry.score for entry in entries],
            [
                engine._by_id[i].ctr_factor_for(phrase)
                if engine.mode == "shared-sort"
                else engine._by_id[i].ctr_factor
                for i in ids
            ],
        )
        shown.append(len(ads))
        rows.extend(ads)
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    return (shown, *columns)


@pytest.mark.parametrize("mode", sorted(ENGINES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_pricing_equals_the_scalar_loop_bit_for_bit(mode, data):
    engine = ENGINES[mode]
    # Both sides of the dispatch crossover (11 phrases x 3 slots).
    count = data.draw(
        st.integers(min_value=1, max_value=2 * ARRAY_PRICING_MIN_SLOTS // K)
    )
    phrases = PHRASES[:count]
    bid_by_row = data.draw(
        st.lists(
            bids, min_size=len(ADVERTISER_IDS), max_size=len(ADVERTISER_IDS)
        )
    )
    rankings = {
        phrase: TopKList(K + 1, data.draw(ranked)) for phrase in phrases
    }
    expected = _scalar(engine, phrases, rankings, bid_by_row)
    shown, slots, ids, prices, ctrs = engine._price_slots(
        phrases, _ranked_round(engine, phrases, rankings, bid_by_row)
    )
    assert (shown, slots, ids, prices) == expected[:4]
    # Bit for bit, not approximately: the floats feed the click draws.
    assert [ctr.hex() for ctr in ctrs] == [ctr.hex() for ctr in expected[4]]
    assert all(type(price) is int for price in prices)


def test_recorded_edges():
    # One phrase each: the half cent both ways (half-even), a price
    # capped by b-hat, score == 0, c == 0, no runner-up, one entry.
    engine = ENGINES["unshared"]
    a, b, c, zero_ctr = 5, 7, 9, 3  # factors 0.25, 0.5, 1.0, 0.0
    bid_by_row = np.full(engine._store.size, 1000.0)
    bid_by_row[engine._store.row_of(c)] = 40.5
    rankings = {
        # 0.125 / 1.0 * 100 = 12.5 -> 12; 0.375 -> 37.5 -> 38.
        "p00": TopKList(K + 1, [(3.0, c), (0.125, a)]),
        "p01": TopKList(K + 1, [(3.0, b), (0.375 * 0.5, a)]),
        # Capped by b-hat = 40.5 -> 40 (half-even again).
        "p02": TopKList(K + 1, [(3.0, c), (2.0, a)]),
        # score == 0 is skipped; the slot above it prices at 0 too.
        "p03": TopKList(K + 1, [(1.0, a), (0.5, c), (0.0, b)]),
        # c == 0 is skipped even with the best score.
        "p04": TopKList(K + 1, [(1.0, zero_ctr), (0.5, a), (0.25, b)]),
        # A lone bidder prices at 0 and is not displayed.
        "p05": TopKList(K + 1, [(1.0, a)]),
        "p06": TopKList(K + 1, []),
    }
    phrases = sorted(rankings)
    shown, slots, ids, prices, _ = engine._price_slots(
        phrases, _ranked_round(engine, phrases, rankings, bid_by_row)
    )
    assert (shown, slots, ids, prices) == _scalar(
        engine, phrases, rankings, bid_by_row
    )[:4]
    allocated = iter(zip(slots, ids, prices))
    by_phrase = {
        phrase: [next(allocated) for _ in range(count)]
        for phrase, count in zip(phrases, shown)
    }
    assert by_phrase == {
        "p00": [(0, c, 12)],
        "p01": [(0, b, 38)],
        "p02": [(0, c, 40)],
        "p03": [(0, a, 200)],
        "p04": [(1, a, 100)],
        "p05": [],
        "p06": [],
    }


# ----------------------------------------------------------------------
# pricing from the Section III round kernel's arrays
# ----------------------------------------------------------------------
SORT_SIZES = (1, 2, 3, 4, 5, 12)


def _sort_engine(reference: bool = False):
    """A shared-sort market whose phrases have 1, 2, 3 (fewer entries
    than the k + 1 asked for), 4 and more members, most of them with a
    per-phrase factor that differs from the advertiser's own."""
    rng = random.Random(23)
    advertisers = []
    for position, advertiser_id in enumerate(ADVERTISER_IDS):
        # Phrase i has SORT_SIZES[i % 6] members, a window of the
        # advertisers that starts one further along for each phrase.
        phrases = [
            phrase
            for index, phrase in enumerate(PHRASES)
            if (position - index) % len(ADVERTISER_IDS) < SORT_SIZES[index % 6]
        ]
        advertisers.append(
            Advertiser(
                advertiser_id,
                bid=1.0 + position / 10.0,
                ctr_factor=CTR_FACTORS[position],
                phrases=frozenset(phrases),
                phrase_ctr_factors={
                    phrase: rng.choice((0.0, 0.5, 1.0, rng.random()))
                    for phrase in phrases
                    if rng.random() < 0.7
                },
            )
        )
    return (ReferenceEngine if reference else SharedAuctionEngine)(
        advertisers, SLOT_FACTORS, {phrase: 1.0 for phrase in PHRASES},
        mode="shared-sort", seed=3,
    )


SORT_ENGINE = _sort_engine()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pricing_from_the_round_kernels_arrays(data):
    engine = SORT_ENGINE
    store = engine._store
    kernel = engine._columnar_sort
    # From one phrase up, through the slot-count crossover.
    count = data.draw(st.integers(min_value=1, max_value=len(PHRASES)))
    phrases = PHRASES[:count]
    bid_by_row = np.array(
        data.draw(
            st.lists(
                bids,
                min_size=len(ADVERTISER_IDS),
                max_size=len(ADVERTISER_IDS),
            )
        )
    )
    member = np.zeros(store.size, dtype=bool)
    for phrase in phrases:
        member[store.phrase_rows(phrase)] = True
    kernel.begin_round(bid_by_row, np.flatnonzero(member))
    ranked, _ = kernel.rank_round(phrases)
    assert isinstance(ranked, RankedRound)
    lens, _, ids, c, carried_bids = ranked.arrays
    assert carried_bids.tobytes() == bid_by_row[store.rows_of(ids)].tobytes()
    # What the kernel carries is c_i^q, not c_i.
    by_id = engine._by_id
    carried = iter(zip(ids.tolist(), c.tolist()))
    for phrase, entries in zip(phrases, lens.tolist()):
        assert entries == min(K + 1, len(store.phrase_rows(phrase)))
        for _ in range(entries):
            advertiser_id, factor = next(carried)
            assert factor == by_id[advertiser_id].ctr_factor_for(phrase)
    # The scalar oracle reads TopKLists built from the arrays, and
    # arrays rebuilt from those price the same.
    lists = ranked_lists(ranked)
    expected = _scalar(engine, phrases, lists, bid_by_row)
    rebuilt = _ranked_round(engine, phrases, lists, bid_by_row)
    for rankings in (ranked, rebuilt):
        shown, slots, shown_ids, prices, ctrs = engine._price_slots(
            phrases, rankings
        )
        assert (shown, slots, shown_ids, prices) == expected[:4]
        assert [x.hex() for x in ctrs] == [x.hex() for x in expected[4]]


def test_the_sort_market_has_the_cases_it_claims():
    store = SORT_ENGINE._store
    sizes = {len(store.phrase_rows(phrase)) for phrase in PHRASES}
    assert sizes == set(SORT_SIZES)
    overridden = [
        advertiser
        for advertiser in SORT_ENGINE.advertisers
        for phrase in advertiser.phrases
        if advertiser.ctr_factor_for(phrase) != advertiser.ctr_factor
    ]
    assert len(overridden) > len(PHRASES)


def test_shared_sort_rounds_across_the_pricing_crossover(monkeypatch):
    # Rounds sized around ARRAY_PRICING_MIN_SLOTS allocate exactly as
    # the reference does, whether stage 4 prices the round kernel's
    # arrays or the TopKLists it materializes from them.
    columnar, oracle = _sort_engine(), _sort_engine(reference=True)
    routes = []

    def recorded(name, original):
        def wrapper(*args):
            routes.append(name)
            return original(*args)
        return wrapper

    for name in ("_price_slots", "_allocate_phrase"):
        monkeypatch.setattr(
            columnar, name, recorded(name, getattr(columnar, name))
        )
    crossover = -(-ARRAY_PRICING_MIN_SLOTS // K)
    assert 1 < crossover < len(PHRASES)
    seen = set()
    displays = 0
    for count in (1, crossover - 1, crossover, len(PHRASES)) * 3:
        del routes[:]
        report = columnar.run_round(PHRASES[:count])
        expected = oracle.run_round(PHRASES[:count])
        assert report.allocations == expected.allocations
        displays += report.displays
        seen.add(tuple(sorted(set(routes))))
    assert displays
    assert seen == {("_allocate_phrase",), ("_price_slots",)}


class TestDispatch:
    """The route is chosen from the slot count alone."""

    ADVERTISERS = [
        Advertiser(i, bid=1.0 + i / 10, ctr_factor=0.5, phrases=frozenset(PHRASES))
        for i in range(1, 9)
    ]

    def _routes(self, monkeypatch, phrases):
        engine = SharedAuctionEngine(
            self.ADVERTISERS, SLOT_FACTORS, {p: 1.0 for p in PHRASES},
            mode="unshared", seed=1,
        )
        calls = {"scalar": 0, "array": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(
            engine, "_allocate_phrase",
            counted("scalar", engine._allocate_phrase),
        )
        monkeypatch.setattr(
            engine, "_price_slots", counted("array", engine._price_slots)
        )
        return engine.run_round(phrases), calls

    def test_crossover_is_the_module_constant(self, monkeypatch):
        below = (ARRAY_PRICING_MIN_SLOTS - 1) // K
        report, calls = self._routes(monkeypatch, PHRASES[:below])
        assert calls == {"scalar": below, "array": 0}
        above = below + 1
        assert above * K >= ARRAY_PRICING_MIN_SLOTS
        other, calls = self._routes(monkeypatch, PHRASES[:above])
        assert calls == {"scalar": 0, "array": 1}
        # Same session start, so the shared prefix of phrases allocates
        # identically through either route.
        for phrase in PHRASES[:below]:
            assert report.allocations[phrase] == other.allocations[phrase]
        assert report.displays and other.displays > report.displays

    def test_both_routes_allocate_as_the_reference(self, monkeypatch):
        below = (ARRAY_PRICING_MIN_SLOTS - 1) // K
        routes = set()
        for phrases in (PHRASES[:below], PHRASES):
            report, calls = self._routes(monkeypatch, phrases)
            routes.add(max(calls, key=calls.get))
            reference = ReferenceEngine(
                self.ADVERTISERS, SLOT_FACTORS, {p: 1.0 for p in PHRASES},
                mode="unshared", seed=1,
            )
            assert reference.run_round(phrases).allocations == report.allocations
        assert routes == {"scalar", "array"}


# ----------------------------------------------------------------------
# every round and every served tick hands stage 4 arrays
# ----------------------------------------------------------------------
BACKENDS = {
    "shared+exec_cache": dict(mode="shared", exec_cache=True),
    "shared": dict(mode="shared"),
    "unshared": dict(mode="unshared"),
    "shared-sort": dict(mode="shared-sort"),
}
CROSSOVER = -(-ARRAY_PRICING_MIN_SLOTS // K)  # phrases of k slots
DIFFERENTIAL_SEEDS = range(50)


def _wide_market(seed: int):
    """16 phrases, so a round can sit on either side of the crossover,
    of 2 to 7 bidders (fewer and more than the k + 1 ranked), sharing
    fragments; two thirds of the bidders on budgets that bind within a
    few rounds (so cached answers go stale), and per-phrase CTR factors
    for shared-sort."""
    market = generate_market(
        MarketConfig(
            num_categories=4,
            phrases_per_category=4,
            specialists_per_category=6,
            generalists=3,
            generalist_categories=2,
            phrase_interest=0.6,
            median_budget_cents=400,
            seed=seed,
        )
    )
    rng = random.Random(f"wide-{seed}")
    advertisers = [
        Advertiser(
            a.advertiser_id,
            bid=a.bid,
            ctr_factor=a.ctr_factor,
            daily_budget=(
                a.daily_budget if rng.random() < 2 / 3 else float("inf")
            ),
            phrases=a.phrases,
            phrase_ctr_factors={
                phrase: round(rng.uniform(0.3, 1.8), 3)
                for phrase in sorted(a.phrases)
                if rng.random() < 0.3
            },
        )
        for a in market.advertisers
    ]
    return advertisers, market.search_rates


def _wide_engine(advertisers, rates, seed, **config):
    return SharedAuctionEngine(
        advertisers, SLOT_FACTORS, rates, seed=seed, **config
    )


def _recorded_rankings(engine):
    """``(phrases, rankings)`` of every round stage 3 of ``engine`` ranks."""
    recorded = []
    rank = engine._rank_phrases

    def recording(phrases, *args):
        rankings = rank(phrases, *args)
        recorded.append((phrases, rankings))
        return rankings

    engine._rank_phrases = recording
    return recorded


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_no_round_or_tick_builds_a_topklist(monkeypatch, backend):
    advertisers, rates = _wide_market(0)
    phrases = sorted(rates)
    assert len(phrases) > CROSSOVER
    engine = _wide_engine(advertisers, rates, 5, **BACKENDS[backend])
    built = []
    inside = []
    from_ranked = TopKList.__dict__["from_ranked"].__func__
    init = TopKList.__init__

    def counted_from_ranked(cls, *args):
        if inside:
            built.append("from_ranked")
        return from_ranked(cls, *args)

    def counted_init(self, *args, **kwargs):
        if inside:
            built.append("__init__")
        init(self, *args, **kwargs)

    monkeypatch.setattr(
        TopKList, "from_ranked", classmethod(counted_from_ranked)
    )
    monkeypatch.setattr(TopKList, "__init__", counted_init)
    for stage in ("_rank_phrases", "_allocate_round"):
        method = getattr(engine, stage)

        def staged(*args, method=method):
            inside.append(True)
            try:
                return method(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(engine, stage, staged)
    rankings = _recorded_rankings(engine)
    displays = 0
    for count in (1, CROSSOVER, len(phrases), 2, CROSSOVER + 2) * 2:
        displays += engine.run_round(phrases[:count]).displays
        displays += engine.serve_query(phrases[count % len(phrases)]).displays
    assert displays
    assert all(isinstance(r, RankedRound) for _, r in rankings)
    assert built == []
    # The counting is live: a list built inside a stage is counted.
    inside.append(True)
    ranked_lists(rankings[0][1])
    TopKList(K + 1)
    inside.pop()
    assert {"from_ranked", "__init__"} <= set(built)


def _assert_same_rankings(engine, phrases, columnar, reference, bids):
    # Every backend, the one-phrase scan included, hands over arrays.
    assert isinstance(columnar, RankedRound)
    assert columnar.phrases == tuple(phrases)
    store = engine._store
    bid_by_row = np.zeros(store.size)
    bid_by_row[store.rows_of(list(bids))] = list(bids.values())
    expected = _ranked_round(engine, phrases, reference, bid_by_row)
    for got, want in zip(columnar.arrays, expected.arrays):
        assert got.dtype == want.dtype
        # Bit for bit: the floats are compared as their bytes.
        assert got.tobytes() == want.tobytes()


def _reference_rankings(reference):
    """Each phrase's ``TopKList`` as the reference ranks it, collected
    until the caller clears them, and the ``b̂`` map it ranked by."""
    ranked = {}
    bids = {}
    rank = reference._rank

    def recording(phrase, bid_of, *args):
        ranked[phrase] = rank(phrase, bid_of, *args)
        bids.update(bid_of)
        return ranked[phrase]

    reference._rank = recording
    return ranked, bids


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_every_backend_hands_over_the_reference_rankings(backend, seed):
    # Lockstep, as the reference differential drives it: each round's
    # rankings from the engine's backend against arrays built from the
    # reference's TopKLists, for rounds below, at and above the slot
    # crossover, one-phrase rounds and a served tick included.
    advertisers, rates = _wide_market(seed)
    phrases = sorted(rates)
    config = dict(BACKENDS[backend])
    columnar = _wide_engine(advertisers, rates, seed, **config)
    config.pop("exec_cache", None)
    reference = ReferenceEngine(
        advertisers, SLOT_FACTORS, rates, seed=seed, **config
    )
    got = _recorded_rankings(columnar)
    want, want_bids = _reference_rankings(reference)
    rng = random.Random(seed)
    rounds = [
        phrases,
        sorted(rng.sample(phrases, CROSSOVER - 1)),
        sorted(rng.sample(phrases, CROSSOVER)),
        phrases[:1],
        None,
        phrases,
    ]
    compared = 0

    def compare(occurring):
        nonlocal compared
        if not occurring:
            assert not got and not want
            return
        ((same, mine),) = got
        assert same == tuple(occurring) and list(want) == list(occurring)
        _assert_same_rankings(columnar, same, mine, want, want_bids)
        got.clear()
        want.clear()
        want_bids.clear()
        compared += 1

    for occurring in rounds:
        if occurring is None:
            occurring = reference.sample_occurring_phrases()
        columnar._rng.setstate(reference._rng.getstate())
        report = columnar.run_round(occurring)
        assert report.allocations == reference.run_round(occurring).allocations
        reference._rng.setstate(columnar._rng.getstate())
        compare(occurring)
    tick = columnar.serve_query(phrases[3])
    assert tick.allocations == reference.serve_query(phrases[3]).allocations
    compare(phrases[3:4])
    assert compared >= len(rounds)

"""Tests for the engine's Section III mode: rankings by ``c_i^q``.

A round of several phrases is one scan of its cells scored with the
per-phrase CTR factors; the shared sort and threshold algorithm of
Section III are a library result (:mod:`repro.sharedsort.threshold`).
"""

from __future__ import annotations

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import SharedAuctionEngine
from repro.instrument import MetricsCollector, names
from repro.reference import ReferenceEngine

from .round_scans import assert_scanned_with_phrase_ctrs, watch_round_scans


def population(per_phrase_factors: bool):
    phrases = ("books", "dvds", "music")
    advertisers = []
    for i in range(15):
        mine = tuple(p for j, p in enumerate(phrases) if (i + j) % 2 == 0) or (
            "books",
        )
        overrides = {}
        if per_phrase_factors:
            overrides = {p: 0.5 + ((i * 7 + len(p)) % 10) / 10 for p in mine}
        advertisers.append(
            Advertiser(
                i,
                bid=0.5 + (i * 13 % 17) / 10,
                ctr_factor=0.8 + (i % 5) / 10,
                phrases=frozenset(mine),
                phrase_ctr_factors=overrides,
            )
        )
    return advertisers, phrases


def build(mode, per_phrase_factors=True, seed=5, reference=False):
    advertisers, phrases = population(per_phrase_factors)
    return (ReferenceEngine if reference else SharedAuctionEngine)(
        advertisers,
        slot_factors=[0.3, 0.2],
        search_rates={p: 0.8 for p in phrases},
        mode=mode,
        throttle=False,
        seed=seed,
    )


class TestSharedSortMode:
    def test_runs_and_counts_work(self):
        engine = build("shared-sort")
        report = engine.run(20)
        assert report.displays > 0
        assert report.scans > 0
        assert report.merges == 0

    def test_matches_unshared_when_factors_are_global(self):
        """With phrase-independent factors both mechanisms agree with the
        reference on every outcome (the exactness guarantee extends to
        Section III)."""
        reports = {}
        for mode, reference in (
            ("shared", False),
            ("unshared", True),
            ("shared-sort", False),
        ):
            engine = build(
                mode, per_phrase_factors=False, seed=7, reference=reference
            )
            reports[mode] = engine.run(30)
        assert (
            reports["shared"].revenue_cents
            == reports["unshared"].revenue_cents
            == reports["shared-sort"].revenue_cents
        )
        assert (
            reports["shared"].displays
            == reports["unshared"].displays
            == reports["shared-sort"].displays
        )

    def test_per_phrase_factors_change_rankings(self):
        """The point of Section III: per-phrase factors can reorder
        winners, so shared-sort mode and plain shared mode (which ignores
        the overrides) may genuinely differ."""
        with_overrides = build("shared-sort", per_phrase_factors=True, seed=3)
        without = build("shared-sort", per_phrase_factors=False, seed=3)
        report_a = with_overrides.run(25)
        report_b = without.run(25)
        # Identical query/click randomness, different scoring: revenue
        # differs (overwhelmingly likely given the factor spread).
        assert report_a.revenue_cents != report_b.revenue_cents

    def test_rankings_use_per_phrase_scores(self):
        advertisers = [
            Advertiser(
                0,
                bid=1.0,
                ctr_factor=1.0,
                phrases=frozenset({"p"}),
                phrase_ctr_factors={"p": 2.0},
                daily_budget=100.0,
            ),
            Advertiser(
                1,
                bid=1.5,
                ctr_factor=1.0,
                phrases=frozenset({"p"}),
                phrase_ctr_factors={"p": 1.0},
                daily_budget=100.0,
            ),
        ]
        engine = SharedAuctionEngine(
            advertisers,
            slot_factors=[0.4],
            search_rates={"p": 1.0},
            mode="shared-sort",
            throttle=False,
            mean_click_delay_rounds=0.0,
            seed=1,
        )
        engine.run_round(["p"])
        # Advertiser 0 scores 1.0 * 2.0 = 2.0 > 1.5: it must have won and
        # been displayed (spend recorded as outstanding -- both are
        # budgeted, since an unbudgeted advertiser keeps no ledger).
        counts = engine.budget_manager.outstanding_counts()
        assert list(counts) == [0]

    def test_deterministic(self):
        a = build("shared-sort", seed=11).run(15)
        b = build("shared-sort", seed=11).run(15)
        assert a.revenue_cents == b.revenue_cents
        assert a.scans == b.scans


def build_full(seed=5, **kwargs):
    advertisers, phrases = population(per_phrase_factors=True)
    return SharedAuctionEngine(
        advertisers,
        slot_factors=[0.3, 0.2],
        search_rates={p: 0.8 for p in phrases},
        mode="shared-sort",
        throttle=True,
        seed=seed,
        **kwargs,
    )


class TestRoundScan:
    def test_a_round_is_one_scan_of_its_cells(self, monkeypatch):
        # A round of several phrases is one scan of its (phrase, member)
        # cells scored with c_i^q: its scans are those cells, one
        # topk.scans per phrase, no merges and no threshold algorithm.
        # A round of one phrase is a scan of its members too.
        scans = watch_round_scans(monkeypatch)
        collector = MetricsCollector()
        engine = build_full(seed=3, collector=collector)
        history = engine.run(20).history
        history += [engine.run_round(["dvds"]), engine.serve_query("music")]
        sizes = {len(r.occurring_phrases) for r in history}
        assert 1 in sizes and max(sizes) > 1
        for round_report in history:
            phrases = round_report.occurring_phrases
            cells = sum(
                len(engine.phrase_advertisers[phrase]) for phrase in phrases
            )
            counters = round_report.counters
            assert round_report.merges == 0
            assert round_report.scans == cells
            assert counters.get(names.TOPK_SCANS, 0) == len(phrases)
            assert counters.get(names.TOPK_SCAN_ENTRIES, 0) == cells
            assert not [name for name in counters if name.startswith("ta.")]
        assert len(scans) == sum(len(r.occurring_phrases) > 1 for r in history)
        assert_scanned_with_phrase_ctrs(scans)

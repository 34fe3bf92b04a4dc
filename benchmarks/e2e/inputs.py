"""Benchmark-owned seeded input generation.

Everything a workload feeds the engine is generated here with
``random.Random`` as plain tuples, in two parts:

* the **dataset**: the advertiser market (Fig. 4 coin-flip topology tiled
  into disjoint components, log-normal bids and budgets, optional
  per-(advertiser, phrase) CTR factors) and the popularity ranking of
  its phrases.  It is the same for every seed: the Section IV DP cost
  of ``batch_debt`` sits on the dozen log-normal budgets of the current
  top bidders, and drawing those per seed as well roughly doubled the
  spread between seeds that the traffic alone causes;
* the **traffic**, drawn from ``--seed`` and the lap number: which
  phrases occur in each batch round, the Poisson/Zipf arrival trace of a
  serving session, and the ``seed=`` the engine simulates user clicks
  with.  Every lap of a run is its own draw, so a run that fits several
  laps averages over several traffic histories.

The module imports nothing from ``repro``: edits to ``repro.workloads``
or ``repro.serving.traffic`` must not be able to change what the
benchmark measures.  Each part has its own string-keyed RNG stream
(string seeding hashes with SHA-512, so it does not depend on
``PYTHONHASHSEED``) consumed component by component; that is what makes
``batch_sort`` "``batch_rank`` plus per-phrase CTRs", ``batch_debt`` the
first component of the serving market, and the two serving workloads
share one market and one trace.  :meth:`Inputs.sha256` fingerprints the
generated data; the seed-0 fingerprints are pinned in ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SLOT_FACTORS = (0.3, 0.2, 0.1)
PHRASES_PER_COMPONENT = 60
ADVERTISERS_PER_COMPONENT = 250
MEMBERSHIP_PROBABILITY = 0.5
SEARCH_RATE = 0.5
MEDIAN_BID_CENTS = 120
MEDIAN_BUDGET_CENTS = 1500
LOGNORMAL_SIGMA = 0.6
ZIPF_EXPONENT = 1.0

# (advertiser_id, bid_cents, ctr_factor, budget_cents or None, phrases,
#  ((phrase, ctr_factor), ...)) -- phrases and overrides sorted by phrase.
AdvertiserRow = Tuple[
    int, int, float, Optional[int], Tuple[str, ...], Tuple[Tuple[str, float], ...]
]


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs.

    Attributes:
        seed: The traffic seed.
        lap: Which of the seed's traffic draws this is.
        engine_seed: The ``seed=`` handed to the engine (click
            simulation), derived from ``seed``.
        advertisers: The market, ascending advertiser id.
        phrases: Every bid phrase, sorted.
        rounds: Batch workloads: the occurring phrases of each round, in
            order (warm-up rounds first).  Empty for serving workloads.
        arrivals: Serving workloads: ``(arrival_time, phrase)`` at unit
            mean rate (the driver rescales to the workload's rate), in
            arrival order (warm-up queries first).  Empty for batch.
    """

    seed: int
    lap: int
    engine_seed: int
    advertisers: Tuple[AdvertiserRow, ...]
    phrases: Tuple[str, ...]
    rounds: Tuple[Tuple[str, ...], ...] = ()
    arrivals: Tuple[Tuple[float, str], ...] = ()

    def sha256(self) -> str:
        """Fingerprint of everything the engine will be fed."""
        digest = hashlib.sha256()
        for part in (
            [self.seed, self.lap, self.engine_seed, list(SLOT_FACTORS),
             SEARCH_RATE],
            self.advertisers,
            self.phrases,
            self.rounds,
            self.arrivals,
        ):
            digest.update(json.dumps(part, separators=(",", ":")).encode())
            digest.update(b"\n")
        return digest.hexdigest()


def _stream(name: str, key: object) -> random.Random:
    return random.Random(f"benchmarks/e2e/{name}/{key}")


def _lognormal_cents(rng: random.Random, median_cents: int) -> int:
    value = median_cents * math.exp(rng.gauss(0.0, LOGNORMAL_SIGMA))
    return max(1, int(round(value)))


def _component_topology(rng: random.Random) -> List[frozenset]:
    """Fig. 4: each phrase's advertiser set by fair coin flips, redrawing
    duplicates and sets too small to auction."""
    seen = set()
    members: List[frozenset] = []
    while len(members) < PHRASES_PER_COMPONENT:
        drawn = frozenset(
            local
            for local in range(ADVERTISERS_PER_COMPONENT)
            if rng.random() < MEMBERSHIP_PROBABILITY
        )
        if len(drawn) < 2 or drawn in seen:
            continue
        seen.add(drawn)
        members.append(drawn)
    return members


def generate_market(
    components: int, budgets: bool, phrase_ctrs: bool
) -> Tuple[Tuple[AdvertiserRow, ...], Tuple[str, ...]]:
    """The dataset: ``components`` disjoint Fig. 4 sub-markets."""
    topology = _stream("dataset", "topology")
    bids = _stream("dataset", "bids")
    budget_stream = _stream("dataset", "budgets")
    ctr_stream = _stream("dataset", "phrase-ctr")
    rows: List[AdvertiserRow] = []
    phrases: List[str] = []
    for component in range(components):
        phrases_of: Dict[int, List[str]] = {}
        for index, members in enumerate(_component_topology(topology)):
            phrase = f"c{component}q{index:02d}"
            phrases.append(phrase)
            for local in members:
                phrases_of.setdefault(local, []).append(phrase)
        for local in range(ADVERTISERS_PER_COMPONENT):
            # Draw for every advertiser, in every stream, whether or not
            # the workload uses the value: the streams stay aligned, so
            # leaving a part out never changes the parts kept.
            bid_cents = _lognormal_cents(bids, MEDIAN_BID_CENTS)
            ctr_factor = round(bids.uniform(0.5, 1.5), 3)
            budget_cents = _lognormal_cents(budget_stream, MEDIAN_BUDGET_CENTS)
            own = tuple(sorted(phrases_of.get(local, ())))
            overrides = tuple(
                (phrase, round(ctr_stream.uniform(0.5, 1.5), 3))
                for phrase in own
            )
            if not own:
                continue
            rows.append(
                (
                    component * ADVERTISERS_PER_COMPONENT + local,
                    bid_cents,
                    ctr_factor,
                    budget_cents if budgets else None,
                    own,
                    overrides if phrase_ctrs else (),
                )
            )
    return tuple(rows), tuple(sorted(phrases))


def generate_rounds(
    traffic: str, phrases: Tuple[str, ...], count: int
) -> Tuple[Tuple[str, ...], ...]:
    """Per round, each phrase occurs independently with ``SEARCH_RATE``."""
    rng = _stream("rounds", traffic)
    return tuple(
        tuple(p for p in phrases if rng.random() < SEARCH_RATE)
        for _ in range(count)
    )


def generate_arrivals(
    traffic: str, phrases: Tuple[str, ...], count: int
) -> Tuple[Tuple[float, str], ...]:
    """A unit-rate Poisson process marked with Zipf-popular phrases.

    The popularity ranking is part of the dataset: a fixed shuffle of
    the phrases, so the head of the Zipf law spreads over components.
    """
    ranked = list(phrases)
    _stream("dataset", "popularity").shuffle(ranked)
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank**ZIPF_EXPONENT
        cumulative.append(total)
    rng = _stream("arrivals", traffic)
    clock = 0.0
    arrivals: List[Tuple[float, str]] = []
    for _ in range(count):
        clock += -math.log(1.0 - rng.random())
        rank = min(
            bisect_right(cumulative, rng.random() * total), len(ranked) - 1
        )
        arrivals.append((clock, ranked[rank]))
    return tuple(arrivals)


def generate(
    seed: int,
    lap: int,
    components: int,
    budgets: bool,
    phrase_ctrs: bool,
    rounds: int = 0,
    queries: int = 0,
) -> Inputs:
    """All inputs of one lap of one workload (see :class:`Inputs`)."""
    advertisers, phrases = generate_market(components, budgets, phrase_ctrs)
    traffic = f"{seed}/{lap}"
    return Inputs(
        seed=seed,
        lap=lap,
        engine_seed=1_000_003 * seed + 1_009 * lap + 17,
        advertisers=advertisers,
        phrases=phrases,
        rounds=generate_rounds(traffic, phrases, rounds),
        arrivals=generate_arrivals(traffic, phrases, queries),
    )

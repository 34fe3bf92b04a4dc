"""Sharded parallel engine over fragment-connected components.

The shared winner-determination problem decomposes exactly: two phrases
interact only through advertisers they share (budgets, throttle
problems, plan fragments), so the *connected components* of the
phrase-advertiser bipartite graph are fully independent sub-markets --
no advertiser, budget ledger, plan fragment, or sort stream crosses a
component boundary.  :class:`ShardedEngine` exploits this by
partitioning components across ``multiprocessing`` workers, each running
its own complete :class:`repro.engine.pipeline.SharedAuctionEngine` --
a shared-nothing exec cache, its own budget books -- and merging
results only at the boundary:

- per-round reports are merged phrase-disjointly (allocations are a
  dict union; money and work counters are sums);
- spent snapshots are the union of the shards' books.

Determinism contract: a fixed ``(advertisers, slot_factors,
search_rates, shards, seed, engine kwargs)`` tuple yields a
bit-identical run.  With ``shards=1`` the single worker receives the
*original* advertiser tuple and the master seed, so its output is
byte-identical to the sequential engine (the sharded differential
asserts this).  With ``shards>1`` each shard samples its own phrase
occurrences and click delays from ``seed + 7919 * shard`` -- runs are
reproducible, and any *explicitly supplied* occurring set resolves to
the same allocations as the sequential engine because components do not
interact; only the sampled traffic differs between shard counts.

When sharding pays: workers are real processes, so the per-round cost
is serialization of reports plus process scheduling.  Below a few
hundred advertisers per shard the IPC overhead dominates; the scaled
fig4 workloads (thousands of advertisers, hundreds of phrases, several
components) are where the scaling curve of EXPERIMENTS E20 turns
upward.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.advertiser import Advertiser
from repro.engine.pipeline import EngineReport, RoundReport
from repro.errors import InvalidAuctionError

__all__ = [
    "ShardedEngine",
    "connected_components",
    "assign_components",
    "merge_round_reports",
    "merge_engine_reports",
]


def connected_components(
    phrase_advertisers: Mapping[str, Sequence[int]],
) -> List[Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """Connected components of the phrase-advertiser bipartite graph.

    Returns:
        ``[(advertiser_ids, phrases), ...]`` -- each component's members,
        both ascending -- ordered by descending advertiser count, ties by
        first phrase (a deterministic order independent of dict/hash
        iteration).
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    for _, ids in sorted(phrase_advertisers.items()):
        for advertiser_id in ids:
            parent.setdefault(advertiser_id, advertiser_id)
        for other in ids[1:]:
            union(ids[0], other)

    members: Dict[int, List[int]] = {}
    for advertiser_id in sorted(parent):
        members.setdefault(find(advertiser_id), []).append(advertiser_id)
    phrases_of: Dict[int, List[str]] = {root: [] for root in members}
    for phrase, ids in sorted(phrase_advertisers.items()):
        phrases_of[find(ids[0])].append(phrase)
    components = [
        (tuple(ids), tuple(phrases_of[root]))
        for root, ids in members.items()
    ]
    components.sort(key=lambda c: (-len(c[0]), c[1][0]))
    return components


def assign_components(
    components: Sequence[Tuple[Tuple[int, ...], Tuple[str, ...]]],
    shards: int,
) -> List[int]:
    """Greedy balanced assignment: biggest component to lightest shard.

    Returns:
        One shard index per component (parallel to ``components``, which
        :func:`connected_components` already orders biggest-first --
        the classic LPT heuristic).  Ties go to the lowest shard index.
    """
    loads = [0] * shards
    assignment: List[int] = []
    for ids, _ in components:
        shard = min(range(shards), key=lambda s: (loads[s], s))
        assignment.append(shard)
        loads[shard] += len(ids)
    return assignment


def merge_round_reports(reports: Sequence[RoundReport]) -> RoundReport:
    """Fold per-shard round reports into the round's global report.

    Shards own disjoint phrase sets, so allocations merge by dict union;
    everything else is a sum.  Counter deltas merge by summing, matching
    :meth:`EngineReport.absorb`.
    """
    if not reports:
        raise InvalidAuctionError("cannot merge zero round reports")
    round_index = reports[0].round_index
    occurring: List[str] = []
    for report in reports:
        if report.round_index != round_index:
            raise InvalidAuctionError(
                f"shards disagree on round index: {round_index} vs "
                f"{report.round_index}"
            )
        occurring.extend(report.occurring_phrases)
    merged = RoundReport(round_index, tuple(sorted(occurring)))
    for report in reports:
        merged.merges += report.merges
        merged.scans += report.scans
        merged.revenue_cents += report.revenue_cents
        merged.forgiven_cents += report.forgiven_cents
        merged.displays += report.displays
        merged.clicks += report.clicks
        merged.expired_ads += report.expired_ads
        merged.debt_carriers_scored += report.debt_carriers_scored
        merged.allocations.update(report.allocations)
        if report.counters is not None:
            if merged.counters is None:
                merged.counters = {}
            for name, value in report.counters.items():
                merged.counters[name] = merged.counters.get(name, 0) + value
    return merged


def merge_engine_reports(reports: Sequence[EngineReport]) -> EngineReport:
    """Fold per-shard run reports into one global report.

    Histories are zipped round by round through
    :func:`merge_round_reports`; the money totals are then overwritten
    with the shard sums because an :class:`EngineReport` includes the
    end-of-run click flush, which settles outside any round.
    """
    if not reports:
        raise InvalidAuctionError("cannot merge zero engine reports")
    lengths = {len(report.history) for report in reports}
    if len(lengths) != 1:
        raise InvalidAuctionError(
            f"shards disagree on round count: {sorted(lengths)}"
        )
    merged = EngineReport()
    for per_shard in zip(*[report.history for report in reports]):
        merged.absorb(merge_round_reports(per_shard))
    merged.revenue_cents = sum(r.revenue_cents for r in reports)
    merged.forgiven_cents = sum(r.forgiven_cents for r in reports)
    merged.clicks = sum(r.clicks for r in reports)
    return merged


def _shard_worker(conn, advertisers, slot_factors, search_rates, kwargs):
    """Worker loop: one complete engine, commands in, results out.

    Module-level so it pickles under every multiprocessing start method.
    Replies are ``("ok", payload)`` or ``("err", traceback_text)``; the
    worker keeps serving after an error so one bad command cannot wedge
    the whole fleet.
    """
    from repro.engine.pipeline import SharedAuctionEngine

    try:
        engine = SharedAuctionEngine(
            advertisers, slot_factors, search_rates, **kwargs
        )
    except Exception:
        conn.send(("err", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        command = message[0]
        try:
            if command == "run":
                payload = engine.run(message[1])
            elif command == "round":
                payload = engine.run_round(message[1])
            elif command == "settle":
                payload = engine.settle_remaining_clicks()
            elif command == "spent":
                payload = engine.budget_manager.spent_snapshot()
            elif command == "stats":
                payload = {
                    "advertisers": len(engine.advertisers),
                    "phrases": len(engine.phrase_advertisers),
                    "rounds": engine._round_index,
                    "spent": engine.budget_manager.spent_snapshot(),
                }
            elif command == "close":
                conn.send(("ok", None))
                break
            else:
                raise InvalidAuctionError(f"unknown command {command!r}")
            conn.send(("ok", payload))
        except Exception:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class ShardedEngine:
    """Parallel shared winner determination across component shards.

    Args:
        advertisers: The full advertiser population.
        slot_factors: As for :class:`SharedAuctionEngine`.
        search_rates: As for :class:`SharedAuctionEngine`.
        shards: Requested worker count.  The effective count is
            ``min(shards, number of components)`` -- a component is the
            unit of independence and cannot be split.
        seed: Master seed.  Shard 0 runs on it verbatim (which is what
            makes ``shards=1`` byte-identical to the sequential engine);
            shard ``s`` runs on ``seed + 7919 * s``.
        **engine_kwargs: Forwarded to every worker's
            :class:`SharedAuctionEngine` (``mode``, ``throttle``,
            cache switches, ...).  ``collector`` is
            rejected: collectors are in-process objects, and each worker
            already attaches per-round counter deltas to its reports,
            which the merge sums.

    Raises:
        InvalidAuctionError: On a non-positive shard count, a
            ``collector``/``seed`` in ``engine_kwargs``, or a worker
            failing to construct its engine.
    """

    def __init__(
        self,
        advertisers: Sequence[Advertiser],
        slot_factors: Sequence[float],
        search_rates: Mapping[str, float],
        shards: int = 2,
        seed: int = 0,
        **engine_kwargs,
    ) -> None:
        if shards <= 0:
            raise InvalidAuctionError(
                f"shards must be positive, got {shards}"
            )
        if "collector" in engine_kwargs:
            raise InvalidAuctionError(
                "sharded engines run workers in separate processes and "
                "cannot share a collector; read per-round counter deltas "
                "from the merged reports instead"
            )
        if "seed" in engine_kwargs:
            raise InvalidAuctionError(
                "pass seed to ShardedEngine directly; workers derive "
                "their own from it"
            )
        self.advertisers = tuple(advertisers)
        phrase_map: Dict[str, List[int]] = {}
        for advertiser in self.advertisers:
            for phrase in sorted(advertiser.phrases):
                phrase_map.setdefault(phrase, []).append(
                    advertiser.advertiser_id
                )
        phrase_advertisers = {
            phrase: tuple(sorted(ids))
            for phrase, ids in sorted(phrase_map.items())
        }
        self.components = connected_components(phrase_advertisers)
        self.shards = max(1, min(shards, len(self.components)))
        self.requested_shards = shards
        assignment = assign_components(self.components, self.shards)
        self._shard_of_phrase: Dict[str, int] = {}
        shard_ids: List[set] = [set() for _ in range(self.shards)]
        for (ids, phrases), shard in zip(self.components, assignment):
            shard_ids[shard].update(ids)
            for phrase in phrases:
                self._shard_of_phrase[phrase] = shard
        by_id = {a.advertiser_id: a for a in self.advertisers}
        if self.shards == 1:
            # The original tuple, order included: the worker's engine is
            # then argument-identical to the sequential engine, which is
            # the byte-identity guarantee the differential tests pin.
            shard_advertisers = [self.advertisers]
        else:
            shard_advertisers = [
                tuple(
                    a
                    for a in self.advertisers
                    if a.advertiser_id in shard_ids[shard]
                )
                for shard in range(self.shards)
            ]
        shard_rates = [
            {
                phrase: float(search_rates.get(phrase, 1.0))
                for phrase, shard_owner in sorted(
                    self._shard_of_phrase.items()
                )
                if shard_owner == shard or self.shards == 1
            }
            for shard in range(self.shards)
        ]
        self._slot_factors = tuple(slot_factors)
        self._processes: List[multiprocessing.Process] = []
        self._pipes = []
        for shard in range(self.shards):
            parent_conn, child_conn = multiprocessing.Pipe()
            kwargs = dict(engine_kwargs)
            kwargs["seed"] = seed if shard == 0 else seed + 7919 * shard
            process = multiprocessing.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    shard_advertisers[shard],
                    self._slot_factors,
                    shard_rates[shard],
                    kwargs,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._processes.append(process)
        for shard in range(self.shards):
            self._receive(shard)  # constructor handshake

    # ------------------------------------------------------------------
    # worker protocol
    # ------------------------------------------------------------------
    def _receive(self, shard: int):
        status, payload = self._pipes[shard].recv()
        if status != "ok":
            raise InvalidAuctionError(
                f"shard {shard} failed:\n{payload}"
            )
        return payload

    def _broadcast(self, message) -> List:
        for pipe in self._pipes:
            pipe.send(message)
        return [self._receive(shard) for shard in range(self.shards)]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, rounds: int) -> EngineReport:
        """Run ``rounds`` rounds on every shard in parallel and merge."""
        return merge_engine_reports(self._broadcast(("run", rounds)))

    def run_round(
        self, occurring: Optional[Iterable[str]] = None
    ) -> RoundReport:
        """Resolve one round across all shards.

        Args:
            occurring: Explicit occurring phrases.  They are routed to
                their owning shards; every shard runs the round (a shard
                with none of the phrases still delivers due clicks and
                advances its round counter, exactly like the sequential
                engine on an empty occurring set).  ``None`` lets each
                shard sample its own phrases.
        """
        if occurring is None:
            messages = [("round", None)] * self.shards
        else:
            subsets: List[List[str]] = [[] for _ in range(self.shards)]
            for phrase in occurring:
                shard = self._shard_of_phrase.get(phrase)
                if shard is None:
                    raise InvalidAuctionError(
                        f"no advertisers bid on {[phrase]!r}"
                    )
                if phrase in subsets[shard]:  # before any shard runs
                    raise InvalidAuctionError(f"a phrase repeats: {phrase!r}")
                subsets[shard].append(phrase)
            messages = [("round", subsets[s]) for s in range(self.shards)]
        for shard, message in enumerate(messages):
            self._pipes[shard].send(message)
        return merge_round_reports(
            [self._receive(shard) for shard in range(self.shards)]
        )

    def settle_remaining_clicks(self) -> Tuple[int, int, int]:
        """Flush every shard's click model; sum the settlements."""
        results = self._broadcast(("settle",))
        return (
            sum(r[0] for r in results),
            sum(r[1] for r in results),
            sum(r[2] for r in results),
        )

    def spent_snapshot(self) -> Dict[int, int]:
        """The union of the shards' budget books, ordered by id."""
        merged: Dict[int, int] = {}
        for snapshot in self._broadcast(("spent",)):
            merged.update(snapshot)
        return dict(sorted(merged.items()))

    def stats(self) -> List[Dict]:
        """Per-shard population and progress figures."""
        return self._broadcast(("stats",))

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for shard, (pipe, process) in enumerate(
            zip(self._pipes, self._processes)
        ):
            if process.is_alive():
                try:
                    pipe.send(("close",))
                    self._receive(shard)
                except (BrokenPipeError, EOFError, OSError):
                    pass
            pipe.close()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self._processes = []
        self._pipes = []

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

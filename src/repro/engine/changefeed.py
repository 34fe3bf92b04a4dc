"""The engine's unified invalidation bus.

:class:`ChangeFeed` is one typed event stream: the engine (and
:class:`repro.engine.budget_manager.BudgetManager`) publish
:class:`BidChanged` / :class:`BudgetChanged` / churn events as they
happen, and each consumer subscribes to the kinds it cares about.  The
engine itself subscribes nothing -- its one cross-round cache, the
columnar exec cache, diffs its own scores -- so the consumers are
outside it:

- :class:`repro.plans.maintenance.PlanMaintainer` consumes churn events
  (:class:`AdvertiserAdded` / :class:`AdvertiserRemoved` /
  :class:`PhraseAdded` / :class:`PhraseRemoved`) through a push handler
  and repairs the plan, notifying its plan-change listeners;
- observers (a monitoring probe, a test) hold pull subscriptions and
  drain them when they like.

Consumers never import this module.  Events are duck-typed: every event
carries a ``kind`` string and a ``dirty_advertisers`` frozenset -- so
``repro.plans`` stays import-independent of ``repro.engine``.

Publishing is free when nobody listens: the engine guards every publish
site on :attr:`ChangeFeed.active`, so an uncached run constructs no
event objects at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import InvalidAuctionError
from repro.instrument import NULL, Collector, names as metric_names

__all__ = [
    "ChangeEvent",
    "BidChanged",
    "BudgetChanged",
    "AdvertiserAdded",
    "AdvertiserRemoved",
    "PhraseAdded",
    "PhraseRemoved",
    "RoundClosed",
    "QueryServed",
    "Subscription",
    "ChangeFeed",
    "EVENT_KINDS",
]

Variable = Hashable

_NO_EVENTS: List["ChangeEvent"] = []
"""Shared empty drain result; callers only iterate it, never mutate."""


@dataclass(frozen=True)
class ChangeEvent:
    """Base class for bus events.

    Every event exposes two duck-typed fields consumers read without
    importing this module:

    - ``kind``: a stable string tag used for subscription filtering;
    - ``dirty_advertisers``: the advertisers whose effective score or
      bid may differ because of this event (possibly empty).
    """

    kind = "change"

    @property
    def dirty_advertisers(self) -> FrozenSet[Variable]:
        """Advertisers this event may have moved (empty by default)."""
        return frozenset()


@dataclass(frozen=True)
class BidChanged(ChangeEvent):
    """An advertiser's effective bid moved for a reason the books cannot see.

    Published by the engine's scoring stage when a change of auction
    multiplicity moved the advertiser's effective bid (and the first
    time an advertiser is scored) -- a multiplicity change that leaves
    the bid where it was is not an event, consumers read bids and
    scores, never ``m`` -- and, under a decaying model, for every debt
    carrier each round (outstanding debt re-weighs).
    """

    advertiser_id: Variable
    kind = "bid_changed"

    @property
    def dirty_advertisers(self) -> FrozenSet[Variable]:
        return frozenset({self.advertiser_id})


@dataclass(frozen=True)
class BudgetChanged(ChangeEvent):
    """An advertiser's budget books moved in one booking call.

    The budget manager publishes one per *distinct* advertiser each
    call moved -- a stage's displays, a tick's settled clicks, an
    expiry -- in ascending id after the books are updated: "this
    advertiser's books moved in this call", not one event per movement.
    """

    advertiser_id: Variable
    kind = "budget_changed"

    @property
    def dirty_advertisers(self) -> FrozenSet[Variable]:
        return frozenset({self.advertiser_id})


@dataclass(frozen=True)
class AdvertiserAdded(ChangeEvent):
    """A new advertiser entered the market with its bid phrases."""

    advertiser_id: Variable
    phrases: FrozenSet[str] = frozenset()
    kind = "advertiser_added"

    @property
    def dirty_advertisers(self) -> FrozenSet[Variable]:
        return frozenset({self.advertiser_id})


@dataclass(frozen=True)
class AdvertiserRemoved(ChangeEvent):
    """An advertiser left the market entirely."""

    advertiser_id: Variable
    kind = "advertiser_removed"

    @property
    def dirty_advertisers(self) -> FrozenSet[Variable]:
        return frozenset({self.advertiser_id})


@dataclass(frozen=True)
class PhraseAdded(ChangeEvent):
    """A brand-new bid phrase appeared with its interested advertisers."""

    phrase: str
    advertiser_ids: FrozenSet[Variable] = frozenset()
    search_rate: float = 1.0
    kind = "phrase_added"

    @property
    def dirty_advertisers(self) -> FrozenSet[Variable]:
        return frozenset(self.advertiser_ids)


@dataclass(frozen=True)
class PhraseRemoved(ChangeEvent):
    """A bid phrase was retired (no advertiser bids on it anymore)."""

    phrase: str
    kind = "phrase_removed"


@dataclass(frozen=True)
class RoundClosed(ChangeEvent):
    """A round boundary: everything published before it belongs to the
    round, everything after to the next.  Carries no dirty set; consumers
    that snapshot per-round state key off it."""

    round_index: int
    kind = "round_closed"


@dataclass(frozen=True)
class QueryServed(ChangeEvent):
    """One query was resolved by the serving loop.

    Published by :class:`repro.serving.ServingEngine` after each
    query-at-a-time tick, for monitoring-style consumers (dashboards,
    admission control) that want the serving cadence without polling.
    Carries no dirty set: serving a query moves no bids by itself -- the
    budget and multiplicity consequences arrive as their own events.
    """

    query_index: int
    phrase: str
    kind = "query_served"


EVENT_KINDS: Tuple[str, ...] = (
    BidChanged.kind,
    BudgetChanged.kind,
    AdvertiserAdded.kind,
    AdvertiserRemoved.kind,
    PhraseAdded.kind,
    PhraseRemoved.kind,
    RoundClosed.kind,
    QueryServed.kind,
)
"""Every concrete event kind, in declaration order."""


class Subscription:
    """A pull-style subscription: events queue until :meth:`drain`.

    Create via :meth:`ChangeFeed.subscribe`.  Events published between
    two drains (click settlements, churn, the end-of-run flush)
    accumulate here and are consumed exactly once.
    """

    def __init__(
        self,
        feed: "ChangeFeed",
        name: str,
        kinds: Optional[FrozenSet[str]],
    ) -> None:
        self.feed = feed
        self.name = name
        self.kinds = kinds
        self._queue: List[ChangeEvent] = []

    @property
    def pending(self) -> int:
        """Events queued and not yet drained."""
        return len(self._queue)

    def matches(self, event: ChangeEvent) -> bool:
        """Whether this subscription receives ``event``."""
        return self.kinds is None or event.kind in self.kinds

    def drain(self) -> List[ChangeEvent]:
        """All queued events, in publication order; empties the queue.

        An empty queue returns a shared immutable-by-convention list
        without allocating: a consumer draining per served *query* mostly
        finds it empty, and that drain must cost nothing.
        """
        if not self._queue:
            return _NO_EVENTS
        drained, self._queue = self._queue, []
        self.feed._consumed(len(drained))
        return drained


class ChangeFeed:
    """One typed event bus between the engine and its incremental layers.

    Args:
        collector: Receives ``bus.events_published`` /
            ``bus.events_consumed`` increments.  The default no-op
            collector keeps the feed's own attributes as the only
            bookkeeping.

    Attributes:
        events_published: Lifetime count of published events.
        events_consumed: Lifetime count of deliveries -- queue drains
            plus push-handler invocations.  One event delivered to two
            subscribers counts twice; an event nobody matched counts
            zero, so ``consumed`` can legitimately run above or below
            ``published``.
    """

    def __init__(self, collector: Collector = NULL) -> None:
        self.collector = collector
        self.events_published = 0
        self.events_consumed = 0
        self._subscriptions: List[Subscription] = []
        self._handlers: List[
            Tuple[Optional[FrozenSet[str]], Callable[[ChangeEvent], None]]
        ] = []

    @property
    def active(self) -> bool:
        """Whether anything listens.  Publishers guard on this so an
        unsubscribed run pays nothing -- not even event construction."""
        return bool(self._subscriptions or self._handlers)

    def subscribe(
        self,
        name: str = "",
        kinds: Optional[Iterable[str]] = None,
    ) -> Subscription:
        """Register a pull-style subscriber.

        Args:
            name: Diagnostic label (shows up in traces).
            kinds: Event kinds to receive; ``None`` receives everything.

        Returns:
            The queue the caller drains each round.
        """
        subscription = Subscription(self, name, _as_kinds(kinds))
        self._subscriptions.append(subscription)
        return subscription

    def attach(
        self,
        handler: Callable[[ChangeEvent], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        """Register a push-style handler, called at publish time.

        Used by consumers that must react *immediately* -- the plan
        maintainer repairs the plan inside the publishing call so the
        very next round runs against the updated structure.  Handler
        exceptions propagate to the publisher.
        """
        self._handlers.append((_as_kinds(kinds), handler))

    def publish(self, event: ChangeEvent) -> None:
        """Deliver one event to every matching subscriber."""
        self.events_published += 1
        self.collector.incr(metric_names.BUS_EVENTS_PUBLISHED)
        for subscription in self._subscriptions:
            if subscription.matches(event):
                subscription._queue.append(event)
        for kinds, handler in self._handlers:
            if kinds is None or event.kind in kinds:
                handler(event)
                self._consumed(1)

    def publish_all(self, events: Iterable[ChangeEvent]) -> None:
        """Publish several events in order."""
        for event in events:
            self.publish(event)

    def _consumed(self, count: int) -> None:
        self.events_consumed += count
        self.collector.incr(metric_names.BUS_EVENTS_CONSUMED, count)


def _as_kinds(kinds: Optional[Iterable[str]]) -> Optional[FrozenSet[str]]:
    """Validate and freeze a kind filter (``None`` passes through)."""
    if kinds is None:
        return None
    frozen = frozenset(kinds)
    unknown = frozen - frozenset(EVENT_KINDS)
    if unknown:
        raise InvalidAuctionError(
            f"unknown event kinds {sorted(unknown)!r}; "
            f"valid kinds are {list(EVENT_KINDS)!r}"
        )
    return frozen

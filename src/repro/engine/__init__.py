"""Round-based auction engine tying the pieces together.

The engine is the "search provider" substrate: it batches incoming bid
phrases into rounds (:mod:`repro.engine.rounds`), resolves each round's
auctions with a shared plan or per-phrase scans
(:mod:`repro.engine.pipeline`), manages budgets and outstanding ads
(:mod:`repro.engine.budget_manager`), simulates delayed user clicks
(:mod:`repro.engine.click_model`), and broadcasts every state change on
one typed invalidation bus (:mod:`repro.engine.changefeed`) for whoever
subscribes -- plan maintenance, observers.
"""

from repro.engine.budget_manager import BudgetManager
from repro.engine.changefeed import (
    AdvertiserAdded,
    AdvertiserRemoved,
    BidChanged,
    BudgetChanged,
    ChangeEvent,
    ChangeFeed,
    PhraseAdded,
    PhraseRemoved,
    QueryServed,
    RoundClosed,
)
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import EngineReport, SharedAuctionEngine
from repro.engine.rounds import RoundBatcher, singleton_rounds
from repro.engine.sharded import ShardedEngine

__all__ = [
    "AdvertiserAdded",
    "AdvertiserRemoved",
    "BidChanged",
    "BudgetChanged",
    "BudgetManager",
    "ChangeEvent",
    "ChangeFeed",
    "DelayedClickModel",
    "EngineReport",
    "PhraseAdded",
    "PhraseRemoved",
    "QueryServed",
    "RoundBatcher",
    "RoundClosed",
    "SharedAuctionEngine",
    "ShardedEngine",
    "singleton_rounds",
]

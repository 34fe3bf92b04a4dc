"""Round-based auction engine tying the pieces together.

The engine is the "search provider" substrate: it batches incoming bid
phrases into rounds (:mod:`repro.engine.rounds`), resolves each round's
auctions with a shared plan or per-phrase scans
(:mod:`repro.engine.pipeline`), manages budgets and outstanding ads
(:mod:`repro.engine.budget_manager`), and simulates delayed user clicks
(:mod:`repro.engine.click_model`).  The market is fixed for an engine's
life: a new market is a new engine.
"""

from repro.engine.budget_manager import BudgetManager
from repro.engine.click_model import DelayedClickModel
from repro.engine.pipeline import EngineReport, SharedAuctionEngine
from repro.engine.rounds import RoundBatcher, singleton_rounds

__all__ = [
    "BudgetManager",
    "DelayedClickModel",
    "EngineReport",
    "RoundBatcher",
    "SharedAuctionEngine",
    "singleton_rounds",
]

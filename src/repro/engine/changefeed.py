"""What is left of the retired change feed: two names for one import.

``benchmarks/e2e/spans.py`` alone imports these classes and patches
``ChangeFeed.publish`` / ``Subscription.drain`` for its ``engine.feed_*``
rows.  Nothing in ``src/`` imports this module, and nothing calls either
method.  It is deleted with those rows (ROADMAP item 1a).
"""


class ChangeFeed:
    def publish(self, event) -> None:
        """Never called: nothing publishes."""


class Subscription:
    def drain(self) -> list:
        """Never called: nothing subscribes."""
        return []

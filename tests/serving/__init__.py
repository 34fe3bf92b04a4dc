"""Serving-loop suite: differential equivalence, traffic properties,
latency oracles, loop units."""

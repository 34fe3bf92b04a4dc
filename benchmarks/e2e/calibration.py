"""The machine's speed, measured while the workload runs.

The sandbox this benchmark is sized for is a 2-core microVM whose
single-thread speed moves between about 0.75x and 2x of its median in
phases of 5 to 30 seconds (other tenants; CPU time moves with wall time,
so it is speed, not preemption).  Ten plain wall-clock runs of
``batch_rank`` had their quartiles 30% of the median apart, twice the
regression bound the benchmark wants to enforce.

So every timed window is interleaved with runs of :func:`kernel`, a
fixed miniature of the engine's instruction mix owned by the benchmark
(a currency-unit dict DP, an ordered-dict ledger walk, ``argpartition``
and ``lexsort`` over a phrase-sized slice).  The *local slowdown* at an
operation is the median of the nearest kernel runs over
:data:`REFERENCE_S`, and a duration divided by it is a duration *at
reference speed*.  The same ten runs then had quartiles 6% apart.  All
end-to-end times are at reference speed; the plain wall-clock figures
and the slowdown are printed beside them as ``wall.*`` layer metrics.

The kernel shares no code with ``src/repro``, so a change to the program
cannot move the yardstick.
"""

from __future__ import annotations

import random
import statistics
from collections import OrderedDict
from time import perf_counter
from typing import List, Sequence

import numpy as np

REFERENCE_S = 0.001
"""Seconds one :func:`kernel` run takes at reference speed: about what
the development box needed in its quiet phases.  Any constant would do;
this one makes reference-speed figures read like a quiet box's wall
clock."""

WINDOW = 4
"""Kernel runs on either side that the local slowdown is the median of."""

_rng = random.Random("benchmarks/e2e/calibration")
_ADS = tuple(
    (_rng.randint(20, 200), _rng.uniform(0.05, 0.3)) for _ in range(16)
)
_BETA = 400
_LEDGER = OrderedDict(
    (handle, (_rng.randint(20, 200), _rng.uniform(0.05, 0.3), handle % 17))
    for handle in range(200)
)
_SCORES = np.array([_rng.random() for _ in range(125 * 8)])
_IDS = np.arange(len(_SCORES), dtype=np.int64)


def kernel() -> float:
    """Run the fixed calibration work once; returns its seconds."""
    start = perf_counter()
    dist = {0: 1.0}
    for price, ctr in _ADS:
        nxt: dict = {}
        for value, probability in dist.items():
            hit = min(_BETA, value + price)
            nxt[hit] = nxt.get(hit, 0.0) + probability * ctr
            nxt[value] = nxt.get(value, 0.0) + probability * (1.0 - ctr)
        dist = nxt
    [(price, ctr) for price, ctr, shown in _LEDGER.values() if shown < 16]
    for begin in range(0, len(_SCORES), 125):
        scores = _SCORES[begin:begin + 125]
        best = np.argpartition(-scores, 3)[:4]
        np.lexsort((_IDS[begin:begin + 125][best], -scores[best]))
    return perf_counter() - start


def slowdown(runs: int = 2 * WINDOW + 1) -> float:
    """The slowdown right now: median of ``runs`` kernel runs."""
    return statistics.median(kernel() for _ in range(runs)) / REFERENCE_S


def local_slowdowns(samples: Sequence[float]) -> List[float]:
    """Per kernel run, the median of it and its :data:`WINDOW`
    neighbours on either side, over :data:`REFERENCE_S`."""
    return [
        statistics.median(samples[max(0, at - WINDOW):at + WINDOW + 1])
        / REFERENCE_S
        for at in range(len(samples))
    ]

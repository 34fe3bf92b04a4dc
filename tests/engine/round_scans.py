"""What the engine's round scan ranked, and with which CTR factors.

Stage 3 ranks a round of several phrases under ``mode="unshared"`` or
``"shared-sort"`` by one :func:`repro.core.columnar.segmented_top_k_picks`
call over the round's cells; under ``"shared-sort"`` it scores them
with the store's ``c_i^q`` column (:meth:`ColumnarStore.cell_ctrs`).
:func:`watch_round_scans` records each such call beside the ``c_i^q``
read that preceded it, and :func:`assert_scanned_with_phrase_ctrs`
holds every record to its round.  On a market without per-phrase
overrides ``c_i^q == c_i`` and no outcome can tell them apart; the read
can.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import repro.engine.pipeline as pipeline
from repro.core.columnar import ColumnarStore

ScanRecord = Tuple[int, int, Optional[Tuple[int, int]]]


def watch_round_scans(monkeypatch) -> List[ScanRecord]:
    """Record every round scan of every engine while ``monkeypatch``
    holds.

    Returns:
        The records, appended as the scans run: per scan ``(segments,
        cells, read)``, where ``read`` is ``(phrases, cells)`` of the
        ``c_i^q`` read since the previous scan, or ``None`` without one.
    """
    scans: List[ScanRecord] = []
    reads = []
    cell_ctrs = ColumnarStore.cell_ctrs
    scan = pipeline.segmented_top_k_picks

    def reading(store, occurring):
        reads[:] = [(
            int(occurring.sum()), int(store.phrase_lens[occurring].sum())
        )]
        return cell_ctrs(store, occurring)

    def scanning(k, scores, ids, seg, seg_count):
        scans.append((seg_count, len(scores), reads.pop() if reads else None))
        return scan(k, scores, ids, seg, seg_count)

    monkeypatch.setattr(ColumnarStore, "cell_ctrs", reading)
    monkeypatch.setattr(pipeline, "segmented_top_k_picks", scanning)
    return scans


def assert_scanned_with_phrase_ctrs(scans: List[ScanRecord]) -> None:
    """Some round was scanned, and every scan ranked its phrases with
    ``c_i^q``: read for exactly the phrases (segments) and cells it
    ranked."""
    assert scans, "no round of several phrases reached the round scan"
    for segments, cells, read in scans:
        assert segments > 1
        assert read == (segments, cells), "a round was not scored by c_i^q"

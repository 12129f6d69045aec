"""Hot inner loops: LRU TLB replay and the trace-order array sum.

The LRU replay is interpreted Python: tlbsim hands it only the first
access of each same-page run, a few thousand on the benchmark traces. The
sum is numpy: it gathers the trace chunk by chunk into one reused buffer,
so a timed pass touches the array under test and allocates nothing the
size of the pass.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

# There is no compiled variant. perfbench/worker.py still records this flag
# in its provenance, so it stays until the benchmark stops reading it.
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# LRU TLB replay
# ---------------------------------------------------------------------------

def lru_misses(pages: np.ndarray, sets: int, ways: int) -> int:
    """Set-associative LRU replay.

    One OrderedDict per set; move-to-end on hit, popitem(last=False) evicts
    the least recently used tag.
    """
    tlb = [OrderedDict() for _ in range(sets)]
    misses = 0
    for page in pages.tolist():
        entry = tlb[page % sets]
        if page in entry:
            entry.move_to_end(page)
        else:
            misses += 1
            if len(entry) >= ways:
                entry.popitem(last=False)
            entry[page] = None
    return misses


# ---------------------------------------------------------------------------
# Trace-order sum over a flat array of doubles
# ---------------------------------------------------------------------------

# Elements per step of the chunked loops here and in tlbsim's run collapse.
# For the sum, 64 Ki indices and a 512 KiB buffer of doubles timed faster
# per sum2d pass than 4 Ki or 256 Ki.
CHUNK = 1 << 16


def sum_trace(values: np.ndarray, idx: np.ndarray, fill: float | None = None) -> float:
    """Sum of values[idx] in trace order.

    With `fill`, each chunk's elements are set to it before they are read,
    so the first touch of every page happens in trace order. idx must hold
    int64 indices inside values: the gather clips rather than checks them.
    """
    buf = np.empty(min(CHUNK, idx.shape[0]), dtype=values.dtype)
    total = 0.0
    for start in range(0, idx.shape[0], CHUNK):
        chunk = idx[start:start + CHUNK]
        out = buf[:chunk.shape[0]]
        if fill is not None:
            values[chunk] = fill
        # mode="raise" would copy `out` on every call; "clip" gathers in place.
        np.take(values, chunk, out=out, mode="clip")
        total += float(out.sum())
    return total

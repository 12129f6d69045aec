"""Hot inner loop: LRU TLB replay.

The LRU replay is interpreted Python: tlbsim hands it only the first
access of each same-page run, and only of a pass that revisits a page. The
passes of the benchmark's zone and block traces touch distinct pages and
are counted without it.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

# There is no compiled variant. perfbench/worker.py still records this flag
# in its provenance, so it stays until the benchmark stops reading it.
NUMBA_ENABLED = False


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

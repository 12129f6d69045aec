"""Hot inner loops: LRU TLB replay and trace-order array sums.

Each kernel has a numba-compiled variant and a pure numpy/Python fallback
that gives identical results. The compiled variant is used exactly when
numba can be imported (`pip install -e '.[jit]'`); NUMBA_ENABLED says
which one the stable names below are bound to.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

try:
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# LRU TLB replay
# ---------------------------------------------------------------------------

def lru_misses_numpy(pages: np.ndarray, sets: int, ways: int) -> int:
    """Set-associative LRU replay, interpreted path.

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


def _lru_misses_jit_impl(pages, sets, ways):
    tags = np.full((sets, ways), -1, dtype=np.int64)
    stamps = np.zeros((sets, ways), dtype=np.int64)
    clock = np.int64(0)
    misses = np.int64(0)
    for n in range(pages.shape[0]):
        page = pages[n]
        s = page % sets
        clock += 1
        hit = False
        victim = 0
        oldest = stamps[s, 0]
        for w in range(ways):
            if tags[s, w] == page:
                stamps[s, w] = clock
                hit = True
                break
            if stamps[s, w] < oldest:
                oldest = stamps[s, w]
                victim = w
        if not hit:
            misses += 1
            tags[s, victim] = page
            stamps[s, victim] = clock
    return misses


if NUMBA_ENABLED:
    lru_misses_numba = njit(cache=True)(_lru_misses_jit_impl)
else:
    lru_misses_numba = None


# ---------------------------------------------------------------------------
# Trace-order sums over a flat array of doubles
# ---------------------------------------------------------------------------

def sum_trace_numpy(values: np.ndarray, idx: np.ndarray) -> float:
    return float(values[idx].sum())


def fill_sum_trace_numpy(values: np.ndarray, idx: np.ndarray, fill: float) -> float:
    # First-touch in trace order: write happens before the gathered sum.
    values[idx] = fill
    return float(values[idx].sum())


def _sum_trace_jit_impl(values, idx):
    acc = 0.0
    for n in range(idx.shape[0]):
        acc += values[idx[n]]
    return acc


def _fill_sum_trace_jit_impl(values, idx, fill):
    acc = 0.0
    for n in range(idx.shape[0]):
        values[idx[n]] = fill
        acc += values[idx[n]]
    return acc


if NUMBA_ENABLED:
    sum_trace_numba = njit(cache=True)(_sum_trace_jit_impl)
    fill_sum_trace_numba = njit(cache=True)(_fill_sum_trace_jit_impl)
else:
    sum_trace_numba = None
    fill_sum_trace_numba = None


if NUMBA_ENABLED:
    lru_misses = lru_misses_numba
    sum_trace = sum_trace_numba
    fill_sum_trace = fill_sum_trace_numba
else:
    lru_misses = lru_misses_numpy
    sum_trace = sum_trace_numpy
    fill_sum_trace = fill_sum_trace_numpy

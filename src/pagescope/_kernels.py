"""Hot inner loops: LRU TLB replay and trace-order array sums.

The LRU replay is interpreted Python: tlbsim hands it only the first
access of each same-page run, a few thousand on the benchmark traces. The
two sums each have a numba-compiled variant and a pure numpy fallback that
gives identical results; the compiled variant is used exactly when numba
can be imported (`pip install -e '.[jit]'`), and NUMBA_ENABLED says which
one the stable sum names below are bound to.
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
    sum_trace = sum_trace_numba
    fill_sum_trace = fill_sum_trace_numba
else:
    sum_trace = sum_trace_numpy
    fill_sum_trace = fill_sum_trace_numpy

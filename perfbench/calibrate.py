"""Host-speed calibration: a fixed interpreted kernel timed next to each span.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.6x over tens of seconds with the load of other tenants. The replay
workloads spend their time in tlbsim's interpreted LRU loop, which the
drift moves fully, so their raw seconds measure the host as much as
pagescope. Their timed spans are therefore bracketed by runs of this
kernel, which never calls pagescope, and rescaled to a host that runs it in
REFERENCE_S:

    calibrated = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel is an LRU replay over OrderedDicts of a list made from a numpy
array, the same interpreted work as tlbsim's numpy-path replay. On a 2-vCPU
KVM Xeon, five 30 s block-replay runs spread (interquartile range over
median) 0.30 in raw seconds and 0.04 calibrated. sum2d-run, whose time goes
to numpy, spread 0.06 raw but 0.20 calibrated, and ran slower with the
kernel between its iterations, so it is neither calibrated nor interleaved
with the kernel. REFERENCE_S is about the kernel's time on that host at its
usual speed, so calibrated seconds read close to real seconds there.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

REFERENCE_S = 0.1
_SETS, _WAYS = 12, 4
# Runs of 4 equal keys over 50021 distinct ones: one miss and three hits
# per run. Like tlbsim's replay, each call converts an int64 array to a
# fresh Python list, so the kernel also touches tens of MB of objects.
_KEYS = (np.arange(300_000, dtype=np.int64) // 4 * 7919) % 50021
_MISSES = 75_000


def kernel_seconds() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    tlb = [OrderedDict() for _ in range(_SETS)]
    misses = 0
    for key in _KEYS.tolist():
        entry = tlb[key % _SETS]
        if key in entry:
            entry.move_to_end(key)
        else:
            misses += 1
            if len(entry) >= _WAYS:
                entry.popitem(last=False)
            entry[key] = None
    seconds = time.perf_counter() - start
    if misses != _MISSES:
        raise RuntimeError(f"calibration kernel counted {misses} misses, "
                           f"not {_MISSES}")
    return seconds


def calibrated(seconds: float, before: float, after: float) -> float:
    """`seconds` rescaled by the kernel times measured just before and after."""
    return seconds * REFERENCE_S * 2 / (before + after)

"""Desk-scale DTLB model: LRU replay of address traces per page size.

Replacement is LRU only. simulate() is the set-associative LRU model;
stack_distance_oracle() is an independent reference for the
fully-associative case, deciding each access by rescanning the trace for
the distinct pages touched since the previous access to the same page.
The two must agree exactly, which is what the acceptance suite checks
across randomized traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024
PAGE_512M = 512 * 1024 * 1024

DEFAULT_ENTRIES = 48  # illustrative L1 DTLB stand-in, fully associative


@dataclass(frozen=True)
class TlbConfig:
    entries: int = DEFAULT_ENTRIES
    associativity: int | None = None  # None means fully associative
    page_size_bytes: int = PAGE_4K

    def __post_init__(self):
        if self.entries < 1:
            raise ValueError("entries must be >= 1")
        ways = self.ways
        if ways < 1 or self.entries % ways:
            raise ValueError("associativity must divide entries")
        p = self.page_size_bytes
        if p & (p - 1) or not PAGE_4K <= p <= PAGE_512M:
            raise ValueError("page size must be a power of two in [4 KiB, 512 MiB]")

    @property
    def ways(self) -> int:
        return self.entries if self.associativity is None else self.associativity

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class TlbStats:
    accesses: int
    misses: int
    distinct_pages: int

    def __post_init__(self):
        if not 0 <= self.distinct_pages <= self.misses <= self.accesses:
            raise ValueError("want distinct_pages <= misses <= accesses")


def _offsets(trace) -> np.ndarray:
    offs = getattr(trace, "offsets", trace)
    return np.asarray(offs, dtype=np.uint64)


def _page_ids(trace, page_size_bytes: int) -> np.ndarray:
    return (_offsets(trace) // np.uint64(page_size_bytes)).astype(np.int64)


def simulate(config: TlbConfig, trace) -> TlbStats:
    """Replay a trace: page id = offset / page size, LRU within each set,
    miss on absence with eviction of the set's least recently used entry."""
    pages = _page_ids(trace, config.page_size_bytes)
    if pages.size == 0:
        return TlbStats(0, 0, 0)
    misses = int(_kernels.lru_misses(pages, config.sets, config.ways))
    return TlbStats(int(pages.size), misses, int(np.unique(pages).size))


def stack_distance_oracle(entries: int, trace, page_size_bytes: int) -> TlbStats:
    """Fully-associative LRU reference by naive rescan.

    An access misses iff it is the first touch of its page or at least
    `entries` distinct pages were touched since its previous access. The
    backward scan stops once `entries` distinct pages have been seen:
    past that point the access misses whether or not the page occurs
    earlier, so the verdict is already decided.
    """
    if entries < 1:
        raise ValueError("entries must be >= 1")
    pages = _page_ids(trace, page_size_bytes).tolist()
    misses = 0
    for i, p in enumerate(pages):
        seen: set[int] = set()
        hit = False
        for j in range(i - 1, -1, -1):
            q = pages[j]
            if q == p:
                hit = True
                break
            seen.add(q)
            if len(seen) >= entries:
                break
        if not hit:
            misses += 1
    return TlbStats(len(pages), misses, len(set(pages)))


@dataclass(frozen=True)
class SweepRow:
    page_size_bytes: int
    stats: TlbStats
    ratio: float  # misses at this size over misses at the smallest size


def page_size_sweep(trace, config: TlbConfig,
                    sizes: list[int]) -> list[SweepRow]:
    """Simulate the trace at each page size and report miss ratios versus
    the smallest size (0/0 counts as 1)."""
    if not sizes:
        raise ValueError("need at least one page size")
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    rows = []
    base_misses: int | None = None
    for size in sizes:
        stats = simulate(replace(config, page_size_bytes=size), trace)
        if base_misses is None:
            base_misses = stats.misses
        if base_misses > 0:
            ratio = stats.misses / base_misses
        else:
            ratio = 1.0 if stats.misses == 0 else math.inf
        rows.append(SweepRow(size, stats, ratio))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["size_bytes,accesses,misses,distinct_pages,ratio"]
    for row in rows:
        s = row.stats
        lines.append(f"{row.page_size_bytes},{s.accesses},{s.misses},"
                     f"{s.distinct_pages},{row.ratio:.6g}")
    return "\n".join(lines) + "\n"


def parse_size(token: str) -> int:
    """Parse 4K / 2M / 512M / 1G style size tokens (or plain byte counts)."""
    token = token.strip().upper()
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if token and token[-1] in units:
        return int(token[:-1]) * units[token[-1]]
    return int(token)

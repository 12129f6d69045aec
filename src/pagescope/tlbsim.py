"""Desk-scale DTLB model: LRU replay of address traces per page size.

Replacement is LRU only. simulate() is the set-associative LRU model;
stack_distance_oracle() is an independent reference for the
fully-associative case, deciding each access by rescanning the trace for
the distinct pages touched since the previous access to the same page.
The two must agree exactly, which is what the acceptance suite checks
across randomized traces.

simulate() replays far fewer accesses than the trace holds, by four
shortcuts that give exactly the full replay's result:

- Run-length collapse. An access to the same page as the access just
  before it finds that page most recently used in its set, so it hits and
  leaves the set unchanged. Only the first access of each run of equal
  page ids is replayed.
- Periodic fold. A trace that says it is `passes` repeats of one pass, and
  whose data is checked to be exactly that, is replayed for one and for
  two passes only. LRU starts empty, so at the end of the first pass each
  set holds the last `ways` distinct pages a pass touches in it (all of
  them, if fewer), ordered by last touch, and a pass that starts from that
  state ends in it again. Every pass after the first therefore misses
  m2 - m1 times, where m1 and m2 are the misses of one and two passes.
- Reduction at a smaller page size. Page sizes are powers of two, so a
  page at a larger size is a union of whole pages at any smaller size, and
  two accesses that share a small page share the large one. A run of equal
  page ids at the larger size is therefore a union of consecutive runs at
  the smaller size, and starts where one of them starts. Collapsing the
  run starts at the larger size gives the same runs, misses and distinct
  pages as collapsing the full trace.
- Distinct-page passes. When the runs of one pass all touch different
  pages, nothing is replayed. Each run of the first pass is a first touch
  and misses. A later pass touches each set's pages once, in the order the
  pass before it did, and LRU has kept the last `ways` of them. A set
  holding k <= `ways` of the pass's pages therefore hits on all k; one
  holding k > `ways` has evicted each page before its next touch and misses
  on all k. The misses are a count of pages per set. Zone, block and var
  sweeps are such passes at every page size; a pass that revisits a page
  (a sum2d pass) goes to the LRU kernel.

reduce() does the trace-sized work once: it checks the period and keeps
the offsets that start each run of one pass. simulate() replays a RunTrace
at its own page size or any larger one, so page_size_sweep() reads the
trace once, at its smallest size, and replays every size from the run
starts.

reduce() reads the trace as a stream of chunks (blockmesh.AddressTrace
.chunks), in one scan: it collapses the first pass's runs, carrying the
last page id across chunk boundaries, and compares every later pass with
the first. Its memory is a few CHUNK-sized buffers, the first pass when
`passes` > 1, and the run starts it returns; never the whole trace. A
claimed period that fails is read a second time, as one unverified pass.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .blockmesh import CHUNK, AddressTrace

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024
PAGE_512M = 512 * 1024 * 1024

DEFAULT_ENTRIES = 48  # illustrative L1 DTLB stand-in, fully associative


def check_page_size(p: int, name: str = "page size") -> None:
    """ValueError calling `p` by `name` unless it is a page size."""
    if p & (p - 1) or not PAGE_4K <= p <= PAGE_512M:
        raise ValueError(f"{name} must be a power of two in [4 KiB, 512 MiB]")


@dataclass(frozen=True)
class TlbConfig:
    entries: int = DEFAULT_ENTRIES
    associativity: int | None = None  # None means fully associative
    page_size_bytes: int = PAGE_4K

    def __post_init__(self):
        if not 1 <= self.entries < 2 ** 63:  # simulate takes int64 ids % sets
            raise ValueError("entries must be >= 1 and < 2**63")
        ways = self.ways
        if ways < 1 or self.entries % ways:
            raise ValueError("associativity must divide entries")
        check_page_size(self.page_size_bytes)

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


def _shift(page_size_bytes: int) -> np.uint64:
    # Page sizes are powers of two >= 4 KiB, so the ids fit in 52 bits and
    # the int64 view of the shifted offsets is exact.
    return np.uint64(page_size_bytes.bit_length() - 1)


@dataclass(frozen=True)
class RunTrace:
    """A trace reduced at one page size: the byte offsets that start each
    run of equal page ids in one pass, which `passes` passes repeat."""
    accesses: int
    starts: np.ndarray  # uint64 byte offsets, in access order
    passes: int
    page_size_bytes: int


def _source(trace) -> AddressTrace:
    """The trace as a chunk source, the one way tlbsim reads an input: an
    array, or anything else with `offsets`, is sliced in memory."""
    if isinstance(trace, AddressTrace):
        return trace
    return AddressTrace(np.asarray(getattr(trace, "offsets", trace), dtype=np.uint64),
                        8, None, None, getattr(trace, "passes", 1))


def _scan(source: AddressTrace, shift: np.uint64, passes: int) -> np.ndarray | None:
    """Read the trace once. Return the offset that starts each run of equal
    consecutive page ids in its first pass of accesses / `passes`, or None
    as soon as a later access differs from the one a pass before it.

    Page ids go into one reused buffer whose slot 0 carries the previous
    chunk's last page. A chunk never straddles a pass boundary, so it is
    the first pass or a piece of it, possibly followed by whole passes, or
    a piece or whole passes of a later pass."""
    pass_len = source.accesses // passes
    first = np.empty(pass_len if passes > 1 else 0, dtype=np.uint64)
    n = min(CHUNK, pass_len)
    pages = np.empty(n + 1, dtype=np.uint64)
    new = np.empty(n, dtype=bool)
    parts = [first[:0]]
    done = 0
    for chunk in source.chunks(CHUNK):
        head = chunk[:max(pass_len - done, 0)]
        if head.size:
            n = head.size
            np.right_shift(head, shift, out=pages[1:n + 1])
            np.not_equal(pages[1:n + 1], pages[:n], out=new[:n])
            new[0] |= done == 0
            parts.append(head[new[:n]])
            pages[0] = pages[n]
            if first.size:
                first[done:done + n] = head
        rest = chunk[head.size:]
        if rest.size:
            at = (done + head.size) % pass_len
            # Whole passes start at 0, where the slice clamps to `first`.
            ref = first[at:at + rest.size]
            if not (rest.reshape(-1, ref.size) == ref).all():
                return None
        done += chunk.size
    return np.concatenate(parts)


def reduce(trace, page_size_bytes: int) -> RunTrace:
    """The run starts of one pass at `page_size_bytes`, read from the trace
    in one scan. A trace with `passes` > 1 whose data repeats with that
    period keeps its passes; any other trace is one pass, which a false
    claim pays for with a second scan."""
    check_page_size(page_size_bytes)
    source = _source(trace)
    shift = _shift(page_size_bytes)
    passes = source.passes if source.accesses % source.passes == 0 else 1
    starts = _scan(source, shift, passes)
    if starts is None:
        passes, starts = 1, _scan(source, shift, 1)
    return RunTrace(source.accesses, starts, passes, page_size_bytes)


def lru_misses(pages: np.ndarray, sets: int, ways: int) -> int:
    """Set-associative LRU replay, interpreted: one OrderedDict per set the
    pages touch, made at its first touch (memory follows the trace, not
    `sets`); move-to-end on hit, popitem(last=False) evicts the LRU page."""
    tlb = defaultdict(OrderedDict)
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


def simulate(config: TlbConfig, trace) -> TlbStats:
    """Replay a trace: page id = offset / page size, LRU within each set,
    miss on absence with eviction of the set's least recently used entry.

    `trace` is a trace, reduced here at the config's page size, or a
    RunTrace reduced at that size or a smaller one. A pass of distinct
    pages is counted without replay; otherwise only the first access of
    each same-page run of one pass reaches the LRU kernel, and of two
    passes when the trace has more (see the module docstring)."""
    runs = (trace if isinstance(trace, RunTrace)
            else reduce(trace, config.page_size_bytes))
    if runs.page_size_bytes > config.page_size_bytes:
        raise ValueError(f"a trace reduced at {runs.page_size_bytes}-byte pages "
                         f"cannot replay at {config.page_size_bytes}")
    if runs.accesses == 0:
        return TlbStats(0, 0, 0)
    shift = _shift(config.page_size_bytes)
    pages = (_scan(_source(runs.starts), shift, 1) >> shift).view(np.int64)
    # A sort, not np.unique, whose hashing (numpy >= 2.3) is 13-36x slower here.
    ordered = np.sort(pages)
    distinct = int(1 + np.count_nonzero(ordered[1:] != ordered[:-1]))
    if distinct == pages.size:
        # Distinct-page passes (module docstring): no replay needed.
        per_set = np.unique(pages % config.sets, return_counts=True)[1]
        later = int(per_set[per_set > config.ways].sum())
        return TlbStats(runs.accesses, pages.size + (runs.passes - 1) * later,
                        distinct)
    misses = lru_misses(pages, config.sets, config.ways)
    if runs.passes > 1:
        # The second pass's first run continues the first's last one if
        # they share a page.
        two = np.concatenate((pages, pages[int(pages[0] == pages[-1]):]))
        m2 = lru_misses(two, config.sets, config.ways)
        misses += (runs.passes - 1) * (m2 - misses)
    return TlbStats(runs.accesses, int(misses), distinct)


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
    pages = (_source(trace).offsets >> _shift(page_size_bytes)).tolist()
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
    the smallest size (0/0 counts as 1). The trace is reduced once, at the
    smallest size, and every size replays its run starts."""
    if not sizes:
        raise ValueError("need at least one page size")
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    for size, after in zip(sizes, sizes[1:]):
        if size == after:
            raise ValueError(f"page size {size} is given twice")
    runs = reduce(trace, sizes[0])
    stats = [simulate(replace(config, page_size_bytes=size), runs) for size in sizes]
    # A trace that misses at one size misses at every size (misses >=
    # distinct pages), so zero base misses means zero misses everywhere.
    base = stats[0].misses
    return [SweepRow(size, s, s.misses / base if base else 1.0)
            for size, s in zip(sizes, stats)]


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["size_bytes,accesses,misses,distinct_pages,ratio"]
    for row in rows:
        s = row.stats
        lines.append(f"{row.page_size_bytes},{s.accesses},{s.misses},"
                     f"{s.distinct_pages},{row.ratio:.6g}")
    return "\n".join(lines) + "\n"


def parse_size(token: str) -> int:
    """Parse 4K / 2M / 512M / 1G style size tokens (or plain byte counts);
    ValueError naming the token if it is neither."""
    text = token.strip().upper()
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    scale = units.get(text[-1:], 1)
    digits = text[:-1] if scale > 1 else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{token.strip()!r} is not a size like 4K, 2M or 4096")
    return int(digits) * scale

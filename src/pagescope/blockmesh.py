"""Block-structured mesh array geometry, traversal traces, and sum kernels.

The solution array of a block-structured adaptive mesh is a 5-D
column-major container indexed (variable, i, j, k, block), so consecutive
blocks sit a large constant stride apart in memory. Walking blocks at a
fixed zone therefore touches a new small page on every access, which is
exactly the behavior the TLB simulator replays. This module does the
address math and describes each traversal pattern once, as run families:
rows of strided runs whose first elements step by one constant. They
become both the byte-address traces the simulator replays and the array
views a real allocate/fill/sum workload walks. Each family is one 2-D
view, reduced once per pass by `np.add.reduceat`, row by row in trace
order; an `axis=1` reduce would walk a many-row view in memory order,
column by column, another address stream than the trace's.

A trace is a source of chunks, not an array. `AddressTrace.chunks` yields
its byte offsets in access order, at most `CHUNK` at a time, from one
reused buffer: a generated trace fills it from the runs of one pass and
keeps `passes` as a count, a loaded trace reads its file into it, and an
in-memory array is sliced. Writing, loading and replaying a trace
therefore hold a few chunk buffers, never the whole trace, however many
accesses it has; only the replay's period check keeps one pass as well.

A generated chunk is filled run by run, each run's part by doubling its
filled prefix. A chunk that lies inside one run and continues the chunk
before it in the same run needs less: it is the buffer's previous offsets
plus the previous chunk's length times the run's stride, one in-place add.
Only a chunk that starts a run or crosses a run boundary is filled by
doubling.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np


CHUNK = 1 << 15  # offsets per chunk of a streamed trace (256 KiB)
ALLOC_STRATEGIES = ("eager", "demand")  # run_kernel's `alloc` values
RunFamily = tuple[int, int, int, int, int]  # see _single_pass_runs


class AllocationFailure(MemoryError):
    pass


@dataclass(frozen=True)
class UnkLayout:
    """Geometry of the 5-D solution array, guard cells included in bounds.

    Zone bounds are inclusive on both ends (Fortran style); variable and
    block indices are zero-based with counts nvar and maxblocks. Elements
    are doubles unless elem_bytes says otherwise.
    """

    nvar: int
    i_lo: int
    i_hi: int
    j_lo: int
    j_hi: int
    k_lo: int
    k_hi: int
    maxblocks: int
    elem_bytes: int = 8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ValueError(f"{f.name} {value!r} is not an integer")
        if self.nvar < 1 or self.maxblocks < 1 or self.elem_bytes < 1:
            raise ValueError("nvar, maxblocks, elem_bytes must be >= 1")
        if self.i_hi < self.i_lo or self.j_hi < self.j_lo or self.k_hi < self.k_lo:
            raise ValueError("zone bounds must span at least one cell")

    @classmethod
    def simple(cls, nvar: int, ni: int, nj: int, nk: int, maxblocks: int,
               elem_bytes: int = 8) -> "UnkLayout":
        """Guard-free layout with 1-based zone bounds."""
        return cls(nvar, 1, ni, 1, nj, 1, nk, maxblocks, elem_bytes)

    @classmethod
    def with_guards(cls, nvar: int, interior: int, maxblocks: int,
                    guards: int = 4, elem_bytes: int = 8) -> "UnkLayout":
        """Cubic interior with guard cells on each side (default 4)."""
        lo, hi = 1 - guards, interior + guards
        return cls(nvar, lo, hi, lo, hi, lo, hi, maxblocks, elem_bytes)

    @property
    def ni(self) -> int:
        return self.i_hi - self.i_lo + 1

    @property
    def nj(self) -> int:
        return self.j_hi - self.j_lo + 1

    @property
    def nk(self) -> int:
        return self.k_hi - self.k_lo + 1

    @property
    def cells_per_block(self) -> int:
        return self.ni * self.nj * self.nk

    @property
    def elements(self) -> int:
        return self.nvar * self.cells_per_block * self.maxblocks

    @property
    def total_bytes(self) -> int:
        return self.elements * self.elem_bytes

    @property
    def block_stride_bytes(self) -> int:
        return self.nvar * self.cells_per_block * self.elem_bytes

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "UnkLayout":
        return cls(**d)


class TraversalPattern(enum.Enum):
    ZoneSweep = "zone"
    BlockSweep = "block"
    VarSweep = "var"
    RepeatedSum2D = "sum2d"


# The built-in workloads `run` can time, by name.
WORKLOAD_PATTERNS = {
    "block-sweep": TraversalPattern.BlockSweep,
    "zone-sweep": TraversalPattern.ZoneSweep,
    "sum2d": TraversalPattern.RepeatedSum2D,
}


@dataclass(frozen=True)
class TraceFile:
    """A trace file of `accesses` u64 little-endian offsets, as loaded."""

    path: Path
    accesses: int


@dataclass(frozen=True)
class AddressTrace:
    """Byte offsets relative to the array base, in access order.

    `source` holds them: an array of every offset, a TraceFile, or the
    byte runs (first offset, count, byte stride) of one pass, which
    `passes` repeats. layout/pattern/passes describe how the trace was
    generated; they are None for raw streams loaded without a sidecar.
    """

    source: np.ndarray | TraceFile | tuple[tuple[int, int, int], ...]
    elem_bytes: int
    layout: UnkLayout | None
    pattern: TraversalPattern | None
    passes: int

    @property
    def accesses(self) -> int:
        if isinstance(self.source, np.ndarray):
            return int(self.source.shape[0])
        if isinstance(self.source, TraceFile):
            return self.source.accesses
        return self.passes * sum(count for _, count, _ in self.source)

    def chunks(self, size: int):
        """The offsets in access order, as uint64 arrays of at most `size`.

        A chunk holds whole passes when a pass fits in `size` and a piece
        of one pass otherwise; it never straddles a pass boundary (a
        claimed `passes` that does not divide the trace makes it one
        pass). A chunk is valid only until the next one is requested.
        """
        accesses = self.accesses
        if not accesses:
            return iter(())
        pass_len = (accesses // self.passes if accesses % self.passes == 0
                    else accesses)
        bounds = _chunk_bounds(accesses, pass_len, size)
        if isinstance(self.source, np.ndarray):
            offsets = np.asarray(self.source, dtype=np.uint64)
            return (offsets[a:b] for a, b in bounds)
        if isinstance(self.source, TraceFile):
            return _file_chunks(self.source, bounds)
        return _run_chunks(self.source, pass_len, bounds, size)

    @property
    def offsets(self) -> np.ndarray:
        """Every offset in one array: as large as the trace itself."""
        try:
            out = np.empty(self.accesses, dtype=np.uint64)
        except MemoryError as exc:
            raise AllocationFailure(f"cannot allocate a trace of {self.accesses} "
                                    f"accesses ({8 * self.accesses} bytes)") from exc
        done = 0
        for chunk in self.chunks(CHUNK):
            out[done:done + chunk.size] = chunk
            done += chunk.size
        return out


def _chunk_bounds(accesses: int, pass_len: int, size: int):
    """(start, stop) of each chunk: as many whole passes as fit in `size`,
    or pieces of `size` of one pass when a pass does not fit."""
    if pass_len <= size:
        step = size // pass_len * pass_len
        return ((a, min(a + step, accesses)) for a in range(0, accesses, step))
    return ((p + a, p + min(a + size, pass_len))
            for p in range(0, accesses, pass_len) for a in range(0, pass_len, size))


def _double(buf: np.ndarray, unit: int, step: int) -> None:
    """Extend buf[:unit] over all of buf, each unit `step` above the one
    before it, by doubling the filled prefix: no temporary array."""
    n = unit
    while n < buf.size:
        m = min(n, buf.size - n)
        np.add(buf[:m], np.uint64(n // unit * step), out=buf[n:n + m])
        n += m


def _run_chunks(runs, pass_len: int, bounds, size: int):
    """Chunks of passes of byte runs. A chunk of whole passes is filled
    once and yielded for every chunk after it, which is the same passes.
    A piece of a pass that lies inside one run and continues the piece
    before it inside the same run is that piece advanced in place by its
    length times the run's stride. Only a pass's last piece is shorter than
    the one before it, so the buffer already holds every offset to advance."""
    run_starts = list(itertools.accumulate((count for _, count, _ in runs), initial=0))
    held = None  # (run, end position, length) of the last piece inside one run
    for a, b in bounds:
        if a == 0:  # the first chunk is the largest
            buf = np.empty(b, dtype=np.uint64)
        chunk = buf[:b - a]
        if pass_len > size or a == 0:
            pos = a % pass_len
            piece = chunk[:pass_len]
            r = bisect.bisect_right(run_starts, pos) - 1
            inside = pos + piece.size <= run_starts[r + 1]
            last, held = held, (r, pos + piece.size, piece.size) if inside else None
            if held and last and last[:2] == (r, pos):
                np.add(piece, np.uint64(last[2] * runs[r][2]), out=piece)
            else:
                done = 0
                while done < piece.size:
                    first, count, step = runs[r]
                    skip = pos + done - run_starts[r]
                    take = min(count - skip, piece.size - done)
                    piece[done] = first + skip * step
                    _double(piece[done:done + take], 1, step)
                    done += take
                    r += 1
                _double(chunk, pass_len, 0)  # k whole passes: repeat the first
        yield chunk


def _file_chunks(trace_file: TraceFile, bounds):
    """Chunks read from a trace file into one buffer. A file that no longer
    holds the offsets it held when it was loaded is a ValueError naming it."""
    path = trace_file.path
    with open(path, "rb", buffering=0) as f:
        now = os.fstat(f.fileno()).st_size
        if now != 8 * trace_file.accesses:
            raise ValueError(f"{path}: trace file changed since it was loaded "
                             f"({now} bytes, was {8 * trace_file.accesses})")
        for a, b in bounds:
            if a == 0:  # the first chunk is the largest
                buf = np.empty(b, dtype="<u8")
            view = memoryview(buf[:b - a]).cast("B")
            got = 0
            while got < len(view):
                n = f.readinto(view[got:])
                if not n:
                    raise ValueError(f"{path}: trace file shrank while it was read")
                got += n
            yield buf[:b - a]


def address_of(layout: UnkLayout, v: int, i: int, j: int, k: int, b: int) -> int:
    """Byte offset of unk(v, i, j, k, b): column-major, variable fastest."""
    if not 0 <= v < layout.nvar:
        raise IndexError(f"v={v} outside [0, {layout.nvar})")
    if not layout.i_lo <= i <= layout.i_hi:
        raise IndexError(f"i={i} outside [{layout.i_lo}, {layout.i_hi}]")
    if not layout.j_lo <= j <= layout.j_hi:
        raise IndexError(f"j={j} outside [{layout.j_lo}, {layout.j_hi}]")
    if not layout.k_lo <= k <= layout.k_hi:
        raise IndexError(f"k={k} outside [{layout.k_lo}, {layout.k_hi}]")
    if not 0 <= b < layout.maxblocks:
        raise IndexError(f"b={b} outside [0, {layout.maxblocks})")
    ii, jj, kk = i - layout.i_lo, j - layout.j_lo, k - layout.k_lo
    elem = v + layout.nvar * (ii + layout.ni * (jj + layout.nj * (kk + layout.nk * b)))
    return elem * layout.elem_bytes


def _single_pass_runs(layout: UnkLayout, pattern: TraversalPattern) -> list[RunFamily]:
    """One traversal pass as run families (first element, count, element
    stride, rows, row step), in access order: the only description of a
    pattern's shape. Row r of a family is the run of `count` elements from
    first + r * row_step at `stride`. The first family is one row holding
    every element of the pass, as run_kernel's demand fill needs."""
    if pattern is TraversalPattern.ZoneSweep:
        # Column-major enumeration is the identity walk over the element space.
        return [(0, layout.elements, 1, 1, 0)]
    if pattern is TraversalPattern.BlockSweep:
        return [(0, layout.maxblocks, layout.nvar * layout.cells_per_block, 1, 0)]
    if pattern is TraversalPattern.VarSweep:
        return [(0, layout.nvar, 1, 1, 0)]
    if pattern is TraversalPattern.RepeatedSum2D:
        ni, nj, nvar = layout.ni, layout.nj, layout.nvar
        # A column-order sweep (i fastest, contiguous) of the v=0, k=k_lo,
        # b=0 plane, which holds every element of the row-order sweep (j
        # fastest, strided) that follows it, one row per i.
        return [(0, ni * nj, nvar, 1, 0), (0, nj, ni * nvar, ni, nvar)]
    raise ValueError(f"unknown pattern {pattern!r}")


def _run_views(arr: np.ndarray, families: list[RunFamily]) -> list[np.ndarray]:
    """One (rows, count) view of `arr` per run family, in order. A family
    with count, rows or stride below 1, a negative row step, or its lowest
    (first) or highest (last) element outside `arr` is a ValueError, never
    a shorter view. A one-row view is writeable (one run at a positive
    stride cannot alias itself); a many-row view is read-only."""
    views = []
    for first, count, stride, rows, row_step in families:
        last = first + (rows - 1) * row_step + (count - 1) * stride
        if min(count, rows, stride) < 1 or min(first, row_step) < 0 or last >= arr.size:
            raise ValueError(f"runs from element {first} to {last} are empty, step "
                             f"back or lie outside an array of {arr.size} elements")
        views.append(np.lib.stride_tricks.as_strided(
            arr[first:], shape=(rows, count),
            strides=(row_step * arr.itemsize, stride * arr.itemsize),
            writeable=rows == 1))
    return views


def gen_trace(layout: UnkLayout, pattern: TraversalPattern,
              passes: int = 1) -> AddressTrace:
    """Deterministic byte-address trace: `passes` repeats of one pattern
    pass, kept as the pass's byte runs and a count; nothing is allocated."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    eb = layout.elem_bytes
    runs = tuple(((first + r * row_step) * eb, count, stride * eb)
                 for first, count, stride, rows, row_step
                 in _single_pass_runs(layout, pattern) for r in range(rows))
    return AddressTrace(runs, eb, layout, pattern, passes)


def run_kernel(layout: UnkLayout, pattern: TraversalPattern, passes: int,
               fill: float, alloc: str = "eager",
               touched: Callable[[], None] = lambda: None) -> float:
    """Allocate the array, fill it, and sum it along the traversal.

    alloc="eager" pretouches the whole array with the fill value before any
    pass; alloc="demand" leaves pages untouched until the traversal. A
    pattern's first family is one run that holds every element a pass
    touches (_single_pass_runs), so a demand run writes it once, just before
    the first pass reads it: each element is written once, at its first
    touch in access order. Page faults (and any transparent huge-page
    mapping) therefore happen under the measured region. The checksum is
    the sum over every traversed element, identical for both strategies.
    Each pass reduces each family's view (`_run_views`) with one
    `np.add.reduceat(view, [0], axis=1)`, in trace order (module
    docstring), so a sum2d pass's 2048 row runs cost one call, not 2048;
    the row sums go to the checksum in row order. The measured region reads
    the array under test and allocates nothing the size of a pass.
    `touched()` is called once, after every element is written and before
    the first pass, so a caller can read what backs the whole, live array.
    """
    if alloc not in ALLOC_STRATEGIES:
        raise ValueError(f"alloc must be eager or demand, got {alloc!r}")
    nbytes = 8 * layout.elements
    # An overcommitting kernel can grant an array larger than the host's
    # memory, then swap or kill the process when the fill touches it.
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise AllocationFailure(f"cannot allocate {nbytes} bytes: more than the "
                                f"{physical} bytes of physical memory")
    try:
        arr = np.empty(layout.elements, dtype=np.float64)
    except MemoryError as exc:
        raise AllocationFailure(f"cannot allocate {nbytes} bytes") from exc

    views = _run_views(arr, _single_pass_runs(layout, pattern))
    (arr if alloc == "eager" else views[0])[...] = fill
    touched()
    checksum = 0.0
    for _ in range(passes):
        for view in views:
            for row_sum in np.add.reduceat(view, [0], axis=1).ravel().tolist():
                checksum += row_sum
    return checksum


# ---------------------------------------------------------------------------
# Trace export: u64 little-endian byte offsets plus a JSON sidecar
# ---------------------------------------------------------------------------

def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def save_trace(trace: AddressTrace, path: str | Path) -> None:
    """Write the trace as u64 little-endian offsets, one chunk at a time,
    and its sidecar. A trace larger than the free space at `path` is an
    AllocationFailure before the first byte. Both files are written under
    temporary names and replace any existing ones only once complete, so a
    failed save leaves no partial trace."""
    path = Path(path)
    nbytes = 8 * trace.accesses
    fs = os.statvfs(path.parent)
    free = fs.f_bavail * fs.f_frsize
    if nbytes > free:
        raise AllocationFailure(f"cannot allocate {nbytes} bytes for {path}: "
                                f"{free} bytes free on its filesystem")
    meta = {
        "layout": trace.layout.to_dict() if trace.layout else None,
        "pattern": trace.pattern.value if trace.pattern else None,
        "passes": trace.passes,
        "elem_bytes": trace.elem_bytes,
        "accesses": trace.accesses,
    }
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp_side = sidecar_path(tmp)
    try:
        with open(tmp, "wb") as f:
            for chunk in trace.chunks(CHUNK):
                f.write(chunk.astype("<u8", copy=False))
        tmp_side.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        os.replace(tmp_side, sidecar_path(path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        tmp_side.unlink(missing_ok=True)
        raise


def _int_at_least(meta: dict, key: str, least: int) -> int:
    value = meta[key]
    if type(value) is not int or value < least:
        raise ValueError(f"{key} {value!r} is not an integer >= {least}")
    return value


def load_trace(path: str | Path) -> AddressTrace:
    """Check a trace file and read its sidecar, if any; ValueError naming
    the file if the sidecar is malformed or disagrees with the data, or the
    file is not a whole number of u64 offsets. The offsets themselves are
    read when the trace's chunks are."""
    path = Path(path)
    size = path.stat().st_size
    if size % 8:
        raise ValueError(f"{path}: {size} bytes is not a whole number "
                         f"of 8-byte offsets")
    source = TraceFile(path, size // 8)
    side = sidecar_path(path)
    if not side.exists():
        # Raw stream without a sidecar: offsets only, double-width elements.
        return AddressTrace(source, 8, None, None, 1)
    try:
        meta = json.loads(side.read_text())
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        layout = UnkLayout.from_dict(meta["layout"]) if meta["layout"] else None
        pattern = TraversalPattern(meta["pattern"]) if meta["pattern"] else None
        elem_bytes = _int_at_least(meta, "elem_bytes", 1)
        passes = _int_at_least(meta, "passes", 1)
        if _int_at_least(meta, "accesses", 0) != source.accesses:
            raise ValueError(f"sidecar says {meta['accesses']} accesses, "
                             f"trace holds {source.accesses}")
        if layout and elem_bytes != layout.elem_bytes:
            raise ValueError(f"elem_bytes {elem_bytes} disagrees with the "
                             f"layout's {layout.elem_bytes}")
    except KeyError as exc:
        raise ValueError(f"{side}: sidecar has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{side}: {exc}") from None
    return AddressTrace(source, elem_bytes, layout, pattern, passes)

"""Block-structured mesh array geometry, traversal traces, and sum kernels.

The solution array of a block-structured adaptive mesh is a 5-D
column-major container indexed (variable, i, j, k, block), so consecutive
blocks sit a large constant stride apart in memory. Walking blocks at a
fixed zone therefore touches a new small page on every access, which is
exactly the behavior the TLB simulator replays. This module does the
address math, generates byte-address traces for traversal patterns, and
runs the traversals as real allocate/fill/sum workloads.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _kernels


class IndexOutOfBounds(IndexError):
    pass


class EmptyLayout(ValueError):
    pass


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


@dataclass(frozen=True)
class AddressTrace:
    """Byte offsets relative to the array base, in access order.

    layout/pattern/passes describe how the trace was generated; they are
    None for raw streams loaded without a sidecar.
    """

    offsets: np.ndarray  # uint64 byte offsets
    elem_bytes: int
    layout: UnkLayout | None
    pattern: TraversalPattern | None
    passes: int

    @property
    def accesses(self) -> int:
        return int(self.offsets.shape[0])

    def element_indices(self) -> np.ndarray:
        return (self.offsets // self.elem_bytes).astype(np.int64)


def address_of(layout: UnkLayout, v: int, i: int, j: int, k: int, b: int) -> int:
    """Byte offset of unk(v, i, j, k, b): column-major, variable fastest."""
    if not 0 <= v < layout.nvar:
        raise IndexOutOfBounds(f"v={v} outside [0, {layout.nvar})")
    if not layout.i_lo <= i <= layout.i_hi:
        raise IndexOutOfBounds(f"i={i} outside [{layout.i_lo}, {layout.i_hi}]")
    if not layout.j_lo <= j <= layout.j_hi:
        raise IndexOutOfBounds(f"j={j} outside [{layout.j_lo}, {layout.j_hi}]")
    if not layout.k_lo <= k <= layout.k_hi:
        raise IndexOutOfBounds(f"k={k} outside [{layout.k_lo}, {layout.k_hi}]")
    if not 0 <= b < layout.maxblocks:
        raise IndexOutOfBounds(f"b={b} outside [0, {layout.maxblocks})")
    ii, jj, kk = i - layout.i_lo, j - layout.j_lo, k - layout.k_lo
    elem = v + layout.nvar * (ii + layout.ni * (jj + layout.nj * (kk + layout.nk * b)))
    return elem * layout.elem_bytes


def _single_pass_elements(layout: UnkLayout, pattern: TraversalPattern) -> np.ndarray:
    """Element indices of one traversal pass, in access order."""
    if pattern is TraversalPattern.ZoneSweep:
        # Column-major enumeration is the identity walk over the element space.
        return np.arange(layout.elements, dtype=np.uint64)
    if pattern is TraversalPattern.BlockSweep:
        stride = np.uint64(layout.nvar * layout.cells_per_block)
        return np.arange(layout.maxblocks, dtype=np.uint64) * stride
    if pattern is TraversalPattern.VarSweep:
        return np.arange(layout.nvar, dtype=np.uint64)
    if pattern is TraversalPattern.RepeatedSum2D:
        ni, nj, nvar = layout.ni, layout.nj, layout.nvar
        # One pass = a column-order sweep (i fastest, contiguous) followed by
        # a row-order sweep (j fastest, strided) of the v=0, k=k_lo, b=0 plane.
        col_order = np.arange(ni * nj, dtype=np.uint64)
        row_order = (np.repeat(np.arange(ni, dtype=np.uint64), nj)
                     + np.uint64(ni) * np.tile(np.arange(nj, dtype=np.uint64), ni))
        return np.concatenate([col_order, row_order]) * np.uint64(nvar)
    raise ValueError(f"unknown pattern {pattern!r}")


def gen_trace(layout: UnkLayout, pattern: TraversalPattern,
              passes: int = 1) -> AddressTrace:
    """Deterministic byte-address trace: `passes` repeats of one pattern pass."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if layout.elements == 0:
        raise EmptyLayout("layout has no elements")
    single = _single_pass_elements(layout, pattern) * np.uint64(layout.elem_bytes)
    offsets = np.tile(single, passes) if passes > 1 else single
    return AddressTrace(offsets, layout.elem_bytes, layout, pattern, passes)


def run_kernel(layout: UnkLayout, pattern: TraversalPattern, passes: int,
               fill: float, alloc: str = "eager") -> float:
    """Allocate the array, fill it, and sum it along the traversal.

    alloc="eager" pretouches the whole array with the fill value before any
    pass; alloc="demand" leaves pages untouched until the first traversal
    pass writes them in access order, so page faults (and any transparent
    huge-page mapping) happen under the measured region. The checksum is
    the sum over every traversed element, identical for both strategies.
    """
    if alloc not in ("eager", "demand"):
        raise ValueError(f"alloc must be eager or demand, got {alloc!r}")
    trace = gen_trace(layout, pattern, passes=1)
    idx = trace.element_indices()
    try:
        if alloc == "eager":
            arr = np.full(layout.elements, fill, dtype=np.float64)
        else:
            arr = np.empty(layout.elements, dtype=np.float64)
    except MemoryError as exc:
        raise AllocationFailure(f"cannot allocate {layout.total_bytes} bytes") from exc

    checksum = 0.0
    start_pass = 0
    if alloc == "demand":
        checksum += _kernels.fill_sum_trace(arr, idx, fill)
        start_pass = 1
    for _ in range(start_pass, passes):
        checksum += float(_kernels.sum_trace(arr, idx))
    return checksum


# ---------------------------------------------------------------------------
# Trace export: u64 little-endian byte offsets plus a JSON sidecar
# ---------------------------------------------------------------------------

def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def save_trace(trace: AddressTrace, path: str | Path) -> None:
    path = Path(path)
    path.write_bytes(trace.offsets.astype("<u8").tobytes())
    meta = {
        "layout": trace.layout.to_dict() if trace.layout else None,
        "pattern": trace.pattern.value if trace.pattern else None,
        "passes": trace.passes,
        "elem_bytes": trace.elem_bytes,
        "accesses": trace.accesses,
    }
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_trace(path: str | Path) -> AddressTrace:
    """Read a trace file and its sidecar, if any; ValueError if they disagree
    or the file is not a whole number of u64 offsets."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) % 8:
        raise ValueError(f"{path}: {len(data)} bytes is not a whole number "
                         f"of 8-byte offsets")
    offsets = np.frombuffer(data, dtype="<u8").astype(np.uint64)
    side = sidecar_path(path)
    if side.exists():
        meta = json.loads(side.read_text())
        if meta.get("accesses") != offsets.shape[0]:
            raise ValueError(f"{side}: sidecar says {meta.get('accesses')} "
                             f"accesses, trace holds {offsets.shape[0]}")
        layout = UnkLayout.from_dict(meta["layout"]) if meta["layout"] else None
        pattern = TraversalPattern(meta["pattern"]) if meta["pattern"] else None
        return AddressTrace(offsets, meta["elem_bytes"], layout, pattern,
                            meta["passes"])
    # Raw stream without a sidecar: offsets only, double-width elements.
    return AddressTrace(offsets, 8, None, None, 1)

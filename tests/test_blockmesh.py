import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pagescope.blockmesh import (
    ALLOC_STRATEGIES,
    CHUNK,
    AddressTrace,
    AllocationFailure,
    TraversalPattern,
    UnkLayout,
    _run_views,
    _single_pass_runs,
    address_of,
    gen_trace,
    load_trace,
    run_kernel,
    save_trace,
    sidecar_path,
)

LAYOUT = UnkLayout.simple(5, 16, 16, 16, 10)


def _single_runs(layout: UnkLayout, pattern: TraversalPattern):
    """One pass's run families expanded into runs (first, count, stride)."""
    return [(first + r * row_step, count, stride)
            for first, count, stride, rows, row_step in _single_pass_runs(layout, pattern)
            for r in range(rows)]


def _single_pass_elements(layout: UnkLayout, pattern: TraversalPattern) -> np.ndarray:
    """Element indices of one traversal pass, in access order: the plain
    np.arange reference that chunked and viewed walks are compared against."""
    parts = [np.arange(start, start + count * stride, stride, dtype=np.uint64)
             for start, count, stride in _single_runs(layout, pattern)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def test_origin_is_zero():
    assert address_of(LAYOUT, 0, 1, 1, 1, 0) == 0


def test_block_stride_is_163840_bytes():
    assert address_of(LAYOUT, 0, 1, 1, 1, 1) == 5 * 16 ** 3 * 8 == 163_840
    assert LAYOUT.block_stride_bytes == 163_840


def test_adjacent_vars_are_contiguous():
    assert address_of(LAYOUT, 1, 1, 1, 1, 0) == 8


def test_zone_strides_follow_column_major_order():
    base = address_of(LAYOUT, 0, 1, 1, 1, 0)
    assert address_of(LAYOUT, 0, 2, 1, 1, 0) - base == 5 * 8
    assert address_of(LAYOUT, 0, 1, 2, 1, 0) - base == 5 * 16 * 8
    assert address_of(LAYOUT, 0, 1, 1, 2, 0) - base == 5 * 16 * 16 * 8


@pytest.mark.parametrize("v,i,j,k,b", [
    (5, 1, 1, 1, 0), (-1, 1, 1, 1, 0), (0, 0, 1, 1, 0), (0, 17, 1, 1, 0),
    (0, 1, 0, 1, 0), (0, 1, 1, 17, 0), (0, 1, 1, 1, 10), (0, 1, 1, 1, -1),
])
def test_out_of_bounds_rejected(v, i, j, k, b):
    with pytest.raises(IndexError, match="^[vijkb]=-?[0-9]+ outside "):
        address_of(LAYOUT, v, i, j, k, b)


def test_guard_cell_bounds():
    lay = UnkLayout.with_guards(5, interior=16, maxblocks=2)
    assert (lay.i_lo, lay.i_hi) == (-3, 20)
    assert lay.ni == 24
    assert address_of(lay, 0, -3, -3, -3, 0) == 0


def test_layout_validation():
    with pytest.raises(ValueError):
        UnkLayout.simple(0, 16, 16, 16, 1)
    with pytest.raises(ValueError):
        UnkLayout(1, 2, 1, 1, 1, 1, 1, 1)  # i_hi < i_lo


small_layouts = st.builds(
    UnkLayout.simple,
    nvar=st.integers(1, 3), ni=st.integers(1, 4), nj=st.integers(1, 4),
    nk=st.integers(1, 3), maxblocks=st.integers(1, 3))


@given(small_layouts)
@settings(max_examples=40)
def test_address_of_bijective_and_tiling(lay):
    offsets = sorted(
        address_of(lay, v, i, j, k, b)
        for v, i, j, k, b in itertools.product(
            range(lay.nvar), range(lay.i_lo, lay.i_hi + 1),
            range(lay.j_lo, lay.j_hi + 1), range(lay.k_lo, lay.k_hi + 1),
            range(lay.maxblocks)))
    assert offsets == list(range(0, lay.total_bytes, lay.elem_bytes))


def test_block_sweep_matches_address_oracle():
    trace = gen_trace(LAYOUT, TraversalPattern.BlockSweep)
    expected = [address_of(LAYOUT, 0, 1, 1, 1, b) for b in range(10)]
    assert trace.offsets.tolist() == expected == [b * 163_840 for b in range(10)]


def test_zone_sweep_is_identity_walk():
    lay = UnkLayout.simple(2, 3, 3, 2, 2)
    trace = gen_trace(lay, TraversalPattern.ZoneSweep)
    offs = trace.offsets
    assert offs.shape[0] == lay.elements
    assert np.all(np.diff(offs.astype(np.int64)) > 0)
    assert offs.tolist() == list(range(0, lay.total_bytes, 8))


def test_zone_sweep_order_matches_address_oracle():
    # Variable index fastest, then i, j, k, block slowest.
    lay = UnkLayout.simple(2, 2, 2, 2, 2)
    trace = gen_trace(lay, TraversalPattern.ZoneSweep)
    oracle = [address_of(lay, v, i, j, k, b)
              for b in range(lay.maxblocks)
              for k in range(lay.k_lo, lay.k_hi + 1)
              for j in range(lay.j_lo, lay.j_hi + 1)
              for i in range(lay.i_lo, lay.i_hi + 1)
              for v in range(lay.nvar)]
    assert trace.offsets.tolist() == oracle


def test_var_sweep():
    trace = gen_trace(LAYOUT, TraversalPattern.VarSweep)
    assert trace.offsets.tolist() == [0, 8, 16, 24, 32]


def test_multiple_passes_concatenate():
    one = gen_trace(LAYOUT, TraversalPattern.BlockSweep, passes=1)
    two = gen_trace(LAYOUT, TraversalPattern.BlockSweep, passes=2)
    assert two.offsets.tolist() == one.offsets.tolist() * 2


def test_sum2d_covers_plane_in_both_orders():
    lay = UnkLayout.simple(1, 3, 2, 1, 1)
    trace = gen_trace(lay, TraversalPattern.RepeatedSum2D)
    col = [0, 8, 16, 24, 32, 40]               # i fastest: contiguous
    row = [0, 24, 8, 32, 16, 40]               # j fastest: stride ni elems
    assert trace.offsets.tolist() == col + row


def test_sum2d_respects_variable_stride():
    lay = UnkLayout.simple(3, 2, 2, 1, 1)
    trace = gen_trace(lay, TraversalPattern.RepeatedSum2D)
    assert all(off % (3 * 8) == 0 for off in trace.offsets.tolist())


over_run_layouts = pytest.mark.parametrize(
    "lay", [UnkLayout.with_guards(2, 4, 3), UnkLayout.simple(3, 5, 4, 2, 2), LAYOUT],
    ids=["guards", "multi-var", "default"])


def _oracle_offsets(lay, pattern):
    """Byte offsets of one pass, one address_of call per access."""
    i_range = range(lay.i_lo, lay.i_hi + 1)
    j_range = range(lay.j_lo, lay.j_hi + 1)
    if pattern is TraversalPattern.ZoneSweep:
        return [address_of(lay, v, i, j, k, b)
                for b in range(lay.maxblocks)
                for k in range(lay.k_lo, lay.k_hi + 1)
                for j in j_range for i in i_range for v in range(lay.nvar)]
    if pattern is TraversalPattern.BlockSweep:
        return [address_of(lay, 0, lay.i_lo, lay.j_lo, lay.k_lo, b)
                for b in range(lay.maxblocks)]
    if pattern is TraversalPattern.VarSweep:
        return [address_of(lay, v, lay.i_lo, lay.j_lo, lay.k_lo, 0)
                for v in range(lay.nvar)]
    # sum2d: plane v=0, k=k_lo, b=0, i fastest, then j fastest.
    return ([address_of(lay, 0, i, j, lay.k_lo, 0) for j in j_range for i in i_range]
            + [address_of(lay, 0, i, j, lay.k_lo, 0) for i in i_range for j in j_range])


@over_run_layouts
@pytest.mark.parametrize("pattern", list(TraversalPattern))
def test_gen_trace_matches_address_oracle(lay, pattern):
    assert gen_trace(lay, pattern).offsets.tolist() == _oracle_offsets(lay, pattern)


@over_run_layouts
@pytest.mark.parametrize("pattern", list(TraversalPattern))
def test_kernel_views_walk_the_trace(lay, pattern):
    runs = _single_pass_runs(lay, pattern)
    views = _run_views(np.arange(lay.elements, dtype=np.uint64), runs)
    # ravel() reads a 2-D view in C order: row by row, that is run by run.
    walked = np.concatenate([view.ravel() for view in views])
    assert walked.tolist() == _single_pass_elements(lay, pattern).tolist()


def test_gen_trace_rejects_zero_passes():
    with pytest.raises(ValueError):
        gen_trace(LAYOUT, TraversalPattern.ZoneSweep, passes=0)


def test_block_stride_exceeds_small_page_for_default_geometry():
    # nvar >= 5 with 16^3 zones: the walk changes 4 KiB page every access.
    assert LAYOUT.block_stride_bytes > 4096


SMALL = UnkLayout.simple(2, 4, 4, 4, 3)


@pytest.mark.parametrize("alloc", ALLOC_STRATEGIES)
@pytest.mark.parametrize("passes", [1, 3])
def test_run_kernel_calls_touched_once_per_call(alloc, passes):
    calls = []
    total = run_kernel(SMALL, TraversalPattern.ZoneSweep, passes, 1.0,
                       alloc=alloc, touched=lambda: calls.append(1))
    assert calls == [1]
    assert total == passes * SMALL.elements


def test_checksum_sum_of_ones():
    total = run_kernel(SMALL, TraversalPattern.ZoneSweep, 1, 1.0)
    assert total == SMALL.elements == 2 * 64 * 3


def test_checksum_zero_fill():
    assert run_kernel(SMALL, TraversalPattern.ZoneSweep, 2, 0.0) == 0.0


def test_checksum_linear_in_passes():
    one = run_kernel(SMALL, TraversalPattern.ZoneSweep, 1, 1.0)
    three = run_kernel(SMALL, TraversalPattern.ZoneSweep, 3, 1.0)
    assert three == 3 * one


# A non-square plane with nvar > 1: sum2d's column sweep covers its row runs
# at stride nvar.
PLANE_3VAR = UnkLayout.simple(3, 5, 7, 1, 2)
# Guard cells (zone bounds 0 to 4) with nvar > 1.
GUARDED_3VAR = UnkLayout.with_guards(2, 3, 2, guards=1)


@pytest.mark.parametrize("pattern", list(TraversalPattern))
def test_checksum_identical_across_alloc_strategies(monkeypatch, pattern):
    # A demand array starts as NaN, so an element the kernel reads before
    # it writes it shows in the checksum.
    monkeypatch.setattr(np, "empty", lambda *a, **k: np.full(*a, np.nan, **k))
    for lay in (SMALL, PLANE_3VAR, GUARDED_3VAR):
        eager = run_kernel(lay, pattern, 2, 1.5, alloc="eager")
        demand = run_kernel(lay, pattern, 2, 1.5, alloc="demand")
        assert eager == demand
        assert eager == 2 * 1.5 * gen_trace(lay, pattern).accesses


class _LoggedView(np.ndarray):
    """One kernel view that logs each write to it and each reduction of it."""

    def __setitem__(self, key, value):
        self.log.append(("write", self.index))
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.log.append(("read", self.index))
        inputs = [x.view(np.ndarray) if isinstance(x, _LoggedView) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("alloc", ["eager", "demand"])
@pytest.mark.parametrize("pattern", list(TraversalPattern))
def test_demand_writes_each_element_once_at_first_touch(monkeypatch, pattern, alloc):
    log = []

    def logged_views(arr, runs):
        views = [view.view(_LoggedView) for view in _run_views(arr, runs)]
        for index, view in enumerate(views):
            view.log, view.index = log, index
        return views

    monkeypatch.setattr("pagescope.blockmesh._run_views", logged_views)
    assert run_kernel(PLANE_3VAR, pattern, 3, 1.0, alloc=alloc) == (
        3 * gen_trace(PLANE_3VAR, pattern).accesses)
    # Pass 0 of a demand run writes view 0 (run 0) before reading it, and
    # nothing else: zone, block and var have one run, and sum2d's column
    # sweep holds every element of its row sweep. Each pass reads each view
    # once: sum2d's row runs are one 2-D view.
    views = _run_views(np.empty(PLANE_3VAR.elements), _single_pass_runs(PLANE_3VAR, pattern))
    assert len(views) == (2 if pattern is TraversalPattern.RepeatedSum2D else 1)
    reads = [("read", index) for index in range(len(views))]
    assert log == [("write", 0)] * (alloc == "demand") + reads * 3


class _Element:
    """An array element that logs its index into `log` each time it is an
    operand of an addition."""

    def __init__(self, index, log):
        self.index, self.log = index, log

    def __add__(self, other):
        for operand in (self, other):
            if isinstance(operand, _Element):
                operand.log.append(operand.index)
        return _PartialSum()


class _PartialSum:
    """A running sum: adding an element to it logs that element."""

    def __add__(self, other):
        if isinstance(other, _Element):
            other.log.append(other.index)
        return self


@pytest.mark.parametrize("lay", [PLANE_3VAR, GUARDED_3VAR, UnkLayout.simple(2, 6, 3, 2, 1)],
                         ids=["plane-3var", "guarded-3var", "non-square"])
def test_kernel_reductions_visit_elements_in_trace_order(lay):
    # Object items are 8 bytes wide, like doubles, so the views have the
    # float64 run's strides and numpy iterates them in the same order.
    log = []
    arr = np.empty(lay.elements, dtype=object)
    arr[:] = [_Element(index, log) for index in range(lay.elements)]
    assert arr.itemsize == 8
    views = _run_views(arr, _single_pass_runs(lay, TraversalPattern.RepeatedSum2D))
    assert [view.shape[0] for view in views] == [1, lay.ni]
    for view in views:
        np.add.reduceat(view, [0], axis=1)
    assert log == _single_pass_elements(lay, TraversalPattern.RepeatedSum2D).tolist()


def test_run_family_becomes_one_read_only_view():
    arr = np.arange(12.0)
    (view,) = _run_views(arr, [(0, 3, 4, 3, 1)])
    assert view.tolist() == [[0, 4, 8], [1, 5, 9], [2, 6, 10]]
    assert not view.flags.writeable
    assert np.add.reduceat(view, [0], axis=1).ravel().tolist() == [12.0, 15.0, 18.0]
    # One row is one run at a positive stride: writing it aliases nothing.
    (row,) = _run_views(arr, [(1, 3, 4, 1, 0)])
    assert row.tolist() == [[1, 5, 9]] and row.flags.writeable


@pytest.mark.parametrize("family", [
    (0, 4, 1, 3, 4),                     # a family whose last row overruns
    (9, 4, 1, 1, 0),                     # a single run that overruns
    (-1, 2, 1, 1, 0),
    # Empty or backward families, whose first and last elements would not
    # bound them.
    (0, 0, 1, 1, 0), (0, 2, 1, 0, 1), (0, 2, 0, 1, 0), (0, 2, -1, 1, 0),
    (4, 2, 1, 2, -2),
], ids=["family", "single", "negative-start", "count-0", "rows-0", "stride-0",
        "stride-negative", "row-step-negative"])
def test_runs_outside_the_array_are_rejected(family):
    with pytest.raises(ValueError, match="outside an array of 11 elements"):
        _run_views(np.arange(11.0), [family])


def _per_run_checksum(layout, pattern, passes, fill):
    """run_kernel's checksum, one np.add.reduce call per run of each pass."""
    arr = np.full(layout.elements, fill, dtype=np.float64)
    checksum = 0.0
    for _ in range(passes):
        for start, count, stride in _single_runs(layout, pattern):
            checksum += float(np.add.reduce(arr[start:start + (count - 1) * stride + 1:stride]))
    return checksum


EXACT_FILLS = (0.0, 1.0, 1.5, -0.25)


@given(layout=st.builds(UnkLayout.simple, nvar=st.integers(1, 4), ni=st.integers(1, 300),
                        nj=st.integers(1, 300), nk=st.integers(1, 2),
                        maxblocks=st.integers(1, 2)),
       pattern=st.sampled_from(list(TraversalPattern)),
       passes=st.integers(1, 3), alloc=st.sampled_from(["eager", "demand"]),
       fill=st.sampled_from(EXACT_FILLS) | st.floats(-1e6, 1e6))
@settings(max_examples=100, deadline=None)
def test_checksum_agrees_with_per_run_reduce(layout, pattern, passes, alloc, fill):
    got = run_kernel(layout, pattern, passes, fill, alloc=alloc)
    want = _per_run_checksum(layout, pattern, passes, fill)
    # reduceat sums a row as x0 + pairwise(x[1:]), reduce as pairwise(x):
    # the last bit may differ unless every partial sum is exact.
    if fill in EXACT_FILLS:
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-12)


small_and_guarded_layouts = small_layouts | st.builds(
    UnkLayout.with_guards, nvar=st.integers(1, 3), interior=st.integers(1, 4),
    maxblocks=st.integers(1, 3), guards=st.integers(0, 2))


@given(small_and_guarded_layouts, st.sampled_from(list(TraversalPattern)),
       st.integers(1, 3))
@settings(max_examples=100)
def test_run_families_describe_one_pass(lay, pattern, passes):
    families = _single_pass_runs(lay, pattern)
    for first, count, stride, rows, row_step in families:
        assert min(count, rows, stride) >= 1 and row_step >= 0
        # With forward steps, first and last are the lowest and highest.
        last = first + (rows - 1) * row_step + (count - 1) * stride
        assert 0 <= first <= last < lay.elements
    # Family 0 is one row holding every element of the pass: the demand
    # fill writes it alone.
    first, count, stride, rows, _ = families[0]
    assert rows == 1
    assert (set(_single_pass_elements(lay, pattern).tolist())
            <= set(range(first, first + count * stride, stride)))
    assert gen_trace(lay, pattern, passes).accesses == passes * sum(
        count * rows for _, count, _, rows, _ in families)


def test_run_kernel_allocates_no_gather_temporary():
    import tracemalloc
    lay = UnkLayout.simple(1, 1024, 1024, 1, 1)
    tracemalloc.start()
    try:
        run_kernel(lay, TraversalPattern.RepeatedSum2D, 2, 1.0, alloc="demand")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < lay.total_bytes + 1024 ** 2


def test_bad_alloc_token():
    with pytest.raises(ValueError):
        run_kernel(SMALL, TraversalPattern.ZoneSweep, 1, 1.0, alloc="lazy")


def test_allocation_failure_is_reported():
    # ~7 PiB of doubles: the virtual allocation itself must fail.
    impossible = UnkLayout.simple(1000, 1024, 1024, 1024, 1000)
    with pytest.raises(AllocationFailure):
        run_kernel(impossible, TraversalPattern.BlockSweep, 1, 1.0,
                   alloc="demand")


def test_run_kernel_refuses_more_than_physical_memory(monkeypatch):
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    plane = 1024 * 1024 * 8
    lay = UnkLayout.simple(1, 1024, 1024, 1, 2 * physical // plane + 1)
    assert lay.total_bytes > 2 * physical

    def never(*args, **kwargs):
        raise AssertionError("numpy was asked to allocate")

    monkeypatch.setattr(np, "empty", never)
    monkeypatch.setattr(np, "full", never)
    for alloc in ("eager", "demand"):
        with pytest.raises(AllocationFailure, match=f"cannot allocate {lay.total_bytes} bytes"):
            run_kernel(lay, TraversalPattern.BlockSweep, 1, 1.0, alloc=alloc)


def test_unallocatable_trace_is_an_allocation_failure(tmp_path):
    # 2e15 accesses: more bytes than the 128 TiB user address space. The
    # trace itself allocates nothing; its offsets array and its file fail.
    impossible = UnkLayout.simple(5, 16, 16, 16, 100_000_000_000)
    trace = gen_trace(impossible, TraversalPattern.ZoneSweep)
    with pytest.raises(AllocationFailure):
        trace.offsets
    with pytest.raises(AllocationFailure, match="cannot allocate"):
        save_trace(trace, tmp_path / "huge.trace")
    assert not list(tmp_path.iterdir())


def test_trace_save_load_round_trip(tmp_path):
    trace = gen_trace(LAYOUT, TraversalPattern.BlockSweep, passes=2)
    path = tmp_path / "block.trace"
    save_trace(trace, path)
    raw = path.read_bytes()
    assert len(raw) == trace.accesses * 8
    assert raw[:8] == (0).to_bytes(8, "little")
    assert raw[8:16] == (163_840).to_bytes(8, "little")
    assert sidecar_path(path).exists()

    loaded = load_trace(path)
    assert loaded.offsets.tolist() == trace.offsets.tolist()
    assert loaded.layout == LAYOUT
    assert loaded.pattern == TraversalPattern.BlockSweep
    assert loaded.passes == 2


def test_save_trace_writes_without_copying_the_offsets(tmp_path):
    import tracemalloc
    trace = gen_trace(UnkLayout.simple(5, 16, 16, 16, 40), TraversalPattern.ZoneSweep)
    assert trace.offsets.nbytes > 4 * 1024 ** 2
    path = tmp_path / "big.trace"
    tracemalloc.start()
    try:
        save_trace(trace, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trace.offsets.nbytes // 16
    assert path.read_bytes() == trace.offsets.astype("<u8").tobytes()


def test_load_raw_stream_without_sidecar(tmp_path):
    path = tmp_path / "raw.trace"
    offsets = np.array([0, 4096, 8192], dtype="<u8")
    path.write_bytes(offsets.tobytes())
    loaded = load_trace(path)
    assert loaded.offsets.tolist() == [0, 4096, 8192]
    assert loaded.layout is None


def test_element_indices():
    elements = _single_pass_elements(SMALL, TraversalPattern.BlockSweep)
    assert elements.tolist() == [0, 128, 256]
    offsets = gen_trace(SMALL, TraversalPattern.BlockSweep).offsets
    assert offsets.tolist() == (elements * SMALL.elem_bytes).tolist()


def _source_kinds(trace, tmp_path):
    """The same trace from each kind of chunk source."""
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    array = AddressTrace(trace.offsets, trace.elem_bytes, None, None, trace.passes)
    return {"generated": trace, "file": load_trace(path), "array": array}


@pytest.mark.parametrize("pattern", list(TraversalPattern))
def test_chunks_concatenate_to_the_offsets_within_passes(tmp_path, pattern):
    passes = 3
    trace = gen_trace(SMALL, pattern, passes=passes)
    pass_len = trace.accesses // passes
    expected = np.tile(_single_pass_elements(SMALL, pattern) * np.uint64(8), passes)
    longest = max(count for _, count, _, _, _ in _single_pass_runs(SMALL, pattern))
    whole = next(k for k in (4, 3, 2) if longest % k == 0)
    # A pass longer than, as long as and shorter than a chunk; then a run
    # split into several whole chunks, and into chunks that do not divide
    # it (half a run and one, a run and one).
    sizes = (max(1, pass_len // 3), pass_len, 2 * pass_len + 1,
             longest // whole, longest // 2 + 1, longest + 1)
    for kind, source in _source_kinds(trace, tmp_path).items():
        assert source.offsets.tolist() == expected.tolist(), kind
        for size in sizes:
            done, seen = 0, []
            for chunk in source.chunks(size):
                n = chunk.size
                assert 0 < n <= size
                whole_passes = done % pass_len == 0 and n % pass_len == 0
                assert whole_passes or done // pass_len == (done + n - 1) // pass_len
                seen.extend(chunk.tolist())  # a chunk is valid until the next
                done += n
            assert seen == expected.tolist(), (kind, size)


def test_failed_save_keeps_the_existing_trace(tmp_path):
    src = tmp_path / "src.trace"
    save_trace(gen_trace(LAYOUT, TraversalPattern.ZoneSweep), src)
    loaded = load_trace(src)
    dest = tmp_path / "dest.trace"
    save_trace(gen_trace(LAYOUT, TraversalPattern.VarSweep), dest)
    before = dest.read_bytes(), sidecar_path(dest).read_text()
    with open(src, "r+b") as f:
        f.truncate(8)
    with pytest.raises(ValueError, match=str(src)):
        save_trace(loaded, dest)
    assert (dest.read_bytes(), sidecar_path(dest).read_text()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dest.trace", "dest.trace.json", "src.trace", "src.trace.json"]


def test_reading_a_trace_that_grew_since_it_was_loaded_names_the_file(tmp_path):
    path = tmp_path / "t.trace"
    save_trace(gen_trace(LAYOUT, TraversalPattern.ZoneSweep), path)
    loaded = load_trace(path)
    with open(path, "ab") as f:
        f.write(bytes(8))
    with pytest.raises(ValueError, match=f"{path}: trace file changed since "
                                         f"it was loaded"):
        next(loaded.chunks(CHUNK))


def test_reading_a_trace_that_shrinks_midway_names_the_file(tmp_path):
    path = tmp_path / "t.trace"
    save_trace(gen_trace(LAYOUT, TraversalPattern.ZoneSweep), path)
    loaded = load_trace(path)
    size = loaded.accesses // 4
    chunks = loaded.chunks(size)
    assert next(chunks).size == size
    with open(path, "r+b") as f:
        f.truncate(8 * size)
    with pytest.raises(ValueError, match=f"{path}: trace file shrank while "
                                         f"it was read"):
        next(chunks)

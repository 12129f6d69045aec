import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pagescope.blockmesh import (
    AllocationFailure,
    IndexOutOfBounds,
    TraversalPattern,
    UnkLayout,
    address_of,
    gen_trace,
    load_trace,
    run_kernel,
    save_trace,
    sidecar_path,
)

LAYOUT = UnkLayout.simple(5, 16, 16, 16, 10)


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
    with pytest.raises(IndexOutOfBounds):
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


def test_gen_trace_rejects_zero_passes():
    with pytest.raises(ValueError):
        gen_trace(LAYOUT, TraversalPattern.ZoneSweep, passes=0)


def test_block_stride_exceeds_small_page_for_default_geometry():
    # nvar >= 5 with 16^3 zones: the walk changes 4 KiB page every access.
    assert LAYOUT.block_stride_bytes > 4096


SMALL = UnkLayout.simple(2, 4, 4, 4, 3)


def test_checksum_sum_of_ones():
    total = run_kernel(SMALL, TraversalPattern.ZoneSweep, 1, 1.0)
    assert total == SMALL.elements == 2 * 64 * 3


def test_checksum_zero_fill():
    assert run_kernel(SMALL, TraversalPattern.ZoneSweep, 2, 0.0) == 0.0


def test_checksum_linear_in_passes():
    one = run_kernel(SMALL, TraversalPattern.ZoneSweep, 1, 1.0)
    three = run_kernel(SMALL, TraversalPattern.ZoneSweep, 3, 1.0)
    assert three == 3 * one


@pytest.mark.parametrize("pattern", list(TraversalPattern))
def test_checksum_identical_across_alloc_strategies(pattern):
    eager = run_kernel(SMALL, pattern, 2, 1.5, alloc="eager")
    demand = run_kernel(SMALL, pattern, 2, 1.5, alloc="demand")
    assert eager == demand
    assert eager == 2 * 1.5 * gen_trace(SMALL, pattern).accesses


def test_bad_alloc_token():
    with pytest.raises(ValueError):
        run_kernel(SMALL, TraversalPattern.ZoneSweep, 1, 1.0, alloc="lazy")


def test_allocation_failure_is_reported():
    # ~7 PiB of doubles: the virtual allocation itself must fail.
    impossible = UnkLayout.simple(1000, 1024, 1024, 1024, 1000)
    with pytest.raises(AllocationFailure):
        run_kernel(impossible, TraversalPattern.BlockSweep, 1, 1.0,
                   alloc="demand")


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


def test_load_raw_stream_without_sidecar(tmp_path):
    path = tmp_path / "raw.trace"
    offsets = np.array([0, 4096, 8192], dtype="<u8")
    path.write_bytes(offsets.tobytes())
    loaded = load_trace(path)
    assert loaded.offsets.tolist() == [0, 4096, 8192]
    assert loaded.layout is None


def test_element_indices():
    trace = gen_trace(SMALL, TraversalPattern.BlockSweep)
    assert trace.element_indices().tolist() == [0, 128, 256]

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pagescope import _kernels
from pagescope.blockmesh import TraversalPattern, UnkLayout, gen_trace
from pagescope.tlbsim import (
    PAGE_2M,
    PAGE_4K,
    SweepRow,
    TlbConfig,
    TlbStats,
    page_size_sweep,
    parse_size,
    simulate,
    stack_distance_oracle,
    sweep_csv,
)

BLOCK_TRACE = gen_trace(UnkLayout.simple(5, 16, 16, 16, 10),
                        TraversalPattern.BlockSweep, passes=2)


def test_config_validation():
    with pytest.raises(ValueError):
        TlbConfig(entries=0)
    with pytest.raises(ValueError):
        TlbConfig(entries=48, associativity=5)  # does not divide
    with pytest.raises(ValueError):
        TlbConfig(page_size_bytes=3000)
    with pytest.raises(ValueError):
        TlbConfig(page_size_bytes=2048)  # below 4 KiB
    cfg = TlbConfig(entries=48, associativity=4)
    assert cfg.sets == 12 and cfg.ways == 4
    assert TlbConfig().ways == TlbConfig().entries  # fully associative


def test_stats_invariants():
    with pytest.raises(ValueError):
        TlbStats(accesses=5, misses=6, distinct_pages=1)
    with pytest.raises(ValueError):
        TlbStats(accesses=5, misses=2, distinct_pages=3)


def test_single_page_misses_once():
    trace = np.zeros(100, dtype=np.uint64) + 123
    for cfg in (TlbConfig(entries=1), TlbConfig(entries=48),
                TlbConfig(entries=48, associativity=4)):
        stats = simulate(cfg, trace)
        assert stats == TlbStats(100, 1, 1)


def test_block_sweep_two_passes_fit_in_16_entries():
    stats = simulate(TlbConfig(entries=16, page_size_bytes=PAGE_4K), BLOCK_TRACE)
    assert stats == TlbStats(20, 10, 10)  # pass 1 all miss, pass 2 all hit


def test_block_sweep_collapses_under_2m_pages():
    stats = simulate(TlbConfig(entries=16, page_size_bytes=PAGE_2M), BLOCK_TRACE)
    assert stats == TlbStats(20, 1, 1)  # all offsets below 1.5 MiB: one page


def test_empty_trace():
    empty = np.array([], dtype=np.uint64)
    assert simulate(TlbConfig(), empty) == TlbStats(0, 0, 0)
    assert stack_distance_oracle(8, empty, PAGE_4K) == TlbStats(0, 0, 0)


def test_cyclic_working_set_one_larger_than_capacity_always_misses():
    entries = 6
    pages = np.arange(entries + 1, dtype=np.uint64)
    trace = np.concatenate([pages, pages]) * np.uint64(PAGE_4K)
    oracle = stack_distance_oracle(entries, trace, PAGE_4K)
    assert oracle.misses == oracle.accesses == 2 * (entries + 1)
    assert simulate(TlbConfig(entries=entries), trace) == oracle


def test_oracle_equals_simulate_on_random_trace():
    rng = np.random.RandomState(7)
    trace = (rng.randint(0, 300, size=10_000).astype(np.uint64)
             * np.uint64(PAGE_4K))
    for entries in (4, 16, 48):
        sim = simulate(TlbConfig(entries=entries), trace)
        assert sim == stack_distance_oracle(entries, trace, PAGE_4K)


def test_set_associative_conflict_eviction():
    # Two pages in the same set of a direct-mapped (ways=1) TLB evict each
    # other on every access; a third page in the other set stays resident.
    sets = 2
    cfg = TlbConfig(entries=2, associativity=1)
    same_set = [0, 2 * sets, 0, 2 * sets]
    other_set = [1, 1, 1]
    pages = np.array(same_set + other_set, dtype=np.uint64)
    stats = simulate(cfg, pages * np.uint64(PAGE_4K))
    assert stats.misses == 4 + 1
    assert stats.distinct_pages == 3


def test_determinism():
    cfg = TlbConfig(entries=8)
    rng = np.random.RandomState(3)
    trace = rng.randint(0, 64, size=2000).astype(np.uint64) * np.uint64(PAGE_4K)
    assert simulate(cfg, trace) == simulate(cfg, trace)


page_counts = st.integers(min_value=1, max_value=60)


@given(st.integers(0, 2 ** 32), st.integers(2, 400), st.sampled_from([4, 16, 48]))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_property(seed, universe, entries):
    rng = np.random.RandomState(seed % (2 ** 31))
    n = int(rng.randint(1, 600))
    trace = rng.randint(0, universe, size=n).astype(np.uint64) * np.uint64(PAGE_4K)
    sim = simulate(TlbConfig(entries=entries), trace)
    assert sim == stack_distance_oracle(entries, trace, PAGE_4K)


@given(st.integers(0, 2 ** 32), st.sampled_from([2, 8, 128]),
       st.sampled_from([4, 16, 48]))
@settings(max_examples=60, deadline=None)
def test_page_size_monotone_under_coarsening(seed, factor, entries):
    rng = np.random.RandomState(seed % (2 ** 31))
    n = int(rng.randint(1, 500))
    trace = (rng.randint(0, 2 ** 24, size=n).astype(np.uint64)
             * np.uint64(256))
    small = simulate(TlbConfig(entries=entries, page_size_bytes=PAGE_4K), trace)
    big = simulate(TlbConfig(entries=entries,
                             page_size_bytes=PAGE_4K * factor), trace)
    assert big.misses <= small.misses


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_cold_start_floor(seed):
    rng = np.random.RandomState(seed % (2 ** 31))
    trace = rng.randint(0, 50, size=300).astype(np.uint64) * np.uint64(PAGE_4K)
    stats = simulate(TlbConfig(entries=8), trace)
    assert stats.misses >= stats.distinct_pages


def test_sweep_single_page_all_ratios_one():
    trace = np.zeros(10, dtype=np.uint64)
    rows = page_size_sweep(trace, TlbConfig(entries=4), [PAGE_4K, PAGE_2M])
    assert [r.ratio for r in rows] == [1.0, 1.0]


def test_sweep_block_example_ratio():
    rows = page_size_sweep(BLOCK_TRACE, TlbConfig(entries=16),
                           [PAGE_4K, PAGE_2M])
    assert rows[0].stats.misses == 10
    assert rows[1].stats.misses == 1
    assert rows[1].ratio == pytest.approx(0.1)


def test_sweep_zone_sweep_ratio_is_page_count_quotient():
    # Layout sized to exactly 2 MiB: a sequential scan misses once per page,
    # so the ratio is (2 MiB pages) / (4 KiB pages) = 1/512.
    lay = UnkLayout.simple(4, 16, 16, 16, 16)
    assert lay.total_bytes == PAGE_2M
    trace = gen_trace(lay, TraversalPattern.ZoneSweep)
    rows = page_size_sweep(trace, TlbConfig(entries=48), [PAGE_4K, PAGE_2M])
    assert rows[0].stats.misses == 512
    assert rows[1].stats.misses == 1
    assert rows[1].ratio == pytest.approx(1 / 512)


def test_sweep_requires_sorted_sizes():
    with pytest.raises(ValueError):
        page_size_sweep(np.zeros(1, dtype=np.uint64), TlbConfig(),
                        [PAGE_2M, PAGE_4K])


def test_sweep_csv_format():
    rows = [SweepRow(PAGE_4K, TlbStats(20, 10, 10), 1.0),
            SweepRow(PAGE_2M, TlbStats(20, 1, 1), 0.1)]
    csv = sweep_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "size_bytes,accesses,misses,distinct_pages,ratio"
    assert lines[1] == "4096,20,10,10,1"
    assert lines[2] == "2097152,20,1,1,0.1"


def test_parse_size():
    assert parse_size("4K") == 4096
    assert parse_size("2M") == 2 * 1024 ** 2
    assert parse_size("512M") == 512 * 1024 ** 2
    assert parse_size("8192") == 8192


def test_jit_and_numpy_paths_agree():
    if _kernels.lru_misses_numba is None:
        pytest.skip("numba unavailable")
    rng = np.random.RandomState(11)
    pages = rng.randint(0, 97, size=4000).astype(np.int64)
    for sets, ways in ((1, 16), (4, 4), (16, 1)):
        assert (_kernels.lru_misses_numba(pages, sets, ways)
                == _kernels.lru_misses_numpy(pages, sets, ways))

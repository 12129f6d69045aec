import io
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pagescope import blockmesh, tlbsim
from pagescope.blockmesh import (
    AddressTrace,
    TraversalPattern,
    UnkLayout,
    gen_trace,
    load_trace,
    save_trace,
    sidecar_path,
)
from pagescope.tlbsim import (
    CHUNK,
    PAGE_2M,
    PAGE_4K,
    PAGE_512M,
    RunTrace,
    SweepRow,
    TlbConfig,
    TlbStats,
    page_size_sweep,
    parse_size,
    reduce,
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
    rows = page_size_sweep(empty, TlbConfig(), [PAGE_4K, PAGE_2M])
    assert [row.ratio for row in rows] == [1.0, 1.0]


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
    with pytest.raises(ValueError, match="page size 4096 is given twice"):
        page_size_sweep(np.zeros(1, dtype=np.uint64), TlbConfig(),
                        [PAGE_4K, PAGE_4K, PAGE_2M])


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
    assert parse_size(" 1g ") == 1024 ** 3
    for token in ("x", "4X", "K", "", "-4096", "4.5K", "2 M"):
        with pytest.raises(ValueError, match="is not a size like 4K, 2M or 4096"):
            parse_size(token)



def _full_replay(config: TlbConfig, trace) -> TlbStats:
    """Every access through the LRU kernel: no collapse, no fold."""
    offsets = np.asarray(getattr(trace, "offsets", trace), dtype=np.uint64)
    pages = (offsets // np.uint64(config.page_size_bytes)).astype(np.int64)
    misses = tlbsim.lru_misses(pages, config.sets, config.ways)
    return TlbStats(int(pages.size), misses, int(np.unique(pages).size))


def test_lru_memory_follows_the_sets_a_trace_touches():
    import tracemalloc
    # A sum2d pass revisits its 8 pages, so it reaches the LRU kernel.
    trace = gen_trace(UnkLayout.simple(1, 64, 64, 1, 1), TraversalPattern.RepeatedSum2D,
                      passes=2)
    config = TlbConfig(entries=2 ** 16, associativity=1)
    tracemalloc.start()
    try:
        stats = simulate(config, trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 ** 2
    assert stats == _full_replay(config, trace)
    # Direct-mapped, each page has its own set: only the 8 first touches miss.
    assert stats == TlbStats(trace.accesses, 8, 8)


def test_distinct_page_memory_follows_the_sets_a_trace_touches():
    import tracemalloc
    # Three distinct pages, one of them in the last of 2**22 sets.
    trace = _tiled([0, 2 ** 22 - 1, 5], 2)
    config = TlbConfig(entries=2 ** 22, associativity=1)
    tracemalloc.start()
    try:
        with mock.patch.object(tlbsim, "lru_misses",
                               side_effect=AssertionError("replayed")):
            stats = simulate(config, trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 ** 2
    assert stats == _full_replay(config, trace)


def _tiled(one_pass: list[int], passes: int) -> AddressTrace:
    offsets = np.tile(np.array(one_pass, dtype=np.uint64) * np.uint64(PAGE_4K),
                      passes)
    return AddressTrace(offsets, 8, None, None, passes)


# A pass of a few pages, each repeated in a run and revisited later.
single_passes = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 4)), min_size=1, max_size=60
).map(lambda runs: [page for page, n in runs for _ in range(n)])


@given(single_passes, st.integers(1, 6), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_shortcuts_equal_full_replay(one_pass, passes, sets, ways):
    config = TlbConfig(entries=sets * ways, associativity=ways)
    trace = _tiled(one_pass, passes)
    assert simulate(config, trace) == _full_replay(config, trace)


# Passes of distinct pages, across set counts and ways from one to more
# than the pages a pass holds; a single-page pass included.
@given(st.lists(st.integers(0, 200), min_size=1, max_size=30, unique=True),
       st.sampled_from([1, 2, 3, 12]), st.integers(1, 32), st.integers(1, 2))
@settings(max_examples=300, deadline=None)
def test_distinct_page_passes_equal_full_replay_without_it(one_pass, sets, ways,
                                                          passes):
    config = TlbConfig(entries=sets * ways, associativity=ways)
    trace = _tiled(one_pass, passes)
    expected = _full_replay(config, trace)
    with mock.patch.object(tlbsim, "lru_misses",
                           side_effect=AssertionError("replayed")):
        assert simulate(config, trace) == expected


def _claims_two_passes_but_halves_differ():
    offsets = np.array([0, 1, 2, 3, 0, 1, 2, 4], dtype=np.uint64) * np.uint64(PAGE_4K)
    return AddressTrace(offsets, 8, None, None, 2)


def _passes_do_not_divide_length():
    offsets = np.array([5, 5, 6, 7, 5, 6, 7], dtype=np.uint64) * np.uint64(PAGE_4K)
    return AddressTrace(offsets, 8, None, None, 2)


def _raw_array():
    rng = np.random.RandomState(5)
    return rng.randint(0, 30, size=3000).repeat(3).astype(np.uint64) * np.uint64(PAGE_4K)


def _raw_array_over_chunks():
    # Runs of 3 equal pages straddle the chunk boundaries of the collapse.
    rng = np.random.RandomState(6)
    pages = rng.randint(0, 30, size=CHUNK).repeat(3)
    return pages.astype(np.uint64) * np.uint64(PAGE_4K)


@pytest.mark.parametrize("make_trace", [
    _claims_two_passes_but_halves_differ,
    _passes_do_not_divide_length,
    _raw_array,
    _raw_array_over_chunks,
], ids=["passes-claim-false", "passes-not-divisor", "raw-array",
        "raw-array-over-chunks"])
def test_traces_without_a_verified_period_equal_full_replay(make_trace):
    trace = make_trace()
    for entries, assoc in ((2, None), (4, 2), (8, 1), (48, None)):
        config = TlbConfig(entries=entries, associativity=assoc)
        assert simulate(config, trace) == _full_replay(config, trace)


@pytest.fixture
def replayed(monkeypatch):
    """Lengths of the page arrays simulate() hands to the LRU kernel."""
    lengths = []
    kernel = tlbsim.lru_misses

    def recording(pages, sets, ways):
        lengths.append(int(pages.size))
        return kernel(pages, sets, ways)

    monkeypatch.setattr(tlbsim, "lru_misses", recording)
    return lengths


def test_periodic_block_trace_replays_at_most_three_passes(replayed):
    blocks = 1000
    trace = gen_trace(UnkLayout.simple(5, 16, 16, 16, blocks),
                      TraversalPattern.BlockSweep, passes=2000)
    stats = simulate(TlbConfig(entries=48, associativity=4), trace)
    assert stats.accesses == stats.misses == 2_000_000  # every run misses
    assert replayed == []  # a pass of distinct pages is counted, not replayed


def test_periodic_sum2d_trace_replays_at_most_three_passes(replayed):
    trace = gen_trace(UnkLayout.simple(1, 64, 64, 1, 1),
                      TraversalPattern.RepeatedSum2D, passes=3)
    config = TlbConfig(entries=48, associativity=4)
    runs = reduce(trace, PAGE_4K).starts.size  # the pass revisits its pages
    expected = _full_replay(config, trace)
    replayed.clear()
    assert simulate(config, trace) == expected
    assert 0 < sum(replayed) <= 3 * runs < trace.accesses


def test_zone_trace_replays_one_access_per_page_run(replayed):
    import tracemalloc
    trace = gen_trace(UnkLayout.simple(5, 16, 16, 16, 100),
                      TraversalPattern.ZoneSweep)
    tracemalloc.start()
    try:
        stats = simulate(TlbConfig(page_size_bytes=PAGE_4K), trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert replayed == []
    assert stats == TlbStats(trace.accesses, 4000, 4000)
    # The collapse keeps one flag per access, not a page id per access.
    assert peak < trace.offsets.nbytes // 4


# Addresses below 2 GiB, so that even 512 MiB pages tell some apart.
address_pools = st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=24)
pool_runs = st.lists(st.tuples(st.integers(0, 23), st.integers(1, 4)),
                     min_size=1, max_size=40)
ascending_sizes = st.sets(st.integers(12, 29), min_size=1, max_size=4).map(
    lambda shifts: [1 << k for k in sorted(shifts)])


@given(address_pools, pool_runs, st.integers(1, 4),
       st.sampled_from(["verified", "false", "raw"]), st.integers(1, 8),
       ascending_sizes, st.sampled_from([1, 2, 4]), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_sweep_equals_full_replay_at_every_size(pool, runs, passes, claim, chunk,
                                               sizes, sets, ways):
    one_pass = [pool[i % len(pool)] for i, n in runs for _ in range(n)]
    offsets = np.tile(np.array(one_pass, dtype=np.uint64), passes)
    if claim == "false":
        # A new page at every size in the last access: the period is a lie.
        offsets[-1] ^= np.uint64(1 << 31)
    trace = (offsets if claim == "raw"
             else AddressTrace(offsets, 8, None, None, passes))
    config = TlbConfig(entries=sets * ways, associativity=ways)
    with tempfile.TemporaryDirectory() as tmp:
        # The same trace from a file: the sidecar carries the claim, and a
        # raw stream has none.
        path = Path(tmp) / "t.trace"
        save_trace(AddressTrace(offsets, 8, None, None,
                                1 if claim == "raw" else passes), path)
        if claim == "raw":
            sidecar_path(path).unlink()
        # A chunk of a few accesses puts many runs across chunk boundaries
        # of the collapse while the trace stays small enough to replay in
        # full.
        with mock.patch.object(tlbsim, "CHUNK", chunk):
            sweeps = [page_size_sweep(trace, config, sizes),
                      page_size_sweep(load_trace(path), config, sizes)]
    for rows in sweeps:
        assert [r.page_size_bytes for r in rows] == sizes
        for row in rows:
            full = _full_replay(replace(config, page_size_bytes=row.page_size_bytes),
                                trace)
            assert row.stats == full


class _CountingTrace:
    """A trace that counts how often its offsets are read."""

    def __init__(self, trace):
        self._trace = trace
        self.passes = trace.passes
        self.reads = 0

    @property
    def offsets(self):
        self.reads += 1
        return self._trace.offsets


def test_sweep_reads_the_trace_once():
    trace = _CountingTrace(BLOCK_TRACE)
    rows = page_size_sweep(trace, TlbConfig(entries=16),
                           [PAGE_4K, PAGE_2M, PAGE_512M])
    assert trace.reads == 1
    assert [r.stats for r in rows] == [
        simulate(TlbConfig(entries=16, page_size_bytes=size), BLOCK_TRACE)
        for size in (PAGE_4K, PAGE_2M, PAGE_512M)]


def test_reduce_keeps_a_verified_period_only():
    assert reduce(BLOCK_TRACE, PAGE_4K).passes == 2
    assert reduce(BLOCK_TRACE.offsets, PAGE_4K).passes == 1
    false_claim = _claims_two_passes_but_halves_differ()
    assert reduce(false_claim, PAGE_4K).passes == 1
    runs = reduce(BLOCK_TRACE, PAGE_4K)
    assert isinstance(runs, RunTrace) and runs.accesses == 20
    assert runs.starts.size == 10  # one start per block of one pass


def test_simulate_rejects_a_trace_reduced_at_a_larger_page():
    runs = reduce(BLOCK_TRACE, PAGE_2M)
    with pytest.raises(ValueError):
        simulate(TlbConfig(entries=16, page_size_bytes=PAGE_4K), runs)
    assert simulate(TlbConfig(entries=16, page_size_bytes=PAGE_2M), runs) == \
        simulate(TlbConfig(entries=16, page_size_bytes=PAGE_2M), BLOCK_TRACE)


def test_reduce_rejects_a_bad_page_size():
    with pytest.raises(ValueError):
        reduce(BLOCK_TRACE, 3000)


def test_trace_and_tlbsim_memory_stays_below_the_trace(tmp_path, capsys):
    import tracemalloc
    from pagescope.cli import main
    path = tmp_path / "zone.trace"
    peaks = []
    for argv in (["trace", "--layout", "5,16,16,16,100", "--pattern", "zone",
                  "--out", str(path)],
                 ["tlbsim", "--trace", str(path), "--sizes", "4K,2M,512M"]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    trace_bytes = path.stat().st_size
    assert trace_bytes == 8 * 5 * 16 ** 3 * 100  # 16.4 MB
    assert max(peaks) < trace_bytes // 8, peaks
    assert capsys.readouterr().out.splitlines()[-3].startswith("4096,2048000,4000,")


def _save_block_trace(path):
    save_trace(gen_trace(UnkLayout.simple(5, 16, 16, 16, 100),
                         TraversalPattern.BlockSweep, passes=500), path)
    return path


def test_a_file_truncated_after_loading_is_an_error_naming_it(tmp_path):
    path = _save_block_trace(tmp_path / "block.trace")
    trace = load_trace(path)
    with open(path, "r+b") as f:
        f.truncate(8 * 1000)
    with pytest.raises(ValueError, match=str(path)):
        page_size_sweep(trace, TlbConfig(), [PAGE_4K, PAGE_2M])
    # Truncated while it is read, between two chunks.
    chunks = load_trace(_save_block_trace(path)).chunks(CHUNK)
    next(chunks)
    with open(path, "r+b") as f:
        f.truncate(CHUNK * 8)
    with pytest.raises(ValueError, match=str(path)):
        next(chunks)


@pytest.mark.parametrize("claim,chunk,scans", [
    (500, CHUNK, 1), (500, 64, 1), (1, CHUNK, 1), (400, CHUNK, 2),
], ids=["period-holds", "pass-longer-than-chunk", "one-pass", "period-false"])
def test_a_loaded_trace_is_read_once_per_sweep(tmp_path, monkeypatch, claim, chunk,
                                               scans):
    path = _save_block_trace(tmp_path / "block.trace")
    side = sidecar_path(path)
    side.write_text(side.read_text().replace('"passes": 500', f'"passes": {claim}'))
    read = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            read.append(super().readinto(buffer))
            return read[-1]

    monkeypatch.setattr(blockmesh, "open",
                        lambda file, mode, buffering: CountingFile(file, mode),
                        raising=False)
    monkeypatch.setattr(tlbsim, "CHUNK", chunk)
    rows = page_size_sweep(load_trace(path), TlbConfig(entries=48, associativity=4),
                           [PAGE_4K, PAGE_2M, PAGE_512M])
    size = path.stat().st_size
    # A false claim is found in the first scan, then read again as one pass.
    assert sum(read) == size if scans == 1 else size < sum(read) < 2 * size
    assert rows[0].stats == TlbStats(50_000, 50_000, 100)

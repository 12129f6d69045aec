"""Acceptance criteria, one test per criterion.

Desk-scale checks: fixture-value consistency for the reference measures,
exact oracle equivalence for the TLB model, property suites for parsers and
launch plans, and a best-effort real-memory smoke test that skips where the
host lacks transparent huge pages.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pagescope.blockmesh import TraversalPattern, UnkLayout, gen_trace, run_kernel
from pagescope.counterhub import EventId
from pagescope.hugepagectl import (
    MEMINFO_PATH,
    THP_ENABLED_PATH,
    FixtureFs,
    HugePageMode,
    MeminfoMonitor,
    RealFs,
    ThpMode,
    detect_usage,
    parse_meminfo,
    parse_thp,
    plan_launch,
    render_thp,
    thp_state_text,
)
from pagescope.metrics import (
    LABEL_DTLB,
    LABEL_TIMER,
    MEASURE_LABELS,
    CpuSpec,
    derive,
)
from pagescope.report import ExperimentConfig, WorkloadSpec, render_ratio_chart, \
    render_table, report_to_json, run_experiment
from pagescope.tlbsim import PAGE_2M, PAGE_4K, TlbConfig, simulate, \
    stack_distance_oracle

from conftest import (
    REF_FREQ_HZ,
    REFERENCE_CASES,
    meminfo_text,
    reference_ratio_rows,
    reference_report,
)

CPU = CpuSpec(REF_FREQ_HZ, 256)


def _derive_backcomputed(cycles: float, sve_rate: float, dtlb_rate: float):
    seconds = cycles / REF_FREQ_HZ
    return derive({
        EventId.CpuCycles: int(cycles),
        EventId.SveInstRetired: round(sve_rate * cycles),
        EventId.DtlbLoadMisses: round(dtlb_rate * seconds),
    }, CPU)


def test_criterion_01_first_case_metric_consistency():
    m = _derive_backcomputed(1.25e11, 0.47, 2.34e7)
    assert m.seconds == pytest.approx(69.7, rel=0.01)
    assert m.sve_per_cycle == pytest.approx(0.47, rel=0.01)
    assert m.dtlb_misses_per_s == pytest.approx(2.34e7, rel=0.01)


def test_criterion_02_second_case_metric_consistency():
    m = _derive_backcomputed(1.21e12, 0.11, 7.83e5)
    assert m.seconds == pytest.approx(670.0, rel=0.01)
    assert m.dtlb_misses_per_s == pytest.approx(7.83e5, rel=0.01)


def test_criterion_03_ratio_reproduction():
    expectations = {
        "EOS": dict(dtlb=0.047, timer=333.150 / 339.032),
        "3-d Hydro": dict(dtlb=0.324, timer=1176.312 / 1203.616),
    }
    for name, case in REFERENCE_CASES.items():
        rows = {row.measure: row for row in reference_ratio_rows(case)}
        assert rows[LABEL_DTLB].ratio == pytest.approx(
            expectations[name]["dtlb"], abs=0.001)
        assert rows[LABEL_TIMER].ratio == pytest.approx(
            expectations[name]["timer"], abs=0.0005)
        for label, row in rows.items():
            if label != LABEL_DTLB:
                assert 0.9 <= row.ratio <= 1.1, (name, label, row.ratio)


def test_criterion_04_table_and_chart_rendering():
    # Tables: all six row labels, cells at three significant figures.
    for name, case in REFERENCE_CASES.items():
        table = render_table(reference_report(name))
        rows = {line.split("  ")[0].strip(): line
                for line in table.splitlines() if line.strip()}
        for label, without, with_ in zip(MEASURE_LABELS,
                                         case["cells_without"],
                                         case["cells_with"]):
            assert label in rows, (name, label)
            cells = rows[label][24:].split()
            assert cells == [without, with_], (name, label, cells)

    # Chart: DTLB bars at the reference ratios, everything else near one,
    # and the SVG bar data agrees with the companion CSV byte for byte.
    svg, csv = render_ratio_chart([reference_report("EOS"),
                                   reference_report("3-d Hydro")])
    svg_vals = {(m.group(1), m.group(2)): m.group(3) for m in re.finditer(
        r'data-measure="([^"]+)" data-case="([^"]+)" data-ratio="([^"]+)"', svg)}
    csv_vals = {}
    for line in csv.splitlines()[1:]:
        measure, case, value = re.match(r'"([^"]+)",([^,]+),(.*)', line).groups()
        csv_vals[(measure, case)] = value
    assert svg_vals and svg_vals == csv_vals
    assert float(svg_vals[(LABEL_DTLB, "EOS")]) == pytest.approx(0.047, abs=0.001)
    assert float(svg_vals[(LABEL_DTLB, "3-d Hydro")]) == pytest.approx(
        0.324, abs=0.001)
    for (measure, _case), value in svg_vals.items():
        if measure != LABEL_DTLB:
            assert 0.9 <= float(value) <= 1.1


def test_criterion_05_tlb_oracle_equivalence():
    rng = np.random.RandomState(1234)
    checked = 0
    for entries in (4, 16, 48):
        for _ in range(333):
            n = int(rng.randint(16, 2000))
            universe = int(rng.choice([2, max(2, entries // 2), entries,
                                       2 * entries, 4 * entries]))
            trace = (rng.randint(0, universe, size=n).astype(np.uint64)
                     * np.uint64(PAGE_4K))
            sim = simulate(TlbConfig(entries=entries), trace)
            assert sim == stack_distance_oracle(entries, trace, PAGE_4K)
            checked += 1
    # A few at the full 10^4-access bound.
    for entries in (4, 16, 48):
        trace = (rng.randint(0, 2 * entries, size=10_000).astype(np.uint64)
                 * np.uint64(PAGE_4K))
        assert simulate(TlbConfig(entries=entries), trace) == \
            stack_distance_oracle(entries, trace, PAGE_4K)
        checked += 1
    assert checked >= 1000


HUGE_EFFECT_LAYOUTS = [
    UnkLayout.simple(2, 8, 8, 8, 100),    # stride 8 KiB, ws under 2 MiB
    UnkLayout.simple(2, 8, 8, 8, 600),    # stride 8 KiB, ws ~4.7 MiB
    UnkLayout.simple(3, 16, 16, 16, 21),  # stride 96 KiB, ws just under 2 MiB
    UnkLayout.simple(5, 16, 16, 16, 100),  # stride 160 KiB, ws ~15.6 MiB
]


def test_criterion_06_huge_page_effect_and_monotonicity():
    entries = 48
    for lay in HUGE_EFFECT_LAYOUTS:
        assert lay.block_stride_bytes > PAGE_4K
        assert lay.block_stride_bytes * lay.maxblocks <= PAGE_2M * entries
        trace = gen_trace(lay, TraversalPattern.BlockSweep, passes=2)
        small = simulate(TlbConfig(entries=entries, page_size_bytes=PAGE_4K),
                         trace)
        big = simulate(TlbConfig(entries=entries, page_size_bytes=PAGE_2M),
                       trace)
        ratio = big.misses / small.misses
        assert ratio <= 0.05, (lay, small.misses, big.misses)

    # Coarsening monotonicity on randomized traces.
    rng = np.random.RandomState(99)
    sizes = [PAGE_4K, PAGE_4K * 8, PAGE_2M, PAGE_2M * 256]
    for _ in range(100):
        n = int(rng.randint(1, 800))
        trace = (rng.randint(0, 2 ** 26, size=n).astype(np.uint64)
                 * np.uint64(512))
        for ent in (4, 48):
            misses = [simulate(TlbConfig(entries=ent, page_size_bytes=s),
                               trace).misses for s in sizes]
            assert all(b <= a for a, b in zip(misses, misses[1:])), misses


TRACKED_ORDERINGS = 24  # sample of line permutations per document


def test_criterion_07_parser_round_trips():
    keys = ["AnonHugePages", "ShmemHugePages", "HugePages_Total",
            "HugePages_Free", "HugePages_Rsvd", "HugePages_Surp",
            "Hugepagesize", "Hugetlb"]
    reference = parse_meminfo(meminfo_text(anon_kb=4096, total=6, free=1,
                                           surp=6, hugetlb_kb=12288))
    rng = np.random.RandomState(5)
    orderings = [keys, list(reversed(keys))]
    orderings += [list(rng.permutation(keys)) for _ in range(TRACKED_ORDERINGS)]
    for order in orderings:
        doc = meminfo_text(anon_kb=4096, total=6, free=1, surp=6,
                           hugetlb_kb=12288, order=order)
        snap = parse_meminfo(doc)
        assert snap == reference

    # THP parse/render round-trips, including the two canonical documents.
    assert parse_thp("[always] madvise never") == ThpMode.Always
    assert parse_thp("always madvise [never]") == ThpMode.Never
    for mode in ThpMode:
        assert parse_thp(thp_state_text(mode)) == mode
        assert render_thp(mode) == mode.value


def test_criterion_08_launch_plan_conformance():
    assert plan_launch(HugePageMode.Transparent).wrapper_argv == \
        ("hugectl", "--shm", "--thp")
    preload = plan_launch(HugePageMode.PreloadHugetlbfs).env
    assert preload["LD_PRELOAD"] == "libhugetlbfs.so"
    assert preload["HUGETLB_MORECORE"] == "yes"
    assert plan_launch(HugePageMode.FujitsuHugetlbfs).env == \
        {"XOS_MMM_L_HPAGE_TYPE": "hugetlbfs"}
    assert plan_launch(HugePageMode.FujitsuThp).env == \
        {"XOS_MMM_L_HPAGE_TYPE": "thp"}
    assert plan_launch(HugePageMode.FujitsuNone).env == \
        {"XOS_MMM_L_HPAGE_TYPE": "none"}


def test_criterion_09_end_to_end_determinism():
    increments = {
        "baseline": {EventId.CpuCycles: 1_800_000,
                     EventId.CacheMisses: 10_000,
                     EventId.DtlbLoadMisses: 21_300,
                     EventId.SveInstRetired: 900_000,
                     EventId.StalledCyclesBackend: 700_000,
                     EventId.StalledCyclesFrontend: 90_000},
        "treatment": {EventId.CpuCycles: 1_700_000,
                      EventId.CacheMisses: 9_900,
                      EventId.DtlbLoadMisses: 1_000,
                      EventId.SveInstRetired: 900_000,
                      EventId.StalledCyclesBackend: 650_000,
                      EventId.StalledCyclesFrontend: 91_000},
    }
    config = ExperimentConfig(
        workload=WorkloadSpec(kind="block-sweep",
                              layout=UnkLayout.simple(2, 8, 8, 8, 10)),
        backend="simulated", simulated_increments=increments,
        label="determinism")
    blobs = []
    for _ in range(3):
        fs = FixtureFs({MEMINFO_PATH: [
            meminfo_text(), meminfo_text(),
            meminfo_text(), meminfo_text(anon_kb=2048 * 1024)]})
        blobs.append(report_to_json(run_experiment(config, fs=fs)).encode())
    assert blobs[0] == blobs[1] == blobs[2]
    data = json.loads(blobs[0])
    assert data["runs"]["treatment"]["verdict"]["state"] == "active"


SMOKE_BYTES = 2 * 1024 ** 3


def _meminfo_field_kb(name: str) -> int:
    text = Path("/proc/meminfo").read_text()
    match = re.search(rf"^{name}:\s+(\d+) kB", text, re.MULTILINE)
    if not match:
        raise KeyError(name)
    return int(match.group(1))


def test_criterion_10_real_memory_smoke():
    fs = RealFs()
    try:
        thp = parse_thp(fs.read_text(THP_ENABLED_PATH))
    except (OSError, ValueError):
        pytest.skip("transparent huge pages unavailable on this host")
    if thp is ThpMode.Never:
        pytest.skip("transparent huge pages disabled on this host")
    if thp is ThpMode.Madvise:
        pytest.skip("THP in madvise mode: numpy, not the run, chooses the array's "
                    "page policy until run_kernel sets it (ROADMAP item 1)")
    try:
        monitor = MeminfoMonitor(fs)
        before = monitor.poll_once()
    except (OSError, ValueError):
        pytest.skip("/proc/meminfo lacks huge-page fields on this host")
    try:
        if _meminfo_field_kb("MemAvailable") * 1024 < SMOKE_BYTES * 1.5:
            pytest.skip("not enough free memory for a 2 GiB touch")
    except (OSError, KeyError):
        pytest.skip("cannot determine available memory")

    n = 16384  # n*n doubles = 2 GiB, demand-faulted in traversal order
    layout = UnkLayout.simple(1, n, n, 1, 1)
    assert layout.total_bytes >= SMOKE_BYTES
    # Sampled once the whole array is written and before it is released.
    during = []
    checksum = run_kernel(layout, TraversalPattern.RepeatedSum2D, 1, 1.0,
                          alloc="demand",
                          touched=lambda: during.append(monitor.poll_once()))
    assert checksum == 2.0 * n * n
    assert len(during) == 1
    verdict = detect_usage(before, during)
    assert verdict.state == "active", verdict
    assert any(field == "anon_huge_kb" for field, _ in verdict.evidence), verdict

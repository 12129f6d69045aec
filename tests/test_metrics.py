import math

import pytest
from hypothesis import given, strategies as st

from pagescope.counterhub import EventId
from pagescope.metrics import (
    LABEL_BANDWIDTH,
    LABEL_CYCLES,
    LABEL_DTLB,
    LABEL_SECONDS,
    LABEL_SVE,
    LABEL_TIMER,
    CpuSpec,
    DerivedMetrics,
    derive,
    format_cell,
    metrics_cells,
    ratios,
    sig3,
)

from conftest import REF_FREQ_HZ, REFERENCE_CASES, reference_metrics


def _totals(**totals):
    return {ev: totals[ev.name] for ev in EventId if ev.name in totals}


def test_seconds_from_cycles_eos_scale():
    m = derive(_totals(CpuCycles=int(1.25e11)), CpuSpec())
    assert m.seconds == pytest.approx(69.7, rel=0.01)


def test_seconds_from_cycles_hydro_scale():
    m = derive(_totals(CpuCycles=int(1.21e12)), CpuSpec())
    assert m.seconds == pytest.approx(670.0, rel=0.01)


def test_zero_sve_gives_zero_rate():
    m = derive(_totals(CpuCycles=10 ** 9, SveInstRetired=0), CpuSpec())
    assert m.sve_per_cycle == 0


def test_dtlb_total_rederives_to_rate():
    # Independent back-computation: rate * seconds, then derive must invert it.
    seconds = 1.25e11 / REF_FREQ_HZ
    total = round(2.34e7 * seconds)
    m = derive(_totals(CpuCycles=int(1.25e11), DtlbLoadMisses=total), CpuSpec())
    assert m.dtlb_misses_per_s == pytest.approx(2.34e7, rel=0.01)


def test_missing_optional_events_marked_unavailable():
    m = derive(_totals(CpuCycles=10 ** 9), CpuSpec())
    assert m.sve_per_cycle is None
    assert m.bandwidth_bytes_per_s is None
    assert m.dtlb_misses_per_s is None


def test_missing_cycles_rejected():
    with pytest.raises(ValueError):
        derive(_totals(SveInstRetired=5), CpuSpec())


def test_zero_cycles_rejected():
    with pytest.raises(ValueError, match="^counter totals record zero cycles$"):
        derive(_totals(CpuCycles=0), CpuSpec())


@pytest.mark.parametrize("cpu, totals, measure", [
    (CpuSpec(freq_hz=1e-320), _totals(CpuCycles=10 ** 9), "seconds"),
    (CpuSpec(freq_hz=1e308), _totals(CpuCycles=10, CacheMisses=10 ** 9),
     "bandwidth_bytes_per_s"),
    (CpuSpec(line_bytes=2 ** 1100), _totals(CpuCycles=10 ** 9, CacheMisses=1),
     "bandwidth_bytes_per_s"),
    (CpuSpec(), _totals(CpuCycles=10 ** 400), "seconds"),
    (CpuSpec(), _totals(CpuCycles=1, SveInstRetired=10 ** 400), "sve_per_cycle"),
    (CpuSpec(freq_hz=1e308), _totals(CpuCycles=1, DtlbLoadMisses=10 ** 9),
     "dtlb_misses_per_s"),
], ids=["freq-subnormal", "freq-huge", "line-bytes-huge", "cycles-huge",
        "sve-huge", "dtlb-rate-huge"])
def test_measure_beyond_a_float_is_rejected_by_name(cpu, totals, measure):
    with pytest.raises(ValueError, match=f"^derived {measure} "):
        derive(totals, cpu)


def test_cpuspec_validation():
    with pytest.raises(ValueError):
        CpuSpec(freq_hz=0)
    with pytest.raises(ValueError):
        CpuSpec(line_bytes=96)  # not a power of two
    assert CpuSpec().freq_hz == 1.8e9
    assert CpuSpec().line_bytes == 256


def test_cpuspec_integer_frequency_becomes_a_float():
    # A report writes freq_hz as given: 2000000000 would read differently.
    spec = CpuSpec(freq_hz=2_000_000_000)
    assert type(spec.freq_hz) is float and spec.freq_hz == 2e9


def _rows_by_label(rows):
    return {row.measure: row for row in rows}


def test_dtlb_ratio_eos():
    rows = _rows_by_label(ratios(reference_metrics(REFERENCE_CASES["EOS"], "with"),
                                 reference_metrics(REFERENCE_CASES["EOS"], "without")))
    assert rows[LABEL_DTLB].ratio == pytest.approx(0.047, abs=0.001)


def test_dtlb_ratio_hydro():
    case = REFERENCE_CASES["3-d Hydro"]
    rows = _rows_by_label(ratios(reference_metrics(case, "with"),
                                 reference_metrics(case, "without")))
    assert rows[LABEL_DTLB].ratio == pytest.approx(0.324, abs=0.001)


def test_timer_ratio():
    case = REFERENCE_CASES["EOS"]
    m = reference_metrics(case, "without")
    rows = _rows_by_label(ratios(m, m, timers=(333.150, 339.032)))
    assert rows[LABEL_TIMER].ratio == pytest.approx(0.9827, abs=1e-4)


def test_identity_ratios_are_one():
    m = reference_metrics(REFERENCE_CASES["EOS"], "without")
    rows = ratios(m, m, timers=(42.0, 42.0))
    assert len(rows) == 6
    assert all(row.ratio == 1.0 for row in rows)


def test_unavailable_measure_propagates_as_marked_row():
    full = reference_metrics(REFERENCE_CASES["EOS"], "without")
    partial = DerivedMetrics(full.hw_cycles, full.seconds, full.sve_per_cycle,
                             None, full.dtlb_misses_per_s)
    rows = _rows_by_label(ratios(partial, full))
    assert rows[LABEL_BANDWIDTH].ratio is None
    assert rows[LABEL_BANDWIDTH].with_hp is None


def test_zero_denominator_is_marked_not_nan():
    zeroed = DerivedMetrics(1.0, 1.0, 0.0, 0.0, 0.0)
    rows = ratios(zeroed, zeroed)
    for row in rows:
        assert row.ratio is None or not math.isnan(row.ratio)
    assert _rows_by_label(rows)[LABEL_SVE].ratio is None


def test_ratio_beyond_a_float_is_marked_not_infinite():
    big = DerivedMetrics(1.0, 1.0, 1.0, 2e9, 1e299)
    small = DerivedMetrics(1.0, 1.0, 1.0, 1e9, 1e-291)
    rows = _rows_by_label(ratios(big, small))
    assert rows[LABEL_DTLB].ratio is None
    assert rows[LABEL_BANDWIDTH].ratio == 2.0


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_scale_covariance(k, base):
    # Scaling every counter by k multiplies seconds by k and leaves the
    # per-cycle and per-second measures untouched.
    cpu = CpuSpec()
    totals = dict(CpuCycles=base * 100, SveInstRetired=base * 31,
                  CacheMisses=base * 7, DtlbLoadMisses=base * 13)
    m1 = derive(_totals(**totals), cpu)
    m2 = derive(_totals(**{name: v * k for name, v in totals.items()}), cpu)
    assert m2.seconds == pytest.approx(m1.seconds * k, rel=1e-12)
    assert m2.sve_per_cycle == pytest.approx(m1.sve_per_cycle, rel=1e-12)
    assert m2.bandwidth_bytes_per_s == pytest.approx(m1.bandwidth_bytes_per_s,
                                                     rel=1e-12)
    assert m2.dtlb_misses_per_s == pytest.approx(m1.dtlb_misses_per_s, rel=1e-12)


@pytest.mark.parametrize("value,expected", [
    (1.2546e11, "1.25e+11"),
    (69.7, "69.7"),
    (0.47, "0.470"),
    (4.19, "4.19"),
    (2.34e7, "2.34e+07"),
    (670.0, "670"),
    (1.2042e12, "1.20e+12"),
    (10.10, "10.1"),
    (0.0999, "9.99e-02"),
    (999.6, "1.00e+03"),
    (0.0, "0.00"),
])
def test_sig3(value, expected):
    assert sig3(value) == expected


def test_format_cell():
    assert format_cell(LABEL_CYCLES, None) == "n/a"
    assert format_cell(LABEL_TIMER, 333.150) == "333.150"
    assert format_cell(LABEL_SECONDS, 69.7) == "69.7"
    # The timer keeps its 14-character column: ms precision while the text
    # fits in 13 characters, then three significant figures.
    assert format_cell(LABEL_TIMER, 999999999.999) == "999999999.999"
    assert format_cell(LABEL_TIMER, 1e9) == "1.00e+09"
    assert format_cell(LABEL_TIMER, 1e308) == "1.00e+308"


def test_metrics_cells_units():
    m = reference_metrics(REFERENCE_CASES["EOS"], "without")
    cells = metrics_cells(m)
    assert cells[LABEL_BANDWIDTH] == pytest.approx(4.19, abs=1e-6)
    assert cells[LABEL_CYCLES] == m.hw_cycles


@pytest.mark.parametrize("case_name", sorted(REFERENCE_CASES))
@pytest.mark.parametrize("side_name", ["without", "with"])
def test_reference_totals_rederive_every_measure(case_name, side_name):
    # Cross-check: derived measures reproduce the three-figure fixture
    # values within rounding, for every column of both reference cases.
    case = REFERENCE_CASES[case_name]
    side = case[side_name]
    m = reference_metrics(case, side_name)
    assert m.seconds == pytest.approx(side["seconds"], rel=0.01)
    assert m.sve_per_cycle == pytest.approx(side["sve"], rel=0.01)
    assert m.bandwidth_bytes_per_s / 1e9 == pytest.approx(side["mem_gbps"],
                                                          rel=0.01)
    assert m.dtlb_misses_per_s == pytest.approx(side["dtlb"], rel=0.01)

"""Derived performance measures and A/B ratio rows.

Region counter totals reduce to four rates: wall seconds from the cycle
count at a nominal clock, SVE instructions per cycle, main-memory bandwidth
from cache-miss line fills, and DTLB misses per second. A pair of derived
metric sets (with/without huge pages) reduces to one ratio row per measure.

Measures that cannot be computed (missing optional event, zero denominator)
carry an explicit None marker; they render as "n/a" and are never emitted
as NaN or infinities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .counterhub import EventId


@dataclass(frozen=True)
class CpuSpec:
    freq_hz: float = 1.8e9
    # Bytes transferred per counted line fill: one cache line on A64FX-class
    # cores. No counter reports it, so every report records the value used.
    line_bytes: int = 256

    def __post_init__(self):
        freq, line = self.freq_hz, self.line_bytes
        if type(freq) not in (int, float) or not 0 < freq <= sys.float_info.max:
            raise ValueError(f"freq_hz {freq!r} must be a finite number > 0")
        if type(line) is not int or line <= 0 or line & (line - 1):
            raise ValueError(f"line_bytes {line!r} is not a power of two")
        object.__setattr__(self, "freq_hz", float(freq))


@dataclass(frozen=True)
class DerivedMetrics:
    hw_cycles: float
    seconds: float
    sve_per_cycle: float | None
    bandwidth_bytes_per_s: float | None
    dtlb_misses_per_s: float | None


def derive(totals: dict[EventId, int], cpu: CpuSpec) -> DerivedMetrics:
    """Reduce one region's counter totals to the derived measures.

    seconds = cycles/freq exactly; rates divide by that. Optional events
    missing from the totals yield None for their dependent measures. A
    measure that is not a finite float raises ValueError naming it.
    """
    if EventId.CpuCycles not in totals:
        raise ValueError(f"counter totals have no {EventId.CpuCycles.value} count")
    cycles = totals[EventId.CpuCycles]
    if cycles == 0:
        raise ValueError("counter totals record zero cycles")

    def measure(name: str, count: int | None, per: float, scale: int = 1):
        """count * scale / per, or None without a count."""
        if count is None:
            return None
        try:
            value = count * scale / per
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"derived {name} is beyond a float's range; "
                             "check the cpu's freq_hz and line_bytes")
        return value

    sve = totals.get(EventId.SveInstRetired)
    misses = totals.get(EventId.CacheMisses)
    dtlb = totals.get(EventId.DtlbLoadMisses)
    seconds = measure("seconds", cycles, cpu.freq_hz)
    return DerivedMetrics(
        hw_cycles=measure("hw_cycles", cycles, 1),
        seconds=seconds,
        sve_per_cycle=measure("sve_per_cycle", sve, cycles),
        bandwidth_bytes_per_s=measure("bandwidth_bytes_per_s", misses, seconds,
                                      cpu.line_bytes),
        dtlb_misses_per_s=measure("dtlb_misses_per_s", dtlb, seconds),
    )


# Table row labels, in row order. Values are stored in display units
# (bandwidth as Gbytes/s); only string rounding happens at render time.
LABEL_CYCLES = "Hardware (cycles)"
LABEL_SECONDS = "Time (s)"
LABEL_SVE = "SVE Instructions/cycle"
LABEL_BANDWIDTH = "Memory (Gbytes/s)"
LABEL_DTLB = "DTLB misses (1/s)"
LABEL_TIMER = "Elapsed Timer (s)"

MEASURE_LABELS = [LABEL_CYCLES, LABEL_SECONDS, LABEL_SVE, LABEL_BANDWIDTH,
                  LABEL_DTLB, LABEL_TIMER]


@dataclass(frozen=True)
class RatioRow:
    measure: str
    with_hp: float | None
    without_hp: float | None
    ratio: float | None  # None marks an unavailable or undefined ratio


def _row(label: str, with_v: float | None, without_v: float | None) -> RatioRow:
    if with_v is None or without_v is None or without_v <= 0:
        return RatioRow(label, with_v, without_v, None)
    ratio = with_v / without_v  # infinite when beyond a float's range
    return RatioRow(label, with_v, without_v,
                    ratio if math.isfinite(ratio) else None)


def metrics_cells(m: DerivedMetrics,
                  elapsed_s: float | None = None) -> dict[str, float | None]:
    """One column's cells, keyed by row label, in display units; given the
    whole run's elapsed seconds, the Elapsed Timer cell too. It stays
    distinct from the region-scoped Time (s) cell: the instrumented region
    usually covers only part of the run."""
    cells = {
        LABEL_CYCLES: m.hw_cycles,
        LABEL_SECONDS: m.seconds,
        LABEL_SVE: m.sve_per_cycle,
        LABEL_BANDWIDTH: (None if m.bandwidth_bytes_per_s is None
                          else m.bandwidth_bytes_per_s / 1e9),
        LABEL_DTLB: m.dtlb_misses_per_s,
    }
    if elapsed_s is not None:
        cells[LABEL_TIMER] = elapsed_s
    return cells


def ratios(with_hp: DerivedMetrics, without_hp: DerivedMetrics,
           timers: tuple[float, float] | None = None) -> list[RatioRow]:
    """One RatioRow per cell of the with/without huge-pages columns;
    timers is the (with, without) pair of whole-run elapsed seconds."""
    with_t, without_t = timers or (None, None)
    with_cells = metrics_cells(with_hp, with_t)
    without_cells = metrics_cells(without_hp, without_t)
    return [_row(label, with_cells[label], without_cells[label])
            for label in with_cells]


def sig3(x: float) -> str:
    """Exactly three significant digits; scientific outside [0.1, 1000)."""
    if x == 0:
        return "0.00"
    exp = math.floor(math.log10(abs(x)))
    if abs(round(x / 10.0 ** exp, 2)) >= 10:
        exp += 1
    if -1 <= exp <= 2:
        return f"{x:.{2 - exp}f}"
    return f"{x / 10.0 ** exp:.2f}e{exp:+03d}"


def format_cell(label: str, value: float | None) -> str:
    """Render one table cell: n/a marker, timer at ms precision while it
    fits its 14-character column with a space to spare, else three
    significant figures."""
    if value is None:
        return "n/a"
    if label == LABEL_TIMER and len(text := f"{value:.3f}") <= 13:
        return text
    return sig3(value)

"""The benchmark's workloads: pagescope command sequences and their exact outputs.

Each workload is a fixed, deterministic command sequence run through
`pagescope.cli.main`. Its inputs do not depend on the benchmark seed. After
every iteration the outputs are checked exactly; any mismatch counts as a
failed iteration.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

PAGE_4K, PAGE_2M, PAGE_512M = 4096, 2 * 1024 ** 2, 512 * 1024 ** 2
SIZES = (PAGE_4K, PAGE_2M, PAGE_512M)
SIZE_LABELS = {PAGE_4K: "4K", PAGE_2M: "2M", PAGE_512M: "512M"}
TLB_ENTRIES = 48  # tlbsim's default geometry
BLOCK_WAYS = 4


class CheckFailed(AssertionError):
    pass


def block_sweep_misses(stride_bytes: int, blocks: int, passes: int,
                       page_bytes: int, sets: int, ways: int) -> tuple[int, int]:
    """(misses, distinct pages) of an LRU TLB replaying a block sweep.

    A pass visits pages in ascending order, each page as one run of
    consecutive accesses, so only the first access of a run can miss. Each
    set sees the same k pages in the same cyclic order every pass: if
    k <= ways they stay resident after the first pass, otherwise LRU evicts
    each page before its next visit and every run misses on every pass.
    """
    pages = sorted({b * stride_bytes // page_bytes for b in range(blocks)})
    per_set = Counter(p % sets for p in pages)
    misses = sum(k if k <= ways else k * passes for k in per_set.values())
    return misses, len(pages)


# (size, accesses, misses, distinct pages) rows tlbsim must print.
ZONE_ACCESSES = 5 * 16 ** 3 * 100
ZONE_ROWS = ((PAGE_4K, ZONE_ACCESSES, 4000, 4000),
             (PAGE_2M, ZONE_ACCESSES, 8, 8),
             (PAGE_512M, ZONE_ACCESSES, 1, 1))

BLOCK_STRIDE = 5 * 16 ** 3 * 8
BLOCK_COUNT, BLOCK_PASSES = 1000, 2000
BLOCK_ACCESSES = BLOCK_COUNT * BLOCK_PASSES
BLOCK_ROWS = tuple(
    (size, BLOCK_ACCESSES) + block_sweep_misses(
        BLOCK_STRIDE, BLOCK_COUNT, BLOCK_PASSES, size,
        TLB_ENTRIES // BLOCK_WAYS, BLOCK_WAYS)
    for size in SIZES)

SUM2D_N, SUM2D_PASSES = 2048, 4
# One sum2d pass reads the plane twice (column order, then row order).
SUM2D_ACCESSES_PER_ROLE = 2 * SUM2D_N ** 2 * SUM2D_PASSES
SUM2D_CHECKSUM = float(SUM2D_ACCESSES_PER_ROLE)  # fill value 1.0


def check_sweep_csv(stdout: str, rows: tuple) -> None:
    """tlbsim's CSV must hold exactly `rows`, with ratios against the first."""
    start = stdout.find("size_bytes,")
    if start < 0:
        raise CheckFailed("no tlbsim CSV in the output")
    got = list(csv.DictReader(io.StringIO(stdout[start:])))
    if len(got) != len(rows):
        raise CheckFailed(f"want {len(rows)} CSV rows, got {len(got)}")
    base = rows[0][2]
    for row, (size, accesses, misses, pages) in zip(got, rows):
        want = (size, accesses, misses, pages)
        have = tuple(int(row[k]) for k in
                     ("size_bytes", "accesses", "misses", "distinct_pages"))
        if have != want:
            raise CheckFailed(f"CSV row {have} != expected {want}")
        if not math.isclose(float(row["ratio"]), misses / base, rel_tol=1e-5):
            raise CheckFailed(f"ratio {row['ratio']} != {misses}/{base}")


def check_sum2d(work: Path, _stdout: str) -> None:
    """Both roles sum every traversed element; every simulated ratio is 1."""
    reports = sorted((work / "sum2d").glob("report-*.json"))
    if len(reports) != 1:
        raise CheckFailed(f"want one report, found {len(reports)}")
    doc = json.loads(reports[0].read_text())
    for role in ("baseline", "treatment"):
        checksum = doc["runs"][role]["checksum"]
        if checksum != SUM2D_CHECKSUM:
            raise CheckFailed(f"{role} checksum {checksum} != {SUM2D_CHECKSUM}")
    rows = [r for region in doc["ratios"].values() for r in region]
    if not rows or any(r["ratio"] != 1.0 for r in rows):
        raise CheckFailed(f"simulated ratios not all 1.0: {rows}")
    chart = work / "chart.svg"
    if "</svg>" not in chart.read_text():
        raise CheckFailed("chart is not a complete SVG document")
    cells = list(csv.DictReader(io.StringIO(
        Path(str(chart) + ".csv").read_text())))
    if len(cells) != len(rows) or any(float(c["ratio"]) != 1.0 for c in cells):
        raise CheckFailed(f"chart CSV ratios not all 1: {cells}")


def zone_steps(work: Path) -> Iterator[list[str]]:
    trace = str(work / "zone.trace")
    yield ["trace", "--layout", "5,16,16,16,100", "--pattern", "zone",
           "--out", trace]
    yield ["tlbsim", "--trace", trace, "--sizes", "4K,2M,512M"]


def block_steps(work: Path) -> Iterator[list[str]]:
    trace = str(work / "block.trace")
    yield ["trace", "--layout", f"5,16,16,16,{BLOCK_COUNT}", "--pattern",
           "block", "--passes", str(BLOCK_PASSES), "--out", trace]
    yield ["tlbsim", "--trace", trace, "--sizes", "4K,2M,512M",
           "--assoc", str(BLOCK_WAYS)]


def sum2d_steps(work: Path) -> Iterator[list[str]]:
    out = work / "sum2d"
    yield ["run", "--simulate-counters", "--workload", "sum2d",
           "--n", str(SUM2D_N), "--passes", str(SUM2D_PASSES),
           "--alloc", "demand", "--out", str(out)]
    # The report's file name carries the config hash; read it back.
    reports = sorted(out.glob("report-*.json"))
    yield ["render", "--report", str(reports[-1]) if reports else str(out),
           "--format", "svg", "--out", str(work / "chart.svg")]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[Path], Iterator[list[str]]]
    check: Callable[[Path, str], None]
    # Accesses processed per iteration: trace accesses times page sizes
    # replayed, or accesses traversed summed over both roles.
    accesses: int
    # Whether its times are rescaled by the interpreted calibration kernel
    # (calibrate.py): true where the time goes to interpreted Python, which
    # the kernel tracks; false where it goes to numpy, which it does not.
    calibrated: bool


WORKLOADS = {w.name: w for w in (
    Workload("zone-replay", zone_steps,
             lambda _work, out: check_sweep_csv(out, ZONE_ROWS),
             ZONE_ACCESSES * len(SIZES), calibrated=True),
    Workload("block-replay", block_steps,
             lambda _work, out: check_sweep_csv(out, BLOCK_ROWS),
             BLOCK_ACCESSES * len(SIZES), calibrated=True),
    Workload("sum2d-run", sum2d_steps, check_sum2d,
             2 * SUM2D_ACCESSES_PER_ROLE, calibrated=False),
)}

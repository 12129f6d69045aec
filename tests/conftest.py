"""Shared fixtures: reference A/B measurement values and document builders.

The reference cases are two instrumented runs of a block-mesh simulation
on an A64FX machine (an equation-of-state-heavy region and a 3-d
hydrodynamics run), each measured with and without huge pages. Raw counter
totals are back-computed from the three-significant-figure reference
measures so that deriving them again reproduces those values exactly.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import asdict

import pytest

from pagescope import counterhub
from pagescope.counterhub import EventId
from pagescope.hugepagectl import HugePageMode, UsageVerdict
from pagescope.metrics import CpuSpec, derive, ratios
from pagescope.report import run_dict

REF_FREQ_HZ = 1.8e9
REF_LINE_BYTES = 256

# measure values per case and side: region seconds, SVE per cycle,
# bandwidth in Gbytes/s, DTLB misses/s, and the whole-run elapsed timer.
REFERENCE_CASES = {
    "EOS": {
        "region": "EOS",
        "without": dict(seconds=69.7, sve=0.47, mem_gbps=4.19,
                        dtlb=2.34e7, timer=339.032),
        "with": dict(seconds=65.2, sve=0.51, mem_gbps=4.45,
                     dtlb=1.10e6, timer=333.150),
        "dtlb_ratio": 0.047,
        "cells_without": ["1.25e+11", "69.7", "0.470", "4.19",
                          "2.34e+07", "339.032"],
        "cells_with": ["1.17e+11", "65.2", "0.510", "4.45",
                       "1.10e+06", "333.150"],
    },
    "3-d Hydro": {
        "region": "hydro",
        "without": dict(seconds=670.0, sve=0.11, mem_gbps=10.10,
                        dtlb=2.42e6, timer=1203.616),
        "with": dict(seconds=669.0, sve=0.11, mem_gbps=10.09,
                     dtlb=7.83e5, timer=1176.312),
        "dtlb_ratio": 0.324,
        "cells_without": ["1.21e+12", "670", "0.110", "10.1",
                          "2.42e+06", "1203.616"],
        "cells_with": ["1.20e+12", "669", "0.110", "10.1",
                       "7.83e+05", "1176.312"],
    },
}


def raw_totals(side: dict, freq_hz: float = REF_FREQ_HZ,
               line_bytes: int = REF_LINE_BYTES) -> dict[EventId, int]:
    """Integer counter totals whose derived measures match `side`."""
    cycles = round(side["seconds"] * freq_hz)
    return {
        EventId.CpuCycles: cycles,
        EventId.SveInstRetired: round(side["sve"] * cycles),
        EventId.CacheMisses: round(side["mem_gbps"] * 1e9 * side["seconds"]
                                   / line_bytes),
        EventId.DtlbLoadMisses: round(side["dtlb"] * side["seconds"]),
        EventId.StalledCyclesBackend: round(0.65 * cycles),
        EventId.StalledCyclesFrontend: round(0.06 * cycles),
    }


def reference_metrics(case: dict, side_name: str):
    return derive(raw_totals(case[side_name]), CpuSpec(REF_FREQ_HZ, REF_LINE_BYTES))


def reference_ratio_rows(case: dict):
    return ratios(reference_metrics(case, "with"),
                  reference_metrics(case, "without"),
                  timers=(case["with"]["timer"], case["without"]["timer"]))


def reference_report(label: str) -> dict:
    case = REFERENCE_CASES[label]
    region = case["region"]
    runs = {}
    for role, side_name, mode, verdict in (
            ("baseline", "without", HugePageMode.Off, UsageVerdict("inactive")),
            ("treatment", "with", HugePageMode.FujitsuHugetlbfs,
             UsageVerdict("active", (("hugetlb_kb", 12288),)))):
        side = case[side_name]
        totals = raw_totals(side)
        runs[role] = run_dict(mode, region, [totals],
                              derive(totals, CpuSpec(REF_FREQ_HZ, REF_LINE_BYTES)),
                              verdict, elapsed_s=side["timer"])
    return {
        "label": label,
        "config": {"reference_fixture": label},
        "provenance": {"config_hash": f"fixture-{case['region']}",
                       "host": "fixture", "backend": "fixture", "created_at": None},
        "runs": runs,
        "ratios": {region: [asdict(row) for row in reference_ratio_rows(case)]},
        "warnings": [],
    }


MEMINFO_UNTRACKED_PREFIX = """\
MemTotal:       32718908 kB
MemFree:        29367200 kB
MemAvailable:   29913848 kB
Buffers:            2332 kB
Cached:          1671548 kB
CommitLimit:    16359452 kB
VmallocTotal:   133009506240 kB
"""


def meminfo_text(anon_kb=0, shmem_kb=0, total=0, free=0, rsvd=0, surp=0,
                 pagesize_kb=2048, hugetlb_kb=0, tracked_only=False,
                 order=None) -> str:
    lines = {
        "AnonHugePages": f"AnonHugePages:  {anon_kb:8d} kB",
        "ShmemHugePages": f"ShmemHugePages: {shmem_kb:8d} kB",
        "HugePages_Total": f"HugePages_Total:    {total:4d}",
        "HugePages_Free": f"HugePages_Free:     {free:4d}",
        "HugePages_Rsvd": f"HugePages_Rsvd:     {rsvd:4d}",
        "HugePages_Surp": f"HugePages_Surp:     {surp:4d}",
        "Hugepagesize": f"Hugepagesize:   {pagesize_kb:8d} kB",
        "Hugetlb": f"Hugetlb:        {hugetlb_kb:8d} kB",
    }
    keys = order if order is not None else list(lines)
    body = "\n".join(lines[k] for k in keys) + "\n"
    if tracked_only:
        return body
    return MEMINFO_UNTRACKED_PREFIX + body


class PipeCounters:
    """Stands in for `counterhub._perf_event_open`. Each counter it opens
    is the read end of a pipe holding the counts its reads return. An
    event whose config `fail` maps to an errno opens `opens_before_failing`
    times, then raises OSError with that errno."""

    def __init__(self, counts=(100, 200), fail=None, opens_before_failing=0):
        self.counts, self.fail = counts, fail or {}
        self.opens_before_failing = opens_before_failing
        self.opened = []  # the write end of each counter that opened
        self.calls = 0
        self._tries = Counter()

    def __call__(self, attr):
        self.calls += 1
        self._tries[attr.config] += 1
        if (attr.config in self.fail
                and self._tries[attr.config] > self.opens_before_failing):
            err = self.fail[attr.config]
            raise OSError(err, os.strerror(err))
        read_end, write_end = os.pipe()
        os.write(write_end, b"".join(c.to_bytes(8, "little") for c in self.counts))
        self.opened.append(write_end)
        return read_end

    def all_closed(self) -> bool:
        """Whether every counter that opened has been closed: a write to a
        pipe without a reader fails."""
        for write_end in self.opened:
            try:
                os.write(write_end, b"x")
            except BrokenPipeError:
                continue
            return False
        return True


@pytest.fixture
def pipe_counters(monkeypatch):
    """Installs a PipeCounters made from the given arguments; closes each
    pipe's write end afterwards."""
    made = []

    def install(**kwargs):
        made.append(PipeCounters(**kwargs))
        monkeypatch.setattr(counterhub, "_perf_event_open", made[-1])
        return made[-1]

    yield install
    for counters in made:
        for write_end in counters.opened:
            os.close(write_end)


@pytest.fixture
def eos_case():
    return REFERENCE_CASES["EOS"]


@pytest.fixture
def hydro_case():
    return REFERENCE_CASES["3-d Hydro"]


# ---------------------------------------------------------------------------
# Acceptance summary: one line per criterion at the end of the run
# ---------------------------------------------------------------------------

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::", 1)[1]
            tag = name.replace("test_criterion_", "criterion ")
            label = outcome.upper() if outcome != "error" else "FAILED"
            lines[tag] = label
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for tag in sorted(lines):
        terminalreporter.write_line(f"{tag}: {lines[tag]}")

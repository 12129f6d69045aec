"""Tests of the benchmark's own arithmetic and expected outputs.

Run with: PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import calibrate
import layers
from spans import Span, SpanRecorder, Target, self_times
from workloads import (BLOCK_ROWS, BLOCK_STRIDE, PAGE_2M, PAGE_4K, WORKLOADS,
                       ZONE_ROWS, block_sweep_misses)

from pagescope import blockmesh, tlbsim

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 3.0, 1, 1),
        Span(3, "b", 2.0, 5.0, 1, 1),     # overlaps a: union 1..5 counts 4 s
        Span(4, "c", 9.0, 12.0, 1, 1),    # runs past the parent: 1 s counts
        Span(5, "leaf", 3.0, 4.0, 3, 1),
        Span(6, "other-thread", 0.0, 10.0, None, 2),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 2.0, 4: 3.0, 5: 1.0, 6: 10.0}


def test_self_times_of_a_tree_sum_to_its_root_duration():
    spans = [Span(1, "root", 0.0, 8.0, None, 1), Span(2, "x", 1.0, 4.0, 1, 1),
             Span(3, "y", 2.0, 3.0, 2, 1), Span(4, "z", 5.0, 7.5, 1, 1)]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


class _Box:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_recorder_links_parents_per_thread_and_restores_originals():
    recorder = SpanRecorder()
    original = _Box.inner
    targets = [Target(_Box, "outer", "outer"),
               Target(_Box, "inner", "inner",
                      describe=lambda a, k, r: {"result": r})]
    with recorder.installed(targets):
        assert _Box().outer(3) == 7
        worker = threading.Thread(target=_Box().inner, args=(5,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert _Box.inner is original
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    outer, = by_name["outer"]
    nested, threaded = sorted(by_name["inner"], key=lambda s: s.start)
    assert outer.parent is None and nested.parent == outer.id
    assert threaded.parent is None and threaded.thread != outer.thread
    assert nested.attrs == {"result": 6} and threaded.attrs == {"result": 10}


def test_block_closed_form_matches_full_replay():
    layout = blockmesh.UnkLayout.simple(5, 16, 16, 16, 60)
    trace = blockmesh.gen_trace(layout, blockmesh.TraversalPattern.BlockSweep,
                                passes=5)
    for entries, ways in ((48, 4), (48, 48), (8, 2), (4, 1)):
        for page in (PAGE_4K, 64 * 1024, PAGE_2M):
            config = tlbsim.TlbConfig(entries=entries, associativity=ways,
                                      page_size_bytes=page)
            stats = tlbsim.simulate(config, trace)
            assert (stats.misses, stats.distinct_pages) == block_sweep_misses(
                BLOCK_STRIDE, 60, 5, page, entries // ways, ways)


def test_block_replay_expectations_are_the_closed_form():
    assert [row[2:] for row in BLOCK_ROWS] == [(2000000, 1000), (158000, 79), (1, 1)]


def test_zone_replay_4k_row_matches_stack_distance_oracle():
    layout = blockmesh.UnkLayout.simple(5, 16, 16, 16, 100)
    trace = blockmesh.gen_trace(layout, blockmesh.TraversalPattern.ZoneSweep)
    size, accesses, misses, pages = ZONE_ROWS[0]
    oracle = tlbsim.stack_distance_oracle(tlbsim.DEFAULT_ENTRIES, trace, size)
    assert (oracle.accesses, oracle.misses, oracle.distinct_pages) == (
        accesses, misses, pages)


def test_calibration_rescales_by_the_bracketing_kernel_times():
    ref = calibrate.REFERENCE_S
    assert calibrate.calibrated(3.0, ref, ref) == pytest.approx(3.0)
    # A host twice as slow as the reference around the span halves it.
    assert calibrate.calibrated(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)
    assert calibrate.kernel_seconds() > 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zone-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

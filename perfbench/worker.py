"""One benchmark worker: runs a single workload in process, in a closed loop.

Usage: python3 perfbench/worker.py --workload NAME --t0 EPOCH_S
           [--kernel-before S] [--seconds S] [--trace 0|1] [--setup-only]
           [--spans FILE]

The worker imports pagescope from the checkout's `src/`, runs one checked
warm-up iteration, and reports the seconds from `--t0` (the launcher's
clock just before starting this process) to that point as its set-up time.
Then it runs checked iterations one at a time until `--seconds` have
passed. With `--trace 1` it alternates untraced and traced iterations, so
the two share the same host conditions. For a calibrated workload the
calibration kernel runs after the set-up and after every iteration, and
the set-up time and every untraced iteration's time are rescaled by the
kernel times around them; `--kernel-before` is the kernel's time in the
launcher just before `--t0`. It prints one JSON object as the last line of
standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import layers
from calibrate import calibrated, kernel_seconds
from spans import SpanRecorder
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent


def import_pagescope():
    """Import pagescope from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pagescope
    if Path(pagescope.__file__).resolve().parent != src / "pagescope":
        raise ImportError(f"pagescope imported from {pagescope.__file__}, "
                          f"not from {src}")
    return pagescope


def provenance(pagescope) -> dict:
    import numpy
    from pagescope import _kernels, hugepagectl

    try:
        thp = hugepagectl.parse_thp(
            hugepagectl.RealFs().read_text(hugepagectl.THP_ENABLED_PATH)).value
    except (OSError, ValueError) as exc:
        thp = f"unavailable: {exc}"
    return {
        "pagescope": pagescope.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "thp_mode": thp,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_iteration(cli, workload, work: Path) -> tuple[float, str | None]:
    """One checked pass over the workload's commands: (seconds, error)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                for argv in workload.steps(work):
                    code = cli.main(argv)
                    if code != 0:
                        raise CheckFailed(f"pagescope {argv[0]} exited {code}")
        finally:
            seconds = time.perf_counter() - start
        workload.check(work, out.getvalue())
    except CheckFailed as exc:
        error = str(exc)
    except (Exception, SystemExit):
        error = traceback.format_exc()
    if error is not None:
        print(f"{workload.name}: failed iteration: {error}", file=sys.stderr)
    return seconds, error


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--kernel-before", type=float, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write traced spans here")
    args = p.parse_args(argv)

    pagescope = import_pagescope()
    from pagescope import cli

    workload = WORKLOADS[args.workload]
    if workload.calibrated and args.kernel_before is None:
        p.error(f"{workload.name} is calibrated: --kernel-before is required")
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    result = {"walls": [], "raw_walls": [], "traced_walls": [], "kernel_s": [],
              "errors": []}
    try:
        _, error = run_iteration(cli, workload, work)
        result["setup_raw_s"] = result["setup_s"] = time.time() - args.t0
        if workload.calibrated:
            result["kernel_s"].append(kernel_seconds())
            result["setup_s"] = calibrated(result["setup_raw_s"],
                                           args.kernel_before, result["kernel_s"][0])
        result["errors"].append(error)
        if not args.setup_only:
            measure(cli, workload, work, args, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["attempted"] = len(result["errors"])
    result["failed"] = sum(e is not None for e in result["errors"])
    result["errors"] = [e for e in result["errors"] if e is not None][:5]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["provenance"] = provenance(pagescope)
    print(json.dumps(result))
    return 0


def measure(cli, workload, work: Path, args, result: dict) -> None:
    recorder = SpanRecorder()
    traced_spans = []
    end = time.perf_counter() + args.seconds
    pair = 0
    while time.perf_counter() < end:
        # Traced runs alternate which side of each pair goes first.
        order = ((False,) if not args.trace
                 else (False, True) if pair % 2 == 0 else (True, False))
        for traced in order:
            if not traced:
                seconds, error = run_iteration(cli, workload, work)
            else:
                mark = len(recorder.spans)
                with recorder.installed(layers.targets()):
                    seconds, error = run_iteration(cli, workload, work)
                traced_spans.append(recorder.spans[mark:])
            wall = seconds
            if workload.calibrated:
                kernel = result["kernel_s"]
                kernel.append(kernel_seconds())
                wall = calibrated(seconds, kernel[-2], kernel[-1])
            if traced:
                result["traced_walls"].append(seconds)
            else:
                result["walls"].append(wall)
                result["raw_walls"].append(seconds)
            result["errors"].append(error)
        pair += 1
    if args.trace:
        result["per_layer"] = layers.layer_metrics(
            traced_spans, result["raw_walls"], result["traced_walls"],
            workload.accesses)
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                [[s.to_dict() for s in spans] for spans in traced_spans]))


if __name__ == "__main__":
    sys.exit(main())

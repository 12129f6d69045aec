"""pagescope benchmark: drive one workload and print its metrics.

Usage, from the root of a pagescope checkout:

    python3 perfbench/run.py --workload zone-replay --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/workloads.py and perfbench/rationale.json):
zone-replay, block-replay, sum2d-run. Each is a fixed command sequence run
in process through `pagescope.cli.main`, in a closed loop with one client,
and every iteration's output is checked exactly. The inputs do not depend
on --seed; it is recorded in the result file.

--trace 0 prints the end-to-end metrics: wall_s (median seconds per
iteration), maccess_per_s (million accesses processed per second),
setup_s (median over several fresh workers of the seconds from process
start through imports and a warm-up iteration), peak_rss_mb (peak resident
memory of the measuring worker) and success_rate (checked iterations that
passed over iterations attempted). On the replay workloads the times are
calibrated seconds: each timed span is rescaled by a fixed interpreted
kernel timed just before and after it (perfbench/calibrate.py), so that
the shared host's drifting speed cancels out. The raw seconds are kept in
the result file.

--trace 1 prints the per-layer metrics of perfbench/layers.py from a run
that alternates untraced and traced iterations. Its spans are written to
.perfbench/spans-<workload>-seed<seed>.json.

Every run writes .perfbench/result-<workload>-seed<seed>-trace<t>.json with
the metrics, the raw samples and the provenance (versions, kernel variant,
THP mode, nproc, seed, git commit). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import kernel_seconds
from layers import PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_WORKERS = 2  # extra fresh workers that only set up, besides the measuring one
BUDGET_S = 170.0  # the whole run must end well within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(deadline: float, workload: str, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    if WORKLOADS[workload].calibrated:
        extra = ("--kernel-before", repr(kernel_seconds()), *extra)
    t0 = time.time()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerFailed(f"worker printed no result: {exc}") from exc


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pagescope" / "__init__.py").is_file():
        print(f"error: no pagescope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload]

    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(OUT / f"spans-{tag}.json")]
    try:
        main_run = spawn(deadline, args.workload, *extra)
        runs = [main_run]
        if not args.trace:
            for _ in range(SETUP_WORKERS):
                runs.append(spawn(deadline, args.workload, "--setup-only"))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        metrics = {name: {"value": main_run["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        wall = statistics.median(main_run["walls"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "maccess_per_s": {"value": workload.accesses / 1e6 / wall,
                              "unit": "Maccess/s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in runs),
                        "unit": "s"},
            "peak_rss_mb": {"value": main_run["maxrss_kb"] * 1024 / 1e6,
                            "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted,
                             "unit": "ratio"},
        }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  errors=[e for r in runs for e in r["errors"]],
                  samples={"walls": main_run["walls"],
                           "raw_walls": main_run["raw_walls"],
                           "traced_walls": main_run["traced_walls"],
                           "kernel_s": main_run["kernel_s"],
                           "setup_s": [r["setup_s"] for r in runs],
                           "setup_raw_s": [r["setup_raw_s"] for r in runs]},
                  provenance=dict(main_run["provenance"], seed=args.seed,
                                  git_commit=git_commit()))
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

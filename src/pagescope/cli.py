"""pagescope command line: run experiments, replay traces, inspect hosts.

Exit codes: 0 success, 2 workload failure, 3 capability or input failure
(a bad flag, a missing or malformed config, trace, sidecar or report file,
or a layout too large to allocate). Only `main` turns an exception into an
`error: ...` line and a code.

Each process runs one command, so the module loads only what the parser
and the replay commands need: `blockmesh`, `tlbsim` and `hugepagectl`.
`run`, `render` and `doctor` import the experiment stack (`report` and,
through it, `render`, `metrics` and `counterhub`) when they start, so
`trace` and `tlbsim` never load it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import blockmesh, hugepagectl, tlbsim

EXIT_OK = 0
EXIT_WORKLOAD = 2
EXIT_CAPABILITY = 3

DEFAULT_LAYOUT = "5,16,16,16,16"


def _parse_layout(text: str) -> blockmesh.UnkLayout:
    try:
        nvar, ni, nj, nk, blocks = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--layout wants nvar,ni,nj,nk,blocks, got {text!r}") from None
    return blockmesh.UnkLayout.simple(nvar, ni, nj, nk, blocks)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as ValueError, for `main` to turn into
    one `error:` line and exit 3; subparsers are built from this class too."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing keeps no state in it."""
    p = _Parser(prog="pagescope")
    sub = p.add_subparsers(dest="cmd", metavar="command", required=True)

    run = sub.add_parser("run", help="run a with/without huge-pages experiment")
    run.add_argument("--config", help="experiment config JSON file")
    run.add_argument("--mode-a", default=None,
                     choices=[m.value for m in hugepagectl.HugePageMode],
                     help="baseline huge-page mode (default off)")
    run.add_argument("--mode-b", default=None,
                     choices=[m.value for m in hugepagectl.HugePageMode],
                     help="treatment huge-page mode (default thp)")
    run.add_argument("--simulate-counters", action="store_true",
                     help="use the deterministic simulated counter backend")
    run.add_argument("--events", default=None,
                     help="comma-separated platform event names")
    run.add_argument("--freq-hz", type=float, default=None)
    run.add_argument("--line-bytes", type=int, default=None)
    run.add_argument("--workload", default=None,
                     choices=sorted(blockmesh.WORKLOAD_PATTERNS),
                     help="built-in workload; or pass an external command "
                          "after --")
    run.add_argument("--layout", default=None,
                     help=f"nvar,ni,nj,nk,blocks (default {DEFAULT_LAYOUT})")
    run.add_argument("--n", type=int, default=None,
                     help="square side N: layout 1,N,N,1,1 (for the sum2d workload; "
                          "not with --layout)")
    run.add_argument("--passes", type=int, default=None)
    run.add_argument("--alloc", choices=blockmesh.ALLOC_STRATEGIES, default=None)
    run.add_argument("--repetitions", type=int, default=None)
    run.add_argument("--label", default=None)
    run.add_argument("--out", default=None, help="results directory")
    run.add_argument("command", nargs=argparse.REMAINDER,
                     help="external workload argv (after --)")

    tlb = sub.add_parser("tlbsim", help="replay a trace at several page sizes")
    tlb.add_argument("--trace", required=True, help="binary trace file")
    tlb.add_argument("--sizes", default="4K,2M",
                     help="comma-separated page sizes, e.g. 4K,2M,512M")
    tlb.add_argument("--entries", type=int, default=tlbsim.DEFAULT_ENTRIES)
    tlb.add_argument("--assoc", type=int, default=None,
                     help="ways per set (default fully associative)")
    tlb.add_argument("--out", default=None, help="write CSV here instead of stdout")

    tr = sub.add_parser("trace", help="generate a workload address trace")
    tr.add_argument("--layout", default=DEFAULT_LAYOUT)
    tr.add_argument("--pattern", default="block",
                    choices=[t.value for t in blockmesh.TraversalPattern])
    tr.add_argument("--passes", type=int, default=1)
    tr.add_argument("--out", required=True)

    sub.add_parser("doctor", help="report host capabilities (read-only)")

    ren = sub.add_parser("render", help="render a saved report")
    ren.add_argument("--report", required=True, action="append",
                     help="report JSON (repeat for multi-case charts)")
    ren.add_argument("--format", default="table",
                     choices=["table", "csv", "svg"])
    ren.add_argument("--region", default=None,
                     help="region to chart (svg only; default each "
                          "report's own first region)")
    ren.add_argument("--out", default=None)

    thp = sub.add_parser("thp", help="show or set the THP mode")
    thp.add_argument("--set", dest="set_mode", default=None,
                     choices=[m.value for m in hugepagectl.ThpMode])
    thp.add_argument("--allow-system-writes", action="store_true",
                     help="required opt-in for sysfs writes")
    return p


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _given(**flags) -> dict:
    """The flags that were given on the command line, i.e. are not None."""
    return {key: value for key, value in flags.items() if value is not None}


def _build_run_config(args):
    """The run's `report.ExperimentConfig`: defaults (events from
    PAPI_EVENTS, the real counter backend), then the config file, then each
    flag that was given, built in one step; a bad flag value or config file
    raises ValueError "bad configuration: ..."."""
    from . import report
    from .counterhub import default_events

    d = {"backend": "real",
         "events": sorted(ev.value for ev in default_events()),
         "workload": {"kind": "zone-sweep",
                      "layout": _parse_layout(DEFAULT_LAYOUT).to_dict()}}
    try:
        if args.n is not None and args.layout is not None:
            raise ValueError("--n and --layout both give the layout; pass one")
        if args.config:
            d.update(_object(json.loads(Path(args.config).read_text()), args.config))
        layout = None
        if args.n is not None:
            layout = blockmesh.UnkLayout.simple(1, args.n, args.n, 1, 1).to_dict()
        elif args.layout is not None:
            layout = _parse_layout(args.layout).to_dict()
        command = [c for c in args.command if c != "--"]
        d["workload"] = ({"kind": report.EXTERNAL, "argv": command} if command else
                         {**_object(d["workload"], "workload"),
                          **_given(kind=args.workload, layout=layout,
                                   passes=args.passes, alloc=args.alloc)})
        d["cpu"] = {**_object(d.get("cpu", {}), "cpu"),
                    **_given(freq_hz=args.freq_hz, line_bytes=args.line_bytes)}
        d.update(_given(
            baseline=args.mode_a, treatment=args.mode_b,
            repetitions=args.repetitions, label=args.label,
            events=None if args.events is None else args.events.split(","),
            backend="simulated" if args.simulate_counters else None))
        return report.ExperimentConfig.from_dict(d)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad configuration: {args.config}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad configuration: {exc}") from None


def _cmd_run(args) -> int:
    from . import report

    rep = report.run_experiment(_build_run_config(args), out_dir=args.out)
    print(report.render_table(rep), end="")
    for warning in rep["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        print(f"report written under {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_tlbsim(args) -> int:
    trace = blockmesh.load_trace(args.trace)
    try:
        sizes = sorted(tlbsim.parse_size(tok) for tok in args.sizes.split(","))
    except ValueError as exc:
        raise ValueError(f"--sizes: {exc}") from None
    config = tlbsim.TlbConfig(entries=args.entries, associativity=args.assoc,
                              page_size_bytes=sizes[0])
    csv = tlbsim.sweep_csv(tlbsim.page_size_sweep(trace, config, sizes))
    if args.out:
        Path(args.out).write_text(csv)
    else:
        print(csv, end="")
    return EXIT_OK


def _cmd_trace(args) -> int:
    trace = blockmesh.gen_trace(_parse_layout(args.layout),
                                blockmesh.TraversalPattern(args.pattern),
                                passes=args.passes)
    blockmesh.save_trace(trace, args.out)
    print(f"{trace.accesses} accesses -> {args.out} "
          f"(+ sidecar {blockmesh.sidecar_path(args.out).name})")
    return EXIT_OK


def _cmd_doctor(_args) -> int:
    from . import report

    print(report.doctor().render(), end="")
    return EXIT_OK


def _cmd_render(args) -> int:
    from . import report

    reports = [report.load_report(p) for p in args.report]
    if args.region is not None and args.format != "svg":
        present = sorted({name for r in reports for name in report.report_regions(r)})
        raise ValueError(f"--region applies to --format svg only; regions "
                         f"present: {', '.join(present) or 'none'}")
    if args.format == "table":
        text = "\n".join(report.render_table(r) for r in reports)
    elif args.format == "csv":
        text = "".join(report.render_csv(r) for r in reports)
    else:
        svg, csv = report.render_ratio_chart(reports, region=args.region)
        if args.out:
            Path(args.out).write_text(svg)
            Path(str(args.out) + ".csv").write_text(csv)
            print(f"chart -> {args.out}, data -> {args.out}.csv")
            return EXIT_OK
        text = svg
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_thp(args) -> int:
    fs = hugepagectl.RealFs()
    if args.set_mode:
        hugepagectl.write_thp(fs, hugepagectl.ThpMode(args.set_mode),
                              allow_system_writes=args.allow_system_writes)
    print(hugepagectl.parse_thp(fs.read_text(hugepagectl.THP_ENABLED_PATH)).value)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an error, a bad command line
    included, becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        return {
            "run": _cmd_run,
            "tlbsim": _cmd_tlbsim,
            "trace": _cmd_trace,
            "doctor": _cmd_doctor,
            "render": _cmd_render,
            "thp": _cmd_thp,
        }[args.cmd](args)
    except (blockmesh.AllocationFailure, hugepagectl.SystemWriteNotAllowed,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except RuntimeError as exc:
        # Only `run` raises report's errors, and it has imported report.
        from . import report

        if isinstance(exc, report.WorkloadFailed):
            print(f"error: {exc}", file=sys.stderr)
            if exc.partial is not None:
                print(report.render_table(exc.partial), end="")
            return EXIT_WORKLOAD
        if isinstance(exc, report.CounterUnavailable):
            print(f"error: {exc}", file=sys.stderr)
            print("hint: pass --simulate-counters for a hardware-free run",
                  file=sys.stderr)
            return EXIT_CAPABILITY
        raise


if __name__ == "__main__":
    sys.exit(main())

"""Layer boundaries the traced run wraps, and their reduction to per-layer metrics.

The layers are pagescope's modules. Each boundary is a public function
called through a module or class attribute, so assigning a wrapper to that
attribute times every call without touching the program source. A layer a
workload never calls reports 0 for its metrics.
"""

from __future__ import annotations

import resource
import statistics
import threading

from spans import Span, Target, self_times
from workloads import SIZE_LABELS

_RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
ROLES = ("baseline", "treatment")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"tlbsim.simulate_s.{s}", "s", "lower") for s in SIZE_LABELS.values()]
    + [(f"tlbsim.ns_per_access.{s}", "ns", "lower") for s in SIZE_LABELS.values()]
    + [(f"tlbsim.misses.{s}", "count", "lower") for s in SIZE_LABELS.values()]
    + [("blockmesh.gen_trace_s", "s", "lower"),
       ("blockmesh.save_trace_s", "s", "lower"),
       ("blockmesh.load_trace_s", "s", "lower"),
       ("blockmesh.trace_mb", "MB", "lower")]
    + [(f"blockmesh.run_kernel_s.{r}", "s", "lower") for r in ROLES]
    + [("blockmesh.ns_per_access", "ns", "lower")]
    + [(f"blockmesh.minflt.{r}", "count", "lower") for r in ROLES]
    + [("blockmesh.hp_speedup", "ratio", "higher"),
       ("hugepagectl.polls", "count", "lower"),
       ("hugepagectl.poll_s", "s", "lower"),
       ("counterhub.reads", "count", "lower"),
       ("metrics.derive_s", "s", "lower"),
       ("report.run_experiment_self_s", "s", "lower"),
       ("report.save_report_s", "s", "lower"),
       ("report.render_ratio_chart_s", "s", "lower"),
       ("cli.self_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.accounted_frac", "ratio", "higher")]
)


def _minflt() -> dict:
    return {"minflt": resource.getrusage(_RUSAGE).ru_minflt}


def targets() -> list[Target]:
    """Every boundary to wrap; pagescope must already be importable."""
    from pagescope import blockmesh, cli, counterhub, hugepagectl, report, tlbsim

    def sim(args, kwargs, stats):
        config = kwargs.get("config", args[0] if args else None)
        return {"page": config.page_size_bytes, "accesses": stats.accesses,
                "misses": stats.misses}

    return [
        Target(cli, "main", "cli.main"),
        Target(blockmesh, "gen_trace", "blockmesh.gen_trace",
               describe=lambda a, k, t: {"bytes": int(t.offsets.nbytes)}),
        Target(blockmesh, "save_trace", "blockmesh.save_trace"),
        Target(blockmesh, "load_trace", "blockmesh.load_trace"),
        Target(blockmesh, "run_kernel", "blockmesh.run_kernel", sample=_minflt),
        Target(tlbsim, "simulate", "tlbsim.simulate", describe=sim),
        Target(report, "run_experiment", "report.run_experiment"),
        Target(report, "save_report", "report.save_report"),
        Target(report, "render_ratio_chart", "report.render_ratio_chart"),
        Target(report, "open_session", "counterhub.open_session"),
        Target(report, "derive", "metrics.derive"),
        Target(report, "ratios", "metrics.ratios"),
        Target(counterhub.CounterSession, "read", "counterhub.read"),
        Target(hugepagectl.MeminfoMonitor, "poll_once", "hugepagectl.poll_once"),
    ]


def _iteration_metrics(spans: list[Span], main_thread: int,
                       accesses: int) -> dict[str, float]:
    """Per-layer values of one traced iteration."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    m = {}
    for size, label in SIZE_LABELS.items():
        sims = [s for s in by_name.get("tlbsim.simulate", ())
                if s.attrs.get("page") == size]
        secs = sum(s.duration for s in sims)
        n = sum(s.attrs["accesses"] for s in sims)
        m[f"tlbsim.simulate_s.{label}"] = secs
        m[f"tlbsim.ns_per_access.{label}"] = secs / n * 1e9 if n else 0.0
        m[f"tlbsim.misses.{label}"] = sum(s.attrs["misses"] for s in sims)
    m["blockmesh.gen_trace_s"] = total("blockmesh.gen_trace")
    m["blockmesh.save_trace_s"] = total("blockmesh.save_trace")
    m["blockmesh.load_trace_s"] = total("blockmesh.load_trace")
    m["blockmesh.trace_mb"] = sum(
        s.attrs.get("bytes", 0) for s in by_name.get("blockmesh.gen_trace", ())) / 1e6
    # run_experiment runs the baseline role first, then the treatment.
    kernels = sorted(by_name.get("blockmesh.run_kernel", ()), key=lambda s: s.start)
    roles = dict(zip(ROLES, kernels)) if len(kernels) == len(ROLES) else {}
    for role in ROLES:
        span = roles.get(role)
        m[f"blockmesh.run_kernel_s.{role}"] = span.duration if span else 0.0
        m[f"blockmesh.minflt.{role}"] = span.attrs["minflt"] if span else 0
    kernel_s = sum(s.duration for s in kernels)
    m["blockmesh.ns_per_access"] = kernel_s / accesses * 1e9 if kernels else 0.0
    m["blockmesh.hp_speedup"] = (roles["baseline"].duration / roles["treatment"].duration
                                 if roles else 0.0)
    m["hugepagectl.polls"] = len(by_name.get("hugepagectl.poll_once", ()))
    m["hugepagectl.poll_s"] = total("hugepagectl.poll_once")
    m["counterhub.reads"] = len(by_name.get("counterhub.read", ()))
    m["metrics.derive_s"] = total("metrics.derive") + total("metrics.ratios")
    m["report.run_experiment_self_s"] = self_total("report.run_experiment")
    m["report.save_report_s"] = total("report.save_report")
    m["report.render_ratio_chart_s"] = total("report.render_ratio_chart")
    m["cli.self_s"] = self_total("cli.main")
    # Self times of the main thread's spans tile its top-level spans.
    m["accounted_s"] = sum(own[s.id] for s in spans if s.thread == main_thread)
    return m


def layer_metrics(iterations: list[list[Span]], untraced: list[float],
                  traced: list[float], accesses: int) -> dict[str, float]:
    """Median of each per-layer value over the traced iterations."""
    main_thread = threading.get_ident()
    per_iter = [_iteration_metrics(spans, main_thread, accesses)
                for spans in iterations]
    out = {k: statistics.median(d[k] for d in per_iter) for k in per_iter[0]}
    base = statistics.median(untraced)
    out["trace.overhead_frac"] = statistics.median(traced) / base - 1
    out["trace.accounted_frac"] = out.pop("accounted_s") / base
    return out

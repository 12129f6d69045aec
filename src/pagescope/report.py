"""Paired with/without huge-page experiment runs and their reports.

An experiment runs the same workload under a baseline and a treatment
huge-page mode, reading its counters before and after each repetition and
sampling meminfo for huge-page evidence on the same thread, at points the
run names, then reduces both runs to per-measure ratio rows. A report is
one self-describing JSON-ready dict per experiment, saved under a hash of
the canonical config, so simulated runs reproduce byte for byte.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

from . import blockmesh, render
from .counterhub import (
    ALL_EVENTS,
    CounterSession,
    EventId,
    RealOsBackend,
    SimulatedBackend,
    open_session,
    parse_event_names,
)
from .hugepagectl import (
    BOOT_PARAM_CHECKLIST,
    HugePageMode,
    MeminfoMonitor,
    PERF_PARANOID_PATH,
    RealFs,
    THP_ENABLED_PATH,
    ThpMode,
    UsageVerdict,
    detect_usage,
    parse_thp,
    plan_launch,
)
from .metrics import (MEASURE_LABELS, CpuSpec, DerivedMetrics, RatioRow, derive,
                      elapsed_timer, metrics_cells, ratios)

# hashlib loads OpenSSL's libcrypto, megabytes of resident memory, into a
# process whose memory is what it measures; the interpreter's own SHA-256
# module gives the same digest without it.
try:
    from _sha2 import sha256 as _sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class WorkloadFailed(RuntimeError):
    def __init__(self, mode: HugePageMode, returncode: int):
        super().__init__(f"workload under mode {mode.value!r} exited "
                         f"with status {returncode}")
        self.mode = mode
        self.returncode = returncode
        self.partial: dict | None = None  # set by run_experiment


class CounterUnavailable(RuntimeError):
    pass


EXTERNAL = "external"


def _reject_unknown_keys(d: dict, allowed, where: str) -> None:
    """ValueError naming the keys of `d` not in `allowed`: a misspelled
    config key would otherwise silently run the default."""
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _string_list(value, what: str) -> list[str]:
    """`value` if it is a list of strings, else ValueError: a bare string
    would otherwise be taken one character at a time."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} {value!r} is not a list of strings")
    return value


# Neutral per-read increments used when a simulated config does not supply
# its own: both roles get the same values, so every ratio is exactly 1 and
# nobody mistakes defaults for a measured effect.
DEFAULT_SIM_INCREMENTS: dict[EventId, int] = {
    EventId.CpuCycles: 1_800_000_000,
    EventId.CacheMisses: 29_500_000,
    EventId.DtlbLoadMisses: 1_000_000,
    EventId.SveInstRetired: 850_000_000,
    EventId.StalledCyclesBackend: 600_000_000,
    EventId.StalledCyclesFrontend: 90_000_000,
}


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    layout: blockmesh.UnkLayout | None = None
    passes: int = 1
    alloc: str = "eager"
    fill: float = 1.0
    argv: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == EXTERNAL:
            if not self.argv:
                raise ValueError("external workload needs an argv")
        elif self.kind in blockmesh.WORKLOAD_PATTERNS:
            if self.layout is None:
                raise ValueError(f"workload {self.kind!r} needs a layout")
            if self.argv:
                raise ValueError(f"workload {self.kind!r} takes no argv")
            if self.layout.elem_bytes != 8:
                # run_kernel sums float64: another size would be recorded, not run.
                raise ValueError(f"workload {self.kind!r} sums 8-byte doubles; "
                                 f"layout elem_bytes is {self.layout.elem_bytes}")
        else:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if type(self.passes) is not int or self.passes < 1:
            raise ValueError("passes must be an integer >= 1")
        if self.alloc not in blockmesh.ALLOC_STRATEGIES:
            raise ValueError(f"alloc {self.alloc!r} is not eager or demand")
        # NaN and the infinities compare False, as does an int no double holds.
        if (type(self.fill) not in (int, float)
                or not abs(self.fill) <= sys.float_info.max):
            raise ValueError(f"fill {self.fill!r} is not a finite number")

    @property
    def region_name(self) -> str:
        return "main" if self.kind == EXTERNAL else self.kind

    def to_dict(self) -> dict:
        return {**asdict(self), "argv": list(self.argv)}

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        _reject_unknown_keys(d, [f.name for f in fields(cls)], "workload")
        given = {**d, "kind": d["kind"]}  # a KeyError names the missing kind
        if "layout" in d:
            layout = d["layout"]
            given["layout"] = blockmesh.UnkLayout.from_dict(layout) if layout else None
        if "argv" in d:
            given["argv"] = tuple(_string_list(d["argv"], "argv"))
        return cls(**given)


@dataclass(frozen=True)
class ExperimentConfig:
    workload: WorkloadSpec
    baseline: HugePageMode = HugePageMode.Off
    treatment: HugePageMode = HugePageMode.Transparent
    events: frozenset[EventId] = ALL_EVENTS
    cpu: CpuSpec = CpuSpec()
    repetitions: int = 1
    monitor_cadence_s: float = 1.0
    backend: str = "simulated"  # "simulated" | "real"
    # {role: {event: increment per read}}, only used when simulated.
    simulated_increments: dict[str, dict[EventId, int]] = field(
        default_factory=dict, hash=False)
    label: str = "experiment"

    def __post_init__(self):
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise ValueError("repetitions must be an integer >= 1")
        if self.baseline == self.treatment:
            raise ValueError("baseline and treatment modes must differ")
        if self.backend not in ("simulated", "real"):
            raise ValueError(f"unknown backend {self.backend!r}")
        cadence = self.monitor_cadence_s
        if type(cadence) not in (int, float) or not cadence > 0:
            raise ValueError(f"monitor_cadence_s {cadence!r} is not a number > 0")
        if not isinstance(self.label, str):
            raise ValueError("label must be a string")
        if EventId.CpuCycles not in self.events:
            raise ValueError(f"events lack {EventId.CpuCycles.value}, "
                             f"which every measure is derived from")
        _reject_unknown_keys(self.simulated_increments, ("baseline", "treatment"),
                             "simulated_increments")
        if (self.simulated_increments
                and not {"baseline", "treatment"} <= set(self.simulated_increments)):
            raise ValueError("simulated_increments must cover both the "
                             "baseline and treatment roles")
        # Checked here, before any kernel runs: a negative increment reads
        # as a counter going backward, and a zero cycle count cannot be
        # derived from once the baseline has run.
        for role, table in self.simulated_increments.items():
            for ev, inc in table.items():
                if type(inc) is not int or inc < 0:
                    raise ValueError(f"simulated increment {inc!r} for {role} "
                                     f"{ev.value} is not an integer >= 0")
            if not table.get(EventId.CpuCycles):
                raise ValueError(f"simulated increments for {role} give no "
                                 f"{EventId.CpuCycles.value} increment above 0")

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "workload": self.workload.to_dict(),
            "baseline": self.baseline.value,
            "treatment": self.treatment.value,
            "events": sorted(ev.value for ev in self.events),
            "simulated_increments": {
                role: {ev.value: inc for ev, inc in incs.items()}
                for role, incs in self.simulated_increments.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; ValueError when d does not have its shape.
        A key the mapping leaves out keeps its field's default."""
        try:
            _reject_unknown_keys(d, [f.name for f in fields(cls)], "top-level")
            given = {**d, "workload": WorkloadSpec.from_dict(d["workload"])}
            if "events" in d:  # an empty list means every event
                names = _string_list(d["events"], "events")
                given["events"] = (parse_event_names(",".join(names)) if names
                                   else ALL_EVENTS)
            if "simulated_increments" in d:
                given["simulated_increments"] = {
                    role: {EventId(name): v for name, v in table.items()}
                    for role, table in d["simulated_increments"].items()}
            for role in ("baseline", "treatment"):
                if role in d:
                    given[role] = HugePageMode(d[role])
            if "cpu" in d:
                _reject_unknown_keys(d["cpu"], [f.name for f in fields(CpuSpec)], "cpu")
                given["cpu"] = CpuSpec(**d["cpu"])
            return cls(**given)
        except KeyError as exc:
            raise ValueError(f"missing or unknown key {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"wrong shape: {exc}") from None

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True).encode()
        return _sha256(canon).hexdigest()[:12]


def _median_metrics(per_rep: list[DerivedMetrics]) -> DerivedMetrics:
    """Each measure's median over the repetitions that have it."""
    def med(values):
        present = [v for v in values if v is not None]
        return statistics.median(present) if present else None

    return DerivedMetrics(*(med(values) for values in zip(*map(astuple, per_rep))))


def _make_backend(config: ExperimentConfig, role: str):
    if config.backend == "simulated":
        return SimulatedBackend(
            config.simulated_increments.get(role, DEFAULT_SIM_INCREMENTS))
    state = RealOsBackend.probe(config.events)
    bad = {ev.value: msg for ev, msg in state.items() if msg != "ok"}
    if bad:
        raise CounterUnavailable(f"events not programmable: {bad}")
    return RealOsBackend()


def run_dict(mode: HugePageMode, region: str, reps: list[dict[EventId, int]],
             metrics: DerivedMetrics, verdict: UsageVerdict, elapsed_s: float,
             checksum: float | None = None) -> dict:
    """One role's entry under a report's "runs": its one region's counter
    totals summed over the repetitions `reps`, their median measures, the
    huge-page verdict and the timer."""
    return {
        "mode": mode.value,
        "elapsed_s": elapsed_s,
        "checksum": checksum,
        "verdict": {"state": verdict.state,
                    "evidence": [[name, delta] for name, delta in verdict.evidence],
                    "reason": verdict.reason},
        "regions": {region: {
            "region_count": len(reps),
            "totals": {ev.value: sum(rep[ev] for rep in reps) for ev in reps[0]},
            "metrics": asdict(metrics)}},
    }


def _run_one_mode(config: ExperimentConfig, role: str,
                  fs) -> tuple[dict, MeminfoMonitor]:
    """The role's run dict, and the monitor that counted its meminfo samples."""
    mode = config.baseline if role == "baseline" else config.treatment
    backend = _make_backend(config, role)
    simulated = config.backend == "simulated"

    def now_s() -> float:
        return backend.now_ns() / 1e9 if simulated else time.perf_counter()

    monitor = MeminfoMonitor(fs)
    before = monitor.sample()
    during = []

    def sample() -> None:
        if before is not None:  # without a baseline, a later sample shows nothing
            during.append(monitor.sample())

    rep_totals: list[dict[EventId, int]] = []
    rep_elapsed: list[float] = []
    # One session per role; each repetition reads it twice.
    with open_session(backend, config.events) as session:
        for _ in range(config.repetitions):
            totals, elapsed, checksum = _run_rep(
                config.workload, mode, session, now_s, sample,
                config.monitor_cadence_s)
            rep_totals.append(totals)
            rep_elapsed.append(elapsed)

    during = [snap for snap in during if snap is not None]
    if before is None:
        verdict = UsageVerdict.indeterminate("meminfo unavailable")
    elif not during:
        verdict = UsageVerdict.indeterminate("no meminfo sample during the run")
    else:
        verdict = detect_usage(before, during)

    # A run records one region, named by its workload.
    run = run_dict(mode, config.workload.region_name, rep_totals,
                   _median_metrics([derive(t, config.cpu) for t in rep_totals]),
                   verdict, statistics.median(rep_elapsed), checksum)
    return run, monitor


def _run_rep(workload, mode, session: CounterSession, now_s, sample, cadence_s):
    """One repetition: t0, a session read, the kernel or the command, a
    session read, t1. Returns (each event's difference between the two
    reads, elapsed seconds, checksum or None). Between the reads,
    `sample()` takes each meminfo sample on this thread: once a built-in
    kernel's array is fully written (run_kernel's `touched`), or every
    `cadence_s` while a command runs and once when it has exited.
    A command's exit wakes the wait on its pidfd at once, so its elapsed
    time carries no polling delay. Its standard output is discarded, so
    it does not mix with the table; its standard error reaches ours.

    In-process kernels ignore the launch plan's env/wrapper: the plan
    applies to spawned commands, while this process's mapping policy is
    whatever the host gave us.
    """
    returncode, checksum = None, None
    if workload.kind == EXTERNAL:
        # Only a spawned command needs them. Imported before t0, so the
        # first import's milliseconds land in no role's timed region.
        import select
        import subprocess
    t0 = now_s()
    begin = session.read()
    if workload.kind == EXTERNAL:
        plan = plan_launch(mode)
        try:
            proc = subprocess.Popen(
                [*plan.wrapper_argv, *workload.argv],
                env={**os.environ, **plan.env}, stdout=subprocess.DEVNULL)
        except FileNotFoundError as exc:
            # Shell convention for command-not-found; usually the mode's
            # wrapper tool is missing, which doctor() flags in advance.
            raise WorkloadFailed(mode, 127) from exc
        with proc:
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    # Polled after each sample, so a command that exits
                    # before the first poll is still sampled once.
                    while returncode is None:
                        select.select([pidfd], [], [], cadence_s)  # readable at exit
                        sample()
                        returncode = proc.poll()
                finally:
                    os.close(pidfd)
            finally:
                proc.kill()  # a no-op once reaped; ends an interrupted wait's child
    else:
        checksum = blockmesh.run_kernel(
            workload.layout, blockmesh.WORKLOAD_PATTERNS[workload.kind],
            workload.passes, workload.fill, workload.alloc, touched=sample)
    end = session.read()
    t1 = now_s()
    if returncode:
        raise WorkloadFailed(mode, returncode)
    totals = {ev: end[ev] - begin[ev] for ev in session.events}
    return totals, elapsed_timer(t0, t1), checksum


def run_experiment(config: ExperimentConfig, fs=None,
                   out_dir: str | Path | None = None) -> dict:
    """Run baseline and treatment, reduce to ratio rows, optionally persist.

    Returns the report dict, the same document save_report writes and
    load_report reads. On a treatment workload failure the baseline results
    are preserved on the raised WorkloadFailed as a partial report.
    """
    fs = fs if fs is not None else RealFs()
    if out_dir is not None:
        _probe_dir(Path(out_dir))
    runs: dict[str, dict] = {}
    monitors: dict[str, MeminfoMonitor] = {}
    for role in ("baseline", "treatment"):
        try:
            runs[role], monitors[role] = _run_one_mode(config, role, fs)
        except WorkloadFailed as exc:
            exc.partial = _assemble(config, runs, monitors, partial=True)
            if out_dir is not None:
                save_report(exc.partial, out_dir)
            raise

    report = _assemble(config, runs, monitors)
    if out_dir is not None:
        save_report(report, out_dir)
    return report


def _probe_dir(out: Path) -> None:
    """Make `out` as save_report will, then remove what was made: a
    directory that cannot be made fails before anything runs, and a run
    that fails later leaves none behind."""
    missing = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    for p in missing:  # the deepest first
        p.rmdir()


def _is_hp_mode(mode: HugePageMode) -> bool:
    return mode not in (HugePageMode.Off, HugePageMode.FujitsuNone)


def _assemble(config: ExperimentConfig, runs: dict[str, dict],
              monitors: dict[str, MeminfoMonitor], partial: bool = False) -> dict:
    warnings = []
    ratio_rows: dict[str, list[dict]] = {}
    if "baseline" in runs and "treatment" in runs:
        base, treat = runs["baseline"], runs["treatment"]
        rows = ratios(_one_region(treat)[1], _one_region(base)[1],
                      timers=(treat["elapsed_s"], base["elapsed_s"]))
        ratio_rows[config.workload.region_name] = [asdict(row) for row in rows]
    for role, run in runs.items():
        expect_hp = _is_hp_mode(HugePageMode(run["mode"]))
        state = run["verdict"]["state"]
        if expect_hp and state != "active":
            warnings.append(f"{role} mode {run['mode']!r} shows no huge-page "
                            f"evidence (verdict: {state})")
        if not expect_hp and state == "active":
            warnings.append(f"{role} mode {run['mode']!r} unexpectedly shows "
                            f"huge-page evidence")
    for role, monitor in monitors.items():
        if monitor.dropped:
            warnings.append(f"{role}: {monitor.dropped} of {monitor.samples} "
                            f"meminfo samples could not be read")
    if partial:
        warnings.append("partial report: a workload failed before completion")

    provenance = {
        "config_hash": config.config_hash(),
        "host": f"{platform.node()}/{platform.machine()}",
        "backend": config.backend,
        "created_at": (None if config.backend == "simulated"
                       else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
    }
    return {
        "label": config.label,
        "config": config.to_dict(),
        "provenance": provenance,
        "runs": runs,
        "ratios": ratio_rows,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def save_report(report: dict, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report-{report['provenance']['config_hash']}.json"
    path.write_text(report_to_json(report))
    return path


def load_report(path: str | Path) -> dict:
    """Read a saved report; ValueError naming the file unless it holds what
    the renderers read (label, elapsed times, metrics, ratio rows) as typed,
    for one region: each run records one, and the ratio rows name it too."""
    try:
        d = json.loads(Path(path).read_text())
        _need(isinstance(d.get("label", ""), str), "label is not a string")
        names = set(d.get("ratios", {}))
        for run in d.get("runs", {}).values():
            _need(len(run.get("regions", {})) == 1, "a run does not record one region")
            region, measures = _one_region(run)
            names.add(region)
            _need_numbers([run.get("elapsed_s"), *asdict(measures).values()])
        _need(len(names) <= 1, f"runs and ratios name regions {sorted(names)}")
        for rows in d.get("ratios", {}).values():
            for row in (RatioRow(**r) for r in rows):
                _need(isinstance(row.measure, str), "a ratio measure is not a string")
                _need_numbers([row.with_hp, row.without_hp, row.ratio])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a pagescope report: {exc}") from None
    return d


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def _need_numbers(values) -> None:
    # json reads NaN and ±Infinity; the bound is false for all three.
    _need(all(v is None or (type(v) in (int, float) and abs(v) <= sys.float_info.max)
              for v in values),
          "a metric or ratio is not a finite number")


# ---------------------------------------------------------------------------
# Rendering entry points (table / csv / chart) over the JSON dict form
# ---------------------------------------------------------------------------

def _one_region(run: dict) -> tuple[str, DerivedMetrics]:
    """A run's one region: its name and its median measures."""
    [(region, info)] = run["regions"].items()
    return region, DerivedMetrics(**info["metrics"])


def render_table(report: dict) -> str:
    """The Without/With table of the report's one region, three significant
    figures; empty when no run finished."""
    region, columns = None, {}
    for role, run in report.get("runs", {}).items():
        region, measures = _one_region(run)
        columns[role] = metrics_cells(measures, run.get("elapsed_s"))
    return "" if region is None else render.metrics_table(
        columns.get("baseline", {}), columns.get("treatment", {}), region)


def render_csv(*reports: dict) -> str:
    """Full-precision machine-readable rows mirroring the table, under one
    header for all the reports."""
    return render.ratio_rows_csv([block for rep in reports
                                  for block in rep.get("ratios", {}).items()])


def render_ratio_chart(reports: list[dict]) -> tuple[str, str]:
    """SVG chart plus companion CSV of several reports' ratios.

    Returns (svg_text, csv_text); the two carry identical ratio strings.
    Each report charts its one block of ratio rows (a pagescope run records
    one region), so reports of different workloads (say "EOS" and "3-d
    Hydro") sit side by side; a report without ratio rows is a case with
    no bars. Bars are keyed by report label, so two reports that share a
    label are a ValueError.
    """
    if not reports:
        raise ValueError("need at least one report")
    cases = []
    ratios_map: dict[tuple[str, str], float | None] = {}
    labels_present: list[str] = []
    for rep in reports:
        case = rep.get("label", "case")
        if case in cases:
            raise ValueError(f"two reports share the label {case!r}; give each "
                             f"run its own with run --label")
        cases.append(case)
        for row in next(iter(rep.get("ratios", {}).values()), []):
            if row["measure"] not in labels_present:
                labels_present.append(row["measure"])
            ratios_map[(row["measure"], case)] = row["ratio"]
    ordered = [lbl for lbl in MEASURE_LABELS if lbl in labels_present]
    ordered += [lbl for lbl in labels_present if lbl not in ordered]
    svg = render.ratio_chart_svg(ordered, cases, ratios_map)
    csv = render.ratio_chart_csv(ordered, cases, ratios_map)
    return svg, csv


# ---------------------------------------------------------------------------
# Capability doctor
# ---------------------------------------------------------------------------

@dataclass
class CapabilityReport:
    thp_mode: ThpMode | None
    meminfo_ok: bool
    paranoid: int | None
    counter_state: dict[str, str]
    tools: dict[str, bool]
    advisories: list[str]
    checklist: tuple[str, ...] = BOOT_PARAM_CHECKLIST

    def render(self) -> str:
        lines = ["capability report"]
        lines.append(f"  THP mode:            "
                     f"{self.thp_mode.value if self.thp_mode else 'unavailable'}")
        lines.append(f"  meminfo huge fields: {'ok' if self.meminfo_ok else 'missing'}")
        lines.append(f"  perf_event_paranoid: "
                     f"{self.paranoid if self.paranoid is not None else 'unavailable'}")
        for name, state in sorted(self.counter_state.items()):
            lines.append(f"  counter {name}: {state}")
        for tool, present in sorted(self.tools.items()):
            lines.append(f"  tool {tool}: {'found' if present else 'not found'}")
        if self.advisories:
            lines.append("advisories:")
            lines.extend(f"  - {a}" for a in self.advisories)
        else:
            lines.append("advisories: none")
        lines.append("provisioning checklist (reference only, never applied):")
        lines.extend(f"  - {c}" for c in self.checklist)
        return "\n".join(lines) + "\n"


def doctor(fs=None, which=shutil.which, probe=None) -> CapabilityReport:
    """Inspect counter access, THP state, meminfo, and wrapper tools.

    Read-only: advisory text plus the provisioning checklist; nothing is
    ever written.
    """
    fs = fs if fs is not None else RealFs()
    probe = probe if probe is not None else RealOsBackend.probe
    advisories = []

    thp_mode = None
    try:
        thp_mode = parse_thp(fs.read_text(THP_ENABLED_PATH))
    except (OSError, ValueError):
        advisories.append("transparent huge page state unavailable "
                          f"({THP_ENABLED_PATH})")
    if thp_mode is ThpMode.Never:
        advisories.append("transparent huge pages disabled")

    meminfo_ok = True
    try:
        MeminfoMonitor(fs).poll_once()
    except (OSError, ValueError):
        meminfo_ok = False
        advisories.append("huge-page fields missing from /proc/meminfo; "
                          "usage verification will be indeterminate")

    paranoid = None
    try:
        paranoid = int(fs.read_text(PERF_PARANOID_PATH).strip())
    except (OSError, ValueError):
        advisories.append("perf_event_paranoid unreadable; counter access unknown")
    if paranoid is not None and paranoid > 2:
        advisories.append(f"perf_event_paranoid={paranoid} too strict; "
                          "unprivileged counters need kernel.perf_event_paranoid=1")

    counter_state = {}
    try:
        counter_state = {ev.value: msg for ev, msg in probe().items()}
    except Exception as exc:  # probe itself may be impossible off-Linux
        advisories.append(f"counter probe failed: {exc}")
    denied = [name for name, msg in counter_state.items() if msg != "ok"]
    if denied:
        advisories.append("counters not programmable: " + ", ".join(sorted(denied)))

    tools = {tool: which(tool) is not None for tool in ("hugectl", "hugeadm")}
    for tool, present in tools.items():
        if not present:
            advisories.append(f"{tool} not found (install libhugetlbfs-utils)")

    return CapabilityReport(thp_mode=thp_mode, meminfo_ok=meminfo_ok,
                            paranoid=paranoid, counter_state=counter_state,
                            tools=tools, advisories=advisories)

"""Paired with/without huge-page experiment runs and their reports.

An experiment runs the same workload under a baseline and a treatment
huge-page mode, reading its counters before and after each repetition
while a meminfo monitor watches for huge-page evidence, then reduces both
runs to per-measure ratio rows. A report is one self-describing JSON-ready
dict per experiment, saved under a hash of the canonical config, so
simulated runs reproduce byte for byte.
"""

from __future__ import annotations

import functools
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
    RegionRecord,
    SimulatedBackend,
    open_session,
    parse_event_names,
)
from .hugepagectl import (
    BOOT_PARAM_CHECKLIST,
    FixtureFs,
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
from .metrics import (LABEL_TIMER, MEASURE_LABELS, CpuSpec, DerivedMetrics, RatioRow,
                      derive, elapsed_timer, metrics_cells, ratios)

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
        return {
            "kind": self.kind,
            "layout": self.layout.to_dict() if self.layout else None,
            "passes": self.passes,
            "alloc": self.alloc,
            "fill": self.fill,
            "argv": list(self.argv),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        _reject_unknown_keys(d, [f.name for f in fields(cls)], "workload")
        layout = d.get("layout")
        argv = _string_list(d.get("argv", []), "argv")
        return cls(kind=d["kind"],
                   layout=blockmesh.UnkLayout.from_dict(layout) if layout else None,
                   passes=d.get("passes", 1),
                   alloc=d.get("alloc", "eager"),
                   fill=d.get("fill", 1.0),
                   argv=tuple(argv))


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
            "workload": self.workload.to_dict(),
            "baseline": self.baseline.value,
            "treatment": self.treatment.value,
            "events": sorted(ev.value for ev in self.events),
            "cpu": {"freq_hz": self.cpu.freq_hz,
                    "line_bytes": self.cpu.cache_line_bytes},
            "repetitions": self.repetitions,
            "monitor_cadence_s": self.monitor_cadence_s,
            "backend": self.backend,
            "simulated_increments": {
                role: {ev.value: inc for ev, inc in incs.items()}
                for role, incs in self.simulated_increments.items()},
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; ValueError when d does not have its shape."""
        try:
            _reject_unknown_keys(d, [f.name for f in fields(cls)] + ["strict"],
                                 "top-level")
            _reject_unknown_keys(d.get("cpu", {}), ["freq_hz", "line_bytes"], "cpu")
            names = _string_list(d.get("events", []), "events")
            events = parse_event_names(",".join(names)) if names else ALL_EVENTS
            incs = {
                role: {EventId(name): v for name, v in table.items()}
                for role, table in d.get("simulated_increments", {}).items()}
            return cls(
                workload=WorkloadSpec.from_dict(d["workload"]),
                baseline=HugePageMode(d.get("baseline", "off")),
                treatment=HugePageMode(d.get("treatment", "thp")),
                events=events,
                cpu=CpuSpec.from_mapping(d.get("cpu", {}),
                                         strict=d.get("strict", False)),
                repetitions=d.get("repetitions", 1),
                monitor_cadence_s=d.get("monitor_cadence_s", 1.0),
                backend=d.get("backend", "simulated"),
                simulated_increments=incs,
                label=d.get("label", "experiment"),
            )
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


def run_dict(mode: HugePageMode, record: RegionRecord, metrics: DerivedMetrics,
             verdict: UsageVerdict, elapsed_s: float,
             checksum: float | None = None) -> dict:
    """One role's entry under a report's "runs": the region's summed
    counters and median measures, the huge-page verdict and the timer."""
    return {
        "mode": mode.value,
        "elapsed_s": elapsed_s,
        "checksum": checksum,
        "verdict": {"state": verdict.state,
                    "evidence": [[name, delta] for name, delta in verdict.evidence],
                    "reason": verdict.reason},
        "regions": {record.name: {
            "region_count": record.region_count,
            "totals": {ev.value: int(v) for ev, v in record.totals.items()},
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

    monitor = MeminfoMonitor(fs, config.monitor_cadence_s)
    before = monitor.sample()
    threaded = before is not None and not isinstance(fs, FixtureFs)
    if threaded:
        monitor.start()

    during = []
    rep_records: list[RegionRecord] = []
    rep_elapsed: list[float] = []
    try:
        # One session per role; each repetition reads it twice.
        with open_session(backend, config.events) as session:
            for _ in range(config.repetitions):
                record, elapsed, checksum = _run_rep(config.workload, mode,
                                                     session, now_s)
                rep_records.append(record)
                rep_elapsed.append(elapsed)
                if before is not None and not threaded:
                    during.append(monitor.sample())
    finally:
        if threaded:
            during.extend(monitor.stop())
            during.append(monitor.sample())

    during = [snap for snap in during if snap is not None]
    if before is None:
        verdict = UsageVerdict.indeterminate("meminfo unavailable")
    else:
        verdict = detect_usage(before, during or [before])

    per_rep_metrics = [derive(r, config.cpu) for r in rep_records]
    run = run_dict(mode, functools.reduce(RegionRecord.merged_with, rep_records),
                   _median_metrics(per_rep_metrics), verdict,
                   statistics.median(rep_elapsed), checksum)
    return run, monitor


def _run_rep(workload, mode, session: CounterSession, now_s):
    """One repetition: t0, a session read, the kernel or the command, a
    session read, t1. Returns (this repetition's record, whose totals are
    the two reads' difference, elapsed seconds, checksum or None).

    In-process kernels ignore the launch plan's env/wrapper: the plan
    applies to spawned commands, while this process's mapping policy is
    whatever the host gave us.
    """
    returncode, checksum = 0, None
    if workload.kind == EXTERNAL:
        # Only a spawned command needs it. Imported before t0, so the
        # first import's milliseconds land in no role's timed region.
        import subprocess
    t0 = now_s()
    begin = session.read()
    if workload.kind == EXTERNAL:
        plan = plan_launch(mode)
        try:
            returncode = subprocess.run(
                plan.command(list(workload.argv)),
                env=plan.environ(dict(os.environ)),
                capture_output=True).returncode
        except FileNotFoundError as exc:
            # Shell convention for command-not-found; usually the mode's
            # wrapper tool is missing, which doctor() flags in advance.
            raise WorkloadFailed(mode, 127) from exc
    else:
        checksum = blockmesh.run_kernel(
            workload.layout, blockmesh.WORKLOAD_PATTERNS[workload.kind],
            workload.passes, workload.fill, workload.alloc)
    end = session.read()
    t1 = now_s()
    if returncode != 0:
        raise WorkloadFailed(mode, returncode)
    record = RegionRecord(workload.region_name, 1,
                          {ev: end[ev] - begin[ev] for ev in session.events})
    return record, elapsed_timer(t0, t1), checksum


def run_experiment(config: ExperimentConfig, fs=None,
                   out_dir: str | Path | None = None) -> dict:
    """Run baseline and treatment, reduce to ratio rows, optionally persist.

    Returns the report dict, the same document save_report writes and
    load_report reads. On a treatment workload failure the baseline results
    are preserved on the raised WorkloadFailed as a partial report.
    """
    fs = fs if fs is not None else RealFs()
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


def _is_hp_mode(mode: HugePageMode) -> bool:
    return mode not in (HugePageMode.Off, HugePageMode.FujitsuNone)


def _assemble(config: ExperimentConfig, runs: dict[str, dict],
              monitors: dict[str, MeminfoMonitor], partial: bool = False) -> dict:
    warnings = []
    ratio_rows: dict[str, list[dict]] = {}
    if "baseline" in runs and "treatment" in runs:
        base, treat = runs["baseline"], runs["treatment"]
        for region in sorted(set(base["regions"]) & set(treat["regions"])):
            rows = ratios(DerivedMetrics(**treat["regions"][region]["metrics"]),
                          DerivedMetrics(**base["regions"][region]["metrics"]),
                          timers=(treat["elapsed_s"], base["elapsed_s"]))
            ratio_rows[region] = [asdict(row) for row in rows]
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
    the renderers read (label, elapsed times, metrics, ratio rows) as typed."""
    try:
        d = json.loads(Path(path).read_text())
        _need(isinstance(d.get("label", ""), str), "label is not a string")
        for run in d.get("runs", {}).values():
            _need_numbers([run.get("elapsed_s")])
            for info in run.get("regions", {}).values():
                if info.get("metrics"):
                    _need_numbers(asdict(DerivedMetrics(**info["metrics"])).values())
        for rows in d.get("ratios", {}).values():
            for row in (RatioRow(**r) for r in rows):
                _need(isinstance(row.measure, str), "a ratio measure is not a string")
                _need_numbers([row.with_hp, row.without_hp, row.ratio])
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a pagescope report: {exc}") from None
    return d


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def _need_numbers(values) -> None:
    _need(all(v is None or type(v) in (int, float) for v in values),
          "a metric or ratio is not a number")


# ---------------------------------------------------------------------------
# Rendering entry points (table / csv / chart) over the JSON dict form
# ---------------------------------------------------------------------------

def _cells_from_run(run: dict, region: str) -> dict[str, float | None]:
    info = run.get("regions", {}).get(region)
    if not info or not info.get("metrics"):
        return {}
    cells = metrics_cells(DerivedMetrics(**info["metrics"]))
    cells[LABEL_TIMER] = run.get("elapsed_s")
    return cells


def report_regions(report: dict) -> list[str]:
    names = set()
    for run in report.get("runs", {}).values():
        names.update(run.get("regions", {}))
    return sorted(names)


def render_table(report: dict) -> str:
    """Without/With table per region, three significant figures."""
    base = report.get("runs", {}).get("baseline", {})
    treat = report.get("runs", {}).get("treatment", {})
    blocks = []
    for region in report_regions(report):
        blocks.append(render.metrics_table(
            _cells_from_run(base, region), _cells_from_run(treat, region), region))
    return "\n".join(blocks)


def render_csv(report: dict) -> str:
    """Full-precision machine-readable rows mirroring the table."""
    return render.ratio_rows_csv({
        region: [RatioRow(**r) for r in rows]
        for region, rows in report.get("ratios", {}).items()})


def render_ratio_chart(reports: list[dict],
                       region: str | None = None) -> tuple[str, str]:
    """SVG chart plus companion CSV for one region across several reports.

    Returns (svg_text, csv_text); the two carry identical ratio strings.
    Without `region`, each report charts its own first region, so reports
    of different workloads (say "EOS" and "3-d Hydro") sit side by side.
    A region that no report holds is a ValueError naming those it holds.
    Bars are keyed by report label, so two reports that share a label are
    a ValueError too.
    """
    if not reports:
        raise ValueError("need at least one report")
    present = sorted({name for rep in reports for name in rep.get("ratios", {})})
    if region is not None and region not in present:
        raise ValueError(f"no region {region!r} in the reports; regions "
                         f"present: {', '.join(present) or 'none'}")
    cases = []
    ratios_map: dict[tuple[str, str], float | None] = {}
    labels_present: list[str] = []
    for rep in reports:
        case = rep.get("label", "case")
        if case in cases:
            raise ValueError(f"two reports share the label {case!r}; give each "
                             f"run its own with run --label")
        cases.append(case)
        regions = sorted(rep.get("ratios", {}))
        if not regions:
            continue
        use = region if region is not None else regions[0]
        for row in rep["ratios"].get(use, []):
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

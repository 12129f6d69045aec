"""Paired with/without huge-page experiment runs and their reports.

An experiment runs the same workload under a baseline and a treatment
huge-page mode, bracketing it with counter regions while a meminfo monitor
watches for huge-page evidence, then reduces both runs to per-measure
ratio rows. Reports serialize to one self-describing JSON per experiment,
keyed by a hash of the canonical config, so simulated runs reproduce byte
for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import blockmesh, render
from .counterhub import (
    ALL_EVENTS,
    EVENT_NAMES,
    NAME_TO_EVENT,
    EventId,
    RealOsBackend,
    RegionCollector,
    RegionRecord,
    SimulatedBackend,
    aggregate,
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


class WorkloadFailed(RuntimeError):
    def __init__(self, mode: HugePageMode, returncode: int, partial=None):
        super().__init__(f"workload under mode {mode.value!r} exited "
                         f"with status {returncode}")
        self.mode = mode
        self.returncode = returncode
        self.partial = partial


class CounterUnavailable(RuntimeError):
    pass


WORKLOAD_PATTERNS = {
    "block-sweep": blockmesh.TraversalPattern.BlockSweep,
    "zone-sweep": blockmesh.TraversalPattern.ZoneSweep,
    "sum2d": blockmesh.TraversalPattern.RepeatedSum2D,
}

EXTERNAL = "external"

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
        elif self.kind in WORKLOAD_PATTERNS:
            if self.layout is None:
                raise ValueError(f"workload {self.kind!r} needs a layout")
        else:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")

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
        layout = d.get("layout")
        return cls(kind=d["kind"],
                   layout=blockmesh.UnkLayout.from_dict(layout) if layout else None,
                   passes=d.get("passes", 1),
                   alloc=d.get("alloc", "eager"),
                   fill=d.get("fill", 1.0),
                   argv=tuple(d.get("argv", ())))


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
    # Per-role deterministic counter increments, only used when simulated.
    simulated_increments: tuple[tuple[str, tuple[tuple[EventId, int], ...]], ...] = ()
    label: str = "experiment"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.baseline == self.treatment:
            raise ValueError("baseline and treatment modes must differ")
        if self.backend not in ("simulated", "real"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.simulated_increments:
            roles = {role for role, _ in self.simulated_increments}
            if not {"baseline", "treatment"} <= roles:
                raise ValueError("simulated_increments must cover both the "
                                 "baseline and treatment roles")

    def increments_for(self, role: str) -> dict[EventId, int]:
        if not self.simulated_increments:
            return dict(DEFAULT_SIM_INCREMENTS)
        return dict(dict(self.simulated_increments)[role])

    @staticmethod
    def pack_increments(per_role: dict[str, dict[EventId, int]]):
        return tuple(sorted(
            (role, tuple(sorted(incs.items(), key=lambda kv: kv[0].name)))
            for role, incs in per_role.items()))

    def to_dict(self) -> dict:
        return {
            "workload": self.workload.to_dict(),
            "baseline": self.baseline.value,
            "treatment": self.treatment.value,
            "events": sorted(EVENT_NAMES[ev] for ev in self.events),
            "cpu": {"freq_hz": self.cpu.freq_hz,
                    "line_bytes": self.cpu.cache_line_bytes},
            "repetitions": self.repetitions,
            "monitor_cadence_s": self.monitor_cadence_s,
            "backend": self.backend,
            "simulated_increments": {
                role: {EVENT_NAMES[ev]: inc for ev, inc in pairs}
                for role, pairs in self.simulated_increments},
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        events = (parse_event_names(",".join(d["events"]))
                  if d.get("events") else ALL_EVENTS)
        incs = {
            role: {NAME_TO_EVENT[name]: int(v) for name, v in table.items()}
            for role, table in d.get("simulated_increments", {}).items()}
        return cls(
            workload=WorkloadSpec.from_dict(d["workload"]),
            baseline=HugePageMode(d.get("baseline", "off")),
            treatment=HugePageMode(d.get("treatment", "thp")),
            events=events,
            cpu=CpuSpec.from_mapping(d.get("cpu", {}), strict=d.get("strict", False)),
            repetitions=d.get("repetitions", 1),
            monitor_cadence_s=d.get("monitor_cadence_s", 1.0),
            backend=d.get("backend", "simulated"),
            simulated_increments=cls.pack_increments(incs),
            label=d.get("label", "experiment"),
        )

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(canon).hexdigest()[:12]


@dataclass
class RunResult:
    mode: HugePageMode
    records: dict[str, RegionRecord]
    region_metrics: dict[str, DerivedMetrics]
    verdict: UsageVerdict
    elapsed_s: float
    checksum: float | None = None


@dataclass
class ComparisonReport:
    label: str
    config: dict
    provenance: dict
    runs: dict[str, RunResult]  # "baseline" / "treatment"
    ratio_rows: dict[str, list[RatioRow]]
    warnings: list[str] = field(default_factory=list)


def _median_metrics(per_rep: list[DerivedMetrics]) -> DerivedMetrics:
    def med(values):
        present = [v for v in values if v is not None]
        return statistics.median(present) if present else None

    return DerivedMetrics(
        hw_cycles=med([m.hw_cycles for m in per_rep]),
        seconds=med([m.seconds for m in per_rep]),
        sve_per_cycle=med([m.sve_per_cycle for m in per_rep]),
        bandwidth_bytes_per_s=med([m.bandwidth_bytes_per_s for m in per_rep]),
        dtlb_misses_per_s=med([m.dtlb_misses_per_s for m in per_rep]),
    )


def _make_backend(config: ExperimentConfig, role: str):
    if config.backend == "simulated":
        return SimulatedBackend(config.increments_for(role))
    state = RealOsBackend.probe(config.events)
    bad = {EVENT_NAMES[ev]: msg for ev, msg in state.items() if msg != "ok"}
    if bad:
        raise CounterUnavailable(f"events not programmable: {bad}")
    return RealOsBackend()


def _run_one_mode(config: ExperimentConfig, role: str, fs) -> RunResult:
    mode = config.baseline if role == "baseline" else config.treatment
    plan = plan_launch(mode)
    backend = _make_backend(config, role)
    simulated = config.backend == "simulated"

    def now_s() -> float:
        return backend.now_ns() / 1e9 if simulated else time.perf_counter()

    monitor = MeminfoMonitor(fs, config.monitor_cadence_s)
    before = None
    try:
        before = monitor.poll_once()
    except (OSError, ValueError):
        pass
    threaded = before is not None and not isinstance(fs, FixtureFs)
    if threaded:
        monitor.start()

    during = []
    rep_records: list[RegionRecord] = []
    rep_elapsed: list[float] = []
    checksum = None
    workload = config.workload
    try:
        for _ in range(config.repetitions):
            if workload.kind == EXTERNAL:
                record, elapsed, rc = _run_external_rep(
                    workload, plan, backend, config.events, now_s, mode)
                if rc != 0:
                    raise WorkloadFailed(mode, rc)
            else:
                record, elapsed, checksum = _run_kernel_rep(
                    workload, plan, backend, config.events, now_s)
            rep_records.append(record)
            rep_elapsed.append(elapsed)
            if before is not None and not threaded:
                try:
                    during.append(monitor.poll_once())
                except (OSError, ValueError):
                    pass
    finally:
        if threaded:
            during.extend(monitor.stop())
            try:
                during.append(monitor.poll_once())
            except (OSError, ValueError):
                pass

    if before is None:
        verdict = UsageVerdict.indeterminate("meminfo unavailable")
    else:
        verdict = detect_usage(before, during or [before])

    per_rep_metrics = [derive(r, config.cpu) for r in rep_records]
    region = workload.region_name
    return RunResult(
        mode=mode,
        records=aggregate(rep_records),
        region_metrics={region: _median_metrics(per_rep_metrics)},
        verdict=verdict,
        elapsed_s=statistics.median(rep_elapsed),
        checksum=checksum,
    )


def _run_kernel_rep(workload, plan, backend, events, now_s):
    # In-process kernels ignore the launch plan's env/wrapper: the plan
    # applies to spawned commands, while this process's mapping policy is
    # whatever the host gave us. The plan still gets recorded in the config.
    pattern = WORKLOAD_PATTERNS[workload.kind]
    with open_session(backend, events) as session:
        collector = RegionCollector(session)
        t0 = now_s()
        collector.region_begin(workload.region_name)
        checksum = blockmesh.run_kernel(workload.layout, pattern,
                                        workload.passes, workload.fill,
                                        workload.alloc)
        record = collector.region_end(workload.region_name)
        t1 = now_s()
    return record, elapsed_timer(t0, t1), checksum


def _run_external_rep(workload, plan, backend, events, now_s, mode):
    argv = plan.command(list(workload.argv))
    env = plan.environ(dict(os.environ))
    with open_session(backend, events) as session:
        start = session.read()
        t0 = now_s()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True)
        except FileNotFoundError as exc:
            # Shell convention for command-not-found; usually the mode's
            # wrapper tool is missing, which doctor() flags in advance.
            raise WorkloadFailed(mode, 127) from exc
        t1 = now_s()
        stop = session.read()
    delta = {ev: stop.values[ev] - start.values[ev] for ev in events}
    record = RegionRecord("main", 1, delta)
    return record, elapsed_timer(t0, t1), proc.returncode


def run_experiment(config: ExperimentConfig, fs=None,
                   out_dir: str | Path | None = None) -> ComparisonReport:
    """Run baseline and treatment, reduce to ratio rows, optionally persist.

    On a treatment workload failure the baseline results are preserved on
    the raised WorkloadFailed as a partial report.
    """
    fs = fs if fs is not None else RealFs()
    runs: dict[str, RunResult] = {}
    for role in ("baseline", "treatment"):
        try:
            runs[role] = _run_one_mode(config, role, fs)
        except WorkloadFailed as exc:
            exc.partial = _assemble(config, runs, partial=True)
            if out_dir is not None and exc.partial is not None:
                save_report(exc.partial, out_dir)
            raise

    report = _assemble(config, runs)
    if out_dir is not None:
        save_report(report, out_dir)
    return report


def _is_hp_mode(mode: HugePageMode) -> bool:
    return mode not in (HugePageMode.Off, HugePageMode.FujitsuNone)


def _assemble(config: ExperimentConfig, runs: dict[str, RunResult],
              partial: bool = False) -> ComparisonReport:
    warnings = []
    ratio_rows: dict[str, list[RatioRow]] = {}
    if "baseline" in runs and "treatment" in runs:
        base, treat = runs["baseline"], runs["treatment"]
        for region in sorted(set(base.region_metrics) & set(treat.region_metrics)):
            ratio_rows[region] = ratios(treat.region_metrics[region],
                                        base.region_metrics[region],
                                        timers=(treat.elapsed_s, base.elapsed_s))
    for role, run in runs.items():
        expect_hp = _is_hp_mode(run.mode)
        if expect_hp and run.verdict.state != "active":
            warnings.append(f"{role} mode {run.mode.value!r} shows no huge-page "
                            f"evidence (verdict: {run.verdict.state})")
        if not expect_hp and run.verdict.state == "active":
            warnings.append(f"{role} mode {run.mode.value!r} unexpectedly shows "
                            f"huge-page evidence")
    if partial:
        warnings.append("partial report: a workload failed before completion")

    provenance = {
        "config_hash": config.config_hash(),
        "host": f"{platform.node()}/{platform.machine()}",
        "backend": config.backend,
        "created_at": (None if config.backend == "simulated"
                       else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
    }
    return ComparisonReport(
        label=config.label,
        config=config.to_dict(),
        provenance=provenance,
        runs=runs,
        ratio_rows=ratio_rows,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _verdict_to_dict(v: UsageVerdict) -> dict:
    return {"state": v.state,
            "evidence": [[name, delta] for name, delta in v.evidence],
            "reason": v.reason}


def _run_to_dict(run: RunResult) -> dict:
    regions = {}
    for name, rec in run.records.items():
        regions[name] = {
            "region_count": rec.region_count,
            "totals": {EVENT_NAMES[ev]: int(v) for ev, v in rec.totals.items()},
            "metrics": (asdict(run.region_metrics[name])
                        if name in run.region_metrics else None),
        }
    return {"mode": run.mode.value, "elapsed_s": run.elapsed_s,
            "checksum": run.checksum, "verdict": _verdict_to_dict(run.verdict),
            "regions": regions}


def report_to_dict(report: ComparisonReport) -> dict:
    return {
        "label": report.label,
        "config": report.config,
        "provenance": report.provenance,
        "runs": {role: _run_to_dict(run) for role, run in report.runs.items()},
        "ratios": {
            region: [{"measure": row.measure, "with_hp": row.with_hp,
                      "without_hp": row.without_hp, "ratio": row.ratio}
                     for row in rows]
            for region, rows in report.ratio_rows.items()},
        "warnings": report.warnings,
    }


def report_to_json(report: ComparisonReport | dict) -> str:
    d = report if isinstance(report, dict) else report_to_dict(report)
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def save_report(report: ComparisonReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report-{report.provenance['config_hash']}.json"
    path.write_text(report_to_json(report))
    return path


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Rendering entry points (table / csv / chart) over the JSON dict form
# ---------------------------------------------------------------------------

def _as_dict(report: ComparisonReport | dict) -> dict:
    return report if isinstance(report, dict) else report_to_dict(report)


def _cells_from_run(run: dict, region: str) -> dict[str, float | None]:
    info = run.get("regions", {}).get(region)
    if not info or not info.get("metrics"):
        return {}
    cells = metrics_cells(DerivedMetrics(**info["metrics"]))
    cells[LABEL_TIMER] = run.get("elapsed_s")
    return cells


def report_regions(report: ComparisonReport | dict) -> list[str]:
    d = _as_dict(report)
    names = set()
    for run in d.get("runs", {}).values():
        names.update(run.get("regions", {}))
    return sorted(names)


def render_table(report: ComparisonReport | dict) -> str:
    """Without/With table per region, three significant figures."""
    d = _as_dict(report)
    base = d.get("runs", {}).get("baseline", {})
    treat = d.get("runs", {}).get("treatment", {})
    blocks = []
    for region in report_regions(d):
        blocks.append(render.metrics_table(
            _cells_from_run(base, region), _cells_from_run(treat, region), region))
    return "\n".join(blocks)


def render_csv(report: ComparisonReport | dict) -> str:
    """Full-precision machine-readable rows mirroring the table."""
    d = _as_dict(report)
    rows_by_region = {}
    for region, rows in d.get("ratios", {}).items():
        rows_by_region[region] = [
            RatioRow(r["measure"], r["with_hp"], r["without_hp"], r["ratio"])
            for r in rows]
    return render.ratio_rows_csv(rows_by_region)


def render_ratio_chart(reports: list[ComparisonReport | dict],
                       region: str | None = None) -> tuple[str, str]:
    """SVG chart plus companion CSV for one region across several reports.

    Returns (svg_text, csv_text); the two carry identical ratio strings.
    """
    if not reports:
        raise ValueError("need at least one report")
    cases = []
    ratios_map: dict[tuple[str, str], float | None] = {}
    labels_present: list[str] = []
    for rep in reports:
        d = _as_dict(rep)
        case = d.get("label", "case")
        cases.append(case)
        regions = sorted(d.get("ratios", {}))
        if not regions:
            continue
        use = region if region is not None else regions[0]
        for row in d["ratios"].get(use, []):
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
        counter_state = {EVENT_NAMES[ev]: msg for ev, msg in probe().items()}
    except Exception as exc:  # probe itself may be impossible off-Linux
        counter_state = {"probe": f"failed: {exc}"}
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

import csv
import io
import json
import re
import sys
import time
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import pytest

from pagescope.blockmesh import UnkLayout
from pagescope import counterhub
from pagescope.counterhub import (ALL_EVENTS, CounterUnavailable, EventId,
                                  SimulatedBackend, open_session)
from pagescope.hugepagectl import (
    MEMINFO_PATH,
    PERF_PARANOID_PATH,
    THP_ENABLED_PATH,
    FixtureFs,
    HugePageMode,
    MeminfoMonitor,
    ThpMode,
    UsageVerdict,
    plan_launch,
)
from pagescope.metrics import (LABEL_BANDWIDTH, LABEL_DTLB, LABEL_TIMER, CpuSpec,
                               DerivedMetrics, RatioRow)
from pagescope import report as report_module
from pagescope.report import (
    ExperimentConfig,
    WorkloadFailed,
    WorkloadSpec,
    _run_rep,
    doctor,
    render_csv,
    render_ratio_chart,
    render_table,
    report_to_json,
    run_dict,
    run_experiment,
    load_report,
    save_report,
)

from conftest import meminfo_text, reference_report

BASE_INC = {
    EventId.CpuCycles: 1_800_000,
    EventId.CacheMisses: 10_000,
    EventId.DtlbLoadMisses: 21_300,
    EventId.SveInstRetired: 900_000,
    EventId.StalledCyclesBackend: 700_000,
    EventId.StalledCyclesFrontend: 90_000,
}

TINY = UnkLayout.simple(2, 4, 4, 2, 2)


def sim_config(base_inc, treat_inc, label="exp", repetitions=1,
               treatment=HugePageMode.Transparent, baseline=HugePageMode.Off):
    return ExperimentConfig(
        workload=WorkloadSpec(kind="zone-sweep", layout=TINY),
        baseline=baseline,
        treatment=treatment,
        repetitions=repetitions,
        backend="simulated",
        simulated_increments={"baseline": base_inc, "treatment": treat_inc},
        label=label,
    )


def zero_fs():
    return FixtureFs({MEMINFO_PATH: meminfo_text()})


def _rows(report, region="zone-sweep"):
    return {row["measure"]: RatioRow(**row) for row in report["ratios"][region]}


def test_identity_experiment_all_ratios_one():
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=zero_fs())
    rows = _rows(report)
    assert len(rows) == 6
    assert all(row.ratio == 1.0 for row in rows.values())
    assert report["runs"]["baseline"]["verdict"]["state"] == "inactive"
    assert report["runs"]["treatment"]["verdict"]["state"] == "inactive"


def test_proportional_dtlb_increments_reproduce_reference_ratio():
    treat = dict(BASE_INC)
    treat[EventId.DtlbLoadMisses] = round(BASE_INC[EventId.DtlbLoadMisses] / 21.3)
    report = run_experiment(sim_config(BASE_INC, treat), fs=zero_fs())
    assert _rows(report)[LABEL_DTLB].ratio == pytest.approx(0.047, abs=0.001)


def test_repetitions_aggregate_by_median(monkeypatch):
    backends = []

    class CountingBackend(report_module.SimulatedBackend):
        def __init__(self, increments):
            super().__init__(increments)
            self.reads = 0
            backends.append(self)

        def read(self, events):
            self.reads += 1
            return super().read(events)

    monkeypatch.setattr(report_module, "SimulatedBackend", CountingBackend)
    config = sim_config(BASE_INC, BASE_INC, repetitions=3)
    report = run_experiment(config, fs=zero_fs())
    # Each repetition reads its role's session once before and once after.
    assert [b.reads for b in backends] == [2 * 3, 2 * 3]
    for role in ("baseline", "treatment"):
        region = report["runs"][role]["regions"]["zone-sweep"]
        assert region["region_count"] == 3
        # The region's totals sum its repetitions' deltas.
        assert region["totals"] == {ev.value: 3 * inc
                                    for ev, inc in BASE_INC.items()}
        # Median of identical simulated reps equals the single-rep value.
        assert region["metrics"]["hw_cycles"] == BASE_INC[EventId.CpuCycles]


def test_median_of_two_huge_measures_is_finite():
    def reps(*values):
        return [DerivedMetrics(v, v, None, v, v) for v in values]

    median = report_module._median_metrics(reps(1.7e308, 1.5e308))
    assert median == DerivedMetrics(1.6e308, 1.6e308, None, 1.6e308, 1.6e308)
    # Where a + b is finite, the median is statistics.median's.
    assert report_module._median_metrics(reps(0.1, 0.2)).seconds == (0.1 + 0.2) / 2
    assert report_module._median_metrics(reps(3.0, 1e308, 2.0)).seconds == 3.0


def test_treatment_meminfo_evidence_yields_active_verdict():
    # Replay: baseline sees zeros twice, treatment sees hugetlb grow.
    fs = FixtureFs({MEMINFO_PATH: [
        meminfo_text(), meminfo_text(),
        meminfo_text(), meminfo_text(total=6, surp=6, hugetlb_kb=12288)]})
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=fs)
    assert report["runs"]["baseline"]["verdict"]["state"] == "inactive"
    assert report["runs"]["treatment"]["verdict"]["state"] == "active"
    assert not any("treatment" in w for w in report["warnings"])


def test_missing_hp_evidence_is_flagged_not_fatal():
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=zero_fs())
    assert any("no huge-page evidence" in w for w in report["warnings"])


@pytest.mark.parametrize("active", [True, False], ids=["active", "inactive"])
@pytest.mark.parametrize("mode, asks_for_huge", [
    (HugePageMode.Off, False),
    (HugePageMode.Transparent, True),
    (HugePageMode.PreloadHugetlbfs, True),
    (HugePageMode.FujitsuHugetlbfs, True),
    (HugePageMode.FujitsuThp, True),
    (HugePageMode.FujitsuNone, False),
], ids=lambda v: v.value if isinstance(v, HugePageMode) else None)
def test_each_mode_warns_when_its_verdict_contradicts_it(mode, asks_for_huge, active):
    # The baseline asks for none and sees none, so it never warns; the
    # treatment's before-sample is bare and its one later sample shows
    # hugetlb growth only when `active`.
    baseline = HugePageMode.FujitsuNone if mode is HugePageMode.Off else HugePageMode.Off
    during = meminfo_text(total=6, surp=6, hugetlb_kb=12288) if active else meminfo_text()
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text()] * 3 + [during]})
    report = run_experiment(sim_config(BASE_INC, BASE_INC, treatment=mode,
                                       baseline=baseline), fs=fs)
    assert report["runs"]["treatment"]["verdict"]["state"] == (
        "active" if active else "inactive")
    if asks_for_huge == active:
        expected = []
    elif active:
        expected = [f"treatment mode {mode.value!r} unexpectedly shows "
                    f"huge-page evidence"]
    else:
        expected = [f"treatment mode {mode.value!r} shows no huge-page "
                    f"evidence (verdict: inactive)"]
    assert report["warnings"] == expected


def test_only_off_and_fj_none_ask_for_no_huge_pages():
    assert {m for m in HugePageMode if not plan_launch(m).huge} == {
        HugePageMode.Off, HugePageMode.FujitsuNone}


def test_external_workload_roundtrip():
    # Env-only treatment plan: no wrapper binary needed on the test host.
    config = ExperimentConfig(
        workload=WorkloadSpec(kind="external", argv=("true",)),
        treatment=HugePageMode.PreloadHugetlbfs,
        backend="simulated",
        simulated_increments={"baseline": BASE_INC, "treatment": BASE_INC},
        label="ext")
    report = run_experiment(config, fs=zero_fs())
    assert "main" in report["runs"]["baseline"]["regions"]
    assert _rows(report, region="main")[LABEL_DTLB].ratio == 1.0
    # Both kinds of workload are timed inside the same bracket, so the
    # neutral simulated table has a timer ratio of 1 here too.
    assert _rows(report, region="main")[LABEL_TIMER].ratio == 1.0


def test_external_command_is_sampled_while_it_runs():
    # The baseline reads meminfo before it starts, every 0.05 s while the
    # child sleeps and once after it exits. Only the third read differs,
    # and only a second sample taken while the child runs reaches it.
    zero, anon = meminfo_text(), meminfo_text(anon_kb=4096)
    fs = FixtureFs({MEMINFO_PATH: [zero, zero, anon, zero]})
    config = ExperimentConfig(
        workload=WorkloadSpec(kind="external", argv=(
            sys.executable, "-c", "import time; time.sleep(0.5)")),
        treatment=HugePageMode.PreloadHugetlbfs,
        monitor_cadence_s=0.05,
        backend="simulated",
        simulated_increments={"baseline": BASE_INC, "treatment": BASE_INC},
        label="sampled")
    report = run_experiment(config, fs=fs)
    verdict = report["runs"]["baseline"]["verdict"]
    assert verdict["state"] == "active"
    assert verdict["evidence"] == [["anon_huge_kb", 4096]]


def test_interrupted_wait_kills_the_command():
    # A sample that raises leaves the wait loop; the child is killed, so
    # the repetition ends at once instead of after the child's 30 s.
    def interrupt():
        raise RuntimeError("interrupted")

    workload = WorkloadSpec(kind="external", argv=(
        sys.executable, "-c", "import time; time.sleep(30)"))
    session = open_session(SimulatedBackend(BASE_INC), ALL_EVENTS)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="interrupted"):
        _run_rep(workload, HugePageMode.Off, session, time.monotonic,
                 interrupt, 0.05)
    assert time.monotonic() - start < 10


def test_a_command_that_exits_before_its_first_poll_is_sampled(monkeypatch):
    # Every poll finds the child exited, as when a fast command ends
    # before the wait begins: it still gets its one sample after exit.
    import subprocess
    monkeypatch.setattr(subprocess.Popen, "poll", subprocess.Popen.wait)
    samples = []
    session = open_session(SimulatedBackend(BASE_INC), ALL_EVENTS)
    _run_rep(WorkloadSpec(kind="external", argv=("true",)), HugePageMode.Off,
             session, time.perf_counter, lambda: samples.append(1), 1.0)
    assert samples == [1]


def test_command_exit_ends_the_wait_at_once():
    # The wait on the child's pidfd returns when it exits, not at the next
    # poll of a sleep loop, so a 0.3 s command times close to 0.3 s even
    # at a 1 s cadence.
    workload = WorkloadSpec(kind="external", argv=("sleep", "0.3"))
    session = open_session(SimulatedBackend(BASE_INC), ALL_EVENTS)
    elapsed = sorted(_run_rep(workload, HugePageMode.Off, session,
                              time.perf_counter, lambda: None, 1.0)[1]
                     for _ in range(3))
    assert elapsed[1] < 0.3 + 0.008, elapsed


def test_a_fast_cadence_keeps_two_dicts_of_samples():
    # At a 1 us cadence a 0.3 s command is sampled hundreds of times; the
    # monitor keeps each field's peak and trough, not every sample.
    monitor = MeminfoMonitor(zero_fs())
    monitor.sample()
    session = open_session(SimulatedBackend(BASE_INC), ALL_EVENTS)
    _run_rep(WorkloadSpec(kind="external", argv=("sleep", "0.3")), HugePageMode.Off,
             session, time.perf_counter, monitor.sample, 1e-6)
    assert monitor.samples > 100
    assert len(monitor.during) == 2


def test_missing_wrapper_tool_maps_to_workload_failure():
    config = ExperimentConfig(
        workload=WorkloadSpec(kind="external", argv=("true",)),
        treatment=HugePageMode.Transparent,  # wants the hugectl wrapper
        backend="simulated",
        simulated_increments={"baseline": BASE_INC, "treatment": BASE_INC},
        label="no-wrapper")
    import shutil
    if shutil.which("hugectl"):
        pytest.skip("hugectl present on this host")
    with pytest.raises(WorkloadFailed) as err:
        run_experiment(config, fs=zero_fs())
    assert err.value.returncode == 127
    assert "baseline" in err.value.partial["runs"]


def test_treatment_failure_preserves_baseline(tmp_path):
    # Exits 1 only when the treatment env var is present.
    config = ExperimentConfig(
        workload=WorkloadSpec(
            kind="external",
            argv=("sh", "-c", 'test -z "$XOS_MMM_L_HPAGE_TYPE"')),
        treatment=HugePageMode.FujitsuHugetlbfs,
        backend="simulated",
        simulated_increments={"baseline": BASE_INC, "treatment": BASE_INC},
        label="failing")
    with pytest.raises(WorkloadFailed) as err:
        run_experiment(config, fs=zero_fs(), out_dir=tmp_path)
    partial = err.value.partial
    assert err.value.mode == HugePageMode.FujitsuHugetlbfs
    assert "baseline" in partial["runs"] and "treatment" not in partial["runs"]
    assert partial["ratios"] == {}
    assert any("partial" in w for w in partial["warnings"])
    assert load_report(tmp_path / f"report-{config.config_hash()}.json") == partial


def test_simulated_reports_byte_identical(tmp_path):
    config = sim_config(BASE_INC, BASE_INC, label="det")
    blobs = []
    for _ in range(3):
        report = run_experiment(config, fs=zero_fs())
        blobs.append(report_to_json(report).encode())
    assert blobs[0] == blobs[1] == blobs[2]


def test_report_persistence_keyed_by_config_hash(tmp_path):
    config = sim_config(BASE_INC, BASE_INC, label="persist")
    report = run_experiment(config, fs=zero_fs(), out_dir=tmp_path)
    path = tmp_path / f"report-{config.config_hash()}.json"
    assert path.exists()
    assert load_report(path)["label"] == "persist"
    # Re-running the same config overwrites the same key.
    run_experiment(config, fs=zero_fs(), out_dir=tmp_path)
    assert len(list(tmp_path.glob("report-*.json"))) == 1


def test_saved_report_is_the_returned_report(tmp_path):
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=zero_fs())
    path = save_report(report, tmp_path)
    loaded = load_report(path)
    assert report_to_json(loaded) == path.read_text()
    assert loaded == report


def test_unreadable_meminfo_sample_is_reported():
    # Baseline: good before, a malformed document after repetition 1.
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(), "AnonHugePages: x kB\n",
                                   meminfo_text()]})
    report = run_experiment(sim_config(BASE_INC, BASE_INC, repetitions=2), fs=fs)
    drops = [w for w in report["warnings"] if "meminfo samples" in w]
    assert drops == ["baseline: 1 of 3 meminfo samples could not be read"]
    assert report["runs"]["baseline"]["verdict"]["state"] == "inactive"

    # No meminfo at all: each role's one sample fails, and no verdict is given.
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=FixtureFs({}))
    for role in ("baseline", "treatment"):
        verdict = report["runs"][role]["verdict"]
        assert (verdict["state"], verdict["reason"]) == ("indeterminate",
                                                         "meminfo unavailable")
        assert f"{role}: 1 of 1 meminfo samples could not be read" in report["warnings"]


def test_no_meminfo_sample_during_the_run_gives_no_verdict():
    # The baseline's before-sample reads, but its one sample during the run
    # does not: nothing shows whether huge pages were used.
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(), "AnonHugePages: x kB\n"]})
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=fs)
    verdict = report["runs"]["baseline"]["verdict"]
    assert (verdict["state"], verdict["evidence"], verdict["reason"]) == (
        "indeterminate", [], "no meminfo sample during the run")
    assert "baseline: 1 of 2 meminfo samples could not be read" in report["warnings"]


def test_ratio_rows_match_metrics_module():
    from pagescope.metrics import ratios
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=zero_fs())
    base = report["runs"]["baseline"]
    treat = report["runs"]["treatment"]
    recomputed = ratios(DerivedMetrics(**treat["regions"]["zone-sweep"]["metrics"]),
                        DerivedMetrics(**base["regions"]["zone-sweep"]["metrics"]),
                        timers=(treat["elapsed_s"], base["elapsed_s"]))
    assert recomputed == [RatioRow(**row) for row in report["ratios"]["zone-sweep"]]


def test_config_round_trip_and_hash_stability():
    config = sim_config(BASE_INC, BASE_INC, label="round")
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config
    assert again.config_hash() == config.config_hash()
    other = sim_config(BASE_INC, BASE_INC, label="different")
    assert other.config_hash() != config.config_hash()
    # Each key is a field name: one name per setting.
    d = config.to_dict()
    assert list(d) == [f.name for f in fields(ExperimentConfig)]
    assert list(d["workload"]) == [f.name for f in fields(WorkloadSpec)]
    assert list(d["cpu"]) == [f.name for f in fields(CpuSpec)]


def test_readme_config_names_every_key_at_its_default():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    config = ExperimentConfig.from_dict(block)
    assert config.to_dict() == block
    workload = {key: block["workload"][key] for key in ("kind", "layout")}
    assert config == ExperimentConfig.from_dict({"workload": workload})


TINY_WORKLOAD = {"kind": "zone-sweep", "layout": TINY.to_dict()}
CYCLES_ONLY = {"PERF_COUNT_HW_CPU_CYCLES": 900}


@pytest.mark.parametrize("d, message", [
    ({"workload": {}}, "missing or unknown key 'kind'"),
    ({"workload": {"kind": "external"}}, "external workload needs an argv"),
    ({"workload": {"kind": "sum2d"}}, "workload 'sum2d' needs a layout"),
    ({"workload": {"kind": "bogus"}}, "unknown workload kind 'bogus'"),
    ({"workload": TINY_WORKLOAD, "backend": "gpu"}, "unknown backend 'gpu'"),
    ({"workload": TINY_WORKLOAD, "simulated_increments": {"baseline": CYCLES_ONLY}},
     "must cover both the baseline and treatment roles"),
    ({"workload": TINY_WORKLOAD, "cpu": []}, "wrong shape: .*list"),
    ({"workload": TINY_WORKLOAD, "strict": True}, "unknown top-level keys: strict"),
], ids=["no-kind", "external-no-argv", "builtin-no-layout", "unknown-kind",
        "unknown-backend", "increments-one-role", "cpu-not-object", "strict"])
def test_config_from_dict_names_the_fault(d, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(d)


def test_config_file_unknown_increment_event_is_named():
    d = sim_config(BASE_INC, BASE_INC).to_dict()
    d["simulated_increments"]["baseline"]["NOT_AN_EVENT"] = 1
    with pytest.raises(ValueError, match="^unknown event name: 'NOT_AN_EVENT'$"):
        ExperimentConfig.from_dict(d)


def test_config_rejects_equal_modes():
    with pytest.raises(ValueError):
        ExperimentConfig(workload=WorkloadSpec(kind="zone-sweep", layout=TINY),
                         baseline=HugePageMode.Off, treatment=HugePageMode.Off)


def test_config_rejects_an_unknown_increment_role():
    # Refused wherever a config is built, not only by from_dict: the
    # misspelled role would otherwise be hashed into the report's name.
    with pytest.raises(ValueError, match="unknown simulated_increments keys: treatmnet"):
        ExperimentConfig(
            workload=WorkloadSpec(kind="zone-sweep", layout=TINY),
            simulated_increments={"baseline": BASE_INC, "treatment": BASE_INC,
                                  "treatmnet": BASE_INC})


def test_real_backend_unavailable_raises(monkeypatch):
    def deny(attr):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(counterhub, "_perf_event_open", deny)
    config = ExperimentConfig(
        workload=WorkloadSpec(kind="zone-sweep", layout=TINY), backend="real")
    with pytest.raises(CounterUnavailable):
        run_experiment(config, fs=zero_fs())


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_table_reference_cells(eos_case):
    table = render_table(reference_report("EOS"))
    lines = {line.split("  ")[0].strip(): line for line in table.splitlines()}
    for label, without, with_ in zip(
            ["Hardware (cycles)", "Time (s)", "SVE Instructions/cycle",
             "Memory (Gbytes/s)", "DTLB misses (1/s)", "Elapsed Timer (s)"],
            eos_case["cells_without"], eos_case["cells_with"]):
        row = lines[label]
        assert without in row and with_ in row
    assert "Without HPs" in table and "With HPs" in table


def test_render_table_unavailable_measure():
    metrics = DerivedMetrics(1e9, 1e9 / 1.8e9, None, None, None)
    run = run_dict(HugePageMode.Off, "r", [{EventId.CpuCycles: 10 ** 9}], metrics,
                   UsageVerdict("inactive"), 1.0)
    report = {"label": "sparse", "config": {}, "provenance": {"config_hash": "x"},
              "runs": {"baseline": run, "treatment": run}, "ratios": {},
              "warnings": []}
    table = render_table(report)
    bandwidth_row = [l for l in table.splitlines()
                     if l.startswith(LABEL_BANDWIDTH)][0]
    assert bandwidth_row.count("n/a") == 2


def test_render_table_labels_an_unnamed_region():
    metrics = DerivedMetrics(1e9, 1e9 / 1.8e9, None, None, None)
    run = run_dict(HugePageMode.Off, "", [{EventId.CpuCycles: 10 ** 9}], metrics,
                   UsageVerdict("inactive"), 1.0)
    report = {"runs": {"baseline": run, "treatment": run}}
    assert render_table(report).splitlines()[0] == "Region: (unnamed region)"


def test_render_csv_full_precision():
    report = reference_report("EOS")
    csv = render_csv(report)
    assert csv.splitlines()[0] == "label,region,measure,without_hp,with_hp,ratio"
    dtlb_line = [l for l in csv.splitlines() if LABEL_DTLB in l][0]
    ratio = float(dtlb_line.rsplit(",", 1)[1])
    assert ratio == pytest.approx(0.047, abs=0.001)


def test_render_csv_quotes_the_region():
    # A loaded report's region key is input; a comma must not add a field.
    report = reference_report("EOS")
    report["ratios"] = {"a,b": report["ratios"]["EOS"]}
    rows = list(csv.reader(io.StringIO(render_csv(report))))
    assert len(rows) > 1 and all(len(row) == 6 for row in rows)
    assert {row[1] for row in rows[1:]} == {"a,b"}


def test_csv_writers_quote_a_measure_holding_quotes_and_a_comma():
    # A measure name is report input; a quote or a comma must not add a field.
    measure = 'Hardware "cycles", raw'
    report = reference_report("EOS")
    report["ratios"]["EOS"][0]["measure"] = measure
    rows = list(csv.reader(io.StringIO(render_csv(report))))
    assert len(rows) > 1 and all(len(row) == 6 for row in rows)
    assert rows[1][2] == measure
    _, chart_csv = render_ratio_chart([report])
    rows = list(csv.reader(io.StringIO(chart_csv)))
    assert len(rows) > 1 and all(len(row) == 3 for row in rows)
    assert measure in {row[0] for row in rows}


def _svg_ratios(svg):
    return {(m.group(1), m.group(2)): m.group(3)
            for m in re.finditer(
                r'data-measure="([^"]+)" data-case="([^"]+)" '
                r'data-ratio="([^"]+)"', svg)}


def _csv_ratios(csv):
    out = {}
    for line in csv.splitlines()[1:]:
        measure, case, value = re.match(r'"([^"]+)",([^,]+),(.*)', line).groups()
        out[(measure, case)] = value
    return out


def test_chart_and_csv_agree_bitwise():
    svg, csv = render_ratio_chart([reference_report("EOS"),
                                   reference_report("3-d Hydro")])
    svg_vals = _svg_ratios(svg)
    csv_vals = _csv_ratios(csv)
    assert svg_vals  # chart has bars
    for key, value in svg_vals.items():
        assert csv_vals[key] == value
    dtlb_eos = float(svg_vals[(LABEL_DTLB, "EOS")])
    dtlb_hydro = float(svg_vals[(LABEL_DTLB, "3-d Hydro")])
    assert dtlb_eos == pytest.approx(0.047, abs=0.001)
    assert dtlb_hydro == pytest.approx(0.324, abs=0.001)


def test_chart_escapes_the_report_label():
    # A label is report input (--label, a config file, a hand-edited report).
    label = 'A&B <x>, "q"'
    svg, chart_csv = render_ratio_chart([{**reference_report("EOS"), "label": label}])
    root = ElementTree.fromstring(svg)  # well-formed XML
    svg_ns = "{http://www.w3.org/2000/svg}"
    assert {rect.get("data-case") for rect in root.iter(f"{svg_ns}rect")
            if rect.get("data-case") is not None} == {label}
    assert label in [text.text for text in root.iter(f"{svg_ns}text")]
    rows = list(csv.reader(io.StringIO(chart_csv)))
    assert len(rows) > 1 and all(len(row) == 3 for row in rows)
    assert {row[1] for row in rows[1:]} == {label}


def test_chart_identity_bars_at_one():
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=zero_fs())
    svg, csv = render_ratio_chart([report])
    values = set(_svg_ratios(svg).values())
    assert values == {"1"}


def test_chart_degenerate_empty_report():
    empty = {"label": "empty", "config": {}, "provenance": {}, "runs": {},
             "ratios": {}, "warnings": []}
    svg, csv = render_ratio_chart([empty])
    assert "<svg" in svg and "stroke-dasharray" in svg  # axes + guide line
    assert _svg_ratios(svg) == {}
    assert csv.splitlines() == ["measure,case,ratio"]


def test_report_json_schema(tmp_path):
    report = run_experiment(sim_config(BASE_INC, BASE_INC), fs=zero_fs())
    data = json.loads(report_to_json(report))
    assert set(data) == {"label", "config", "provenance", "runs", "ratios",
                         "warnings"}
    base = data["runs"]["baseline"]
    assert base["regions"]["zone-sweep"]["totals"]["PERF_COUNT_HW_CPU_CYCLES"] \
        == BASE_INC[EventId.CpuCycles]
    assert data["provenance"]["created_at"] is None  # simulated runs


# ---------------------------------------------------------------------------
# Doctor
# ---------------------------------------------------------------------------

def _good_fs():
    return FixtureFs({
        THP_ENABLED_PATH: "[always] madvise never",
        MEMINFO_PATH: meminfo_text(),
        PERF_PARANOID_PATH: "1\n",
    })


def _probe_ok():
    return {ev: "ok" for ev in EventId}


def test_doctor_all_capabilities_present():
    cap = doctor(fs=_good_fs(), which=lambda tool: f"/usr/bin/{tool}",
                 probe=_probe_ok)
    assert cap["advisories"] == []
    assert cap["thp_mode"] == ThpMode.Always.value
    assert cap["meminfo_ok"]
    assert cap["paranoid"] == 1


def test_doctor_flags_disabled_thp():
    fs = _good_fs()
    fs._files[THP_ENABLED_PATH] = "always madvise [never]"
    cap = doctor(fs=fs, which=lambda t: "/usr/bin/x", probe=_probe_ok)
    assert any("transparent huge pages disabled" in a for a in cap["advisories"])


def test_doctor_flags_each_unreadable_file():
    cap = doctor(fs=FixtureFs({}), which=lambda t: "/usr/bin/x", probe=_probe_ok)
    assert (cap["thp_mode"], cap["meminfo_ok"], cap["paranoid"]) == (None, False, None)
    assert cap["advisories"] == [
        f"transparent huge page state unavailable ({THP_ENABLED_PATH})",
        "huge-page fields missing from /proc/meminfo; "
        "usage verification will be indeterminate",
        "perf_event_paranoid unreadable; counter access unknown"]


def test_doctor_flags_strict_paranoid():
    fs = _good_fs()
    fs._files[PERF_PARANOID_PATH] = "4\n"
    cap = doctor(fs=fs, which=lambda t: "/usr/bin/x", probe=_probe_ok)
    assert any("perf_event_paranoid" in a for a in cap["advisories"])
    assert any("kernel.perf_event_paranoid=1" in a for a in cap["advisories"])


def test_doctor_flags_denied_counters():
    cap = doctor(fs=_good_fs(), which=lambda t: "/usr/bin/x",
                 probe=lambda: {ev: "denied" for ev in EventId})
    assert any("not programmable" in a for a in cap["advisories"])


def test_doctor_reports_a_failed_probe_apart_from_the_events():
    def probe():
        raise OSError("no perf")

    cap = doctor(fs=_good_fs(), which=lambda t: "/usr/bin/x", probe=probe)
    assert "counter probe failed: no perf" in cap["advisories"]
    assert cap["counter_state"] == {}
    assert not any("counters not programmable" in a for a in cap["advisories"])


def test_doctor_flags_missing_tools_and_never_writes():
    # FixtureFs has no write method: a write doctor attempted would raise.
    cap = doctor(fs=_good_fs(), which=lambda tool: None, probe=_probe_ok)
    assert any("hugectl" in a for a in cap["advisories"])
    assert any("hugeadm" in a for a in cap["advisories"])


def test_doctor_render_includes_checklist():
    # What `pagescope doctor` prints.
    text = report_to_json(doctor(fs=_good_fs(), which=lambda t: "/usr/bin/x",
                                 probe=_probe_ok))
    assert "hugepagesz=2M hugepagesz=512M default_hugepagesz=2M" in text
    assert "kernel.perf_event_paranoid=1" in text
    # Selecting the THP mode is a step for an administrator, never a command.
    assert "echo madvise > /sys/kernel/mm/transparent_hugepage/enabled" in text

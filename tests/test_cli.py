import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pagescope
from pagescope import blockmesh, counterhub, hugepagectl, tlbsim
from pagescope.cli import _build_run_config, build_parser, main
from pagescope.counterhub import ALL_EVENTS, EventId
from pagescope.hugepagectl import THP_ENABLED_PATH


def test_trace_then_tlbsim_pipeline(tmp_path, capsys):
    trace_file = tmp_path / "block.trace"
    assert main(["trace", "--layout", "5,16,16,16,10", "--pattern", "block",
                 "--passes", "2", "--out", str(trace_file)]) == 0
    capsys.readouterr()

    assert main(["tlbsim", "--trace", str(trace_file), "--sizes", "4K,2M",
                 "--entries", "16"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "size_bytes,accesses,misses,distinct_pages,ratio"
    assert lines[1].startswith("4096,20,10,10,")
    assert lines[2].startswith("2097152,20,1,1,0.1")


def test_tlbsim_writes_csv_file(tmp_path, capsys):
    trace_file = tmp_path / "zone.trace"
    main(["trace", "--layout", "4,16,16,16,16", "--pattern", "zone",
          "--out", str(trace_file)])
    out_csv = tmp_path / "sweep.csv"
    assert main(["tlbsim", "--trace", str(trace_file), "--sizes", "4K,2M",
                 "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[2].startswith("2097152,")


def _sim_run_args(out_dir, label="cli-exp"):
    return ["run", "--simulate-counters", "--workload", "zone-sweep",
            "--layout", "2,4,4,2,2", "--mode-a", "off", "--mode-b", "thp",
            "--label", label, "--out", str(out_dir)]


def test_run_simulated_writes_report_and_table(tmp_path, capsys):
    assert main(_sim_run_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "Hardware (cycles)" in out
    assert "Without HPs" in out
    reports = list(tmp_path.glob("report-*.json"))
    assert len(reports) == 1
    data = json.loads(reports[0].read_text())
    assert data["label"] == "cli-exp"
    assert data["config"]["backend"] == "simulated"


def test_run_with_config_file(tmp_path, capsys):
    config = {
        "workload": {"kind": "zone-sweep",
                     "layout": {"nvar": 2, "i_lo": 1, "i_hi": 4, "j_lo": 1,
                                "j_hi": 4, "k_lo": 1, "k_hi": 2,
                                "maxblocks": 2, "elem_bytes": 8},
                     "passes": 1, "alloc": "eager", "fill": 1.0, "argv": []},
        "baseline": "off",
        "treatment": "preload",
        "backend": "simulated",
        "simulated_increments": {
            "baseline": {"PERF_COUNT_HW_CPU_CYCLES": 1000},
            "treatment": {"PERF_COUNT_HW_CPU_CYCLES": 900}},
        "label": "from-config",
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    assert report["label"] == "from-config"
    assert report["config"]["treatment"] == "preload"


def test_run_external_failure_exits_2(tmp_path, capsys):
    rc = main(["run", "--simulate-counters", "--mode-a", "off",
               "--mode-b", "preload", "--label", "boom", "--",
               "sh", "-c", "exit 9"])
    assert rc == 2
    assert "status 9" in capsys.readouterr().err


def test_run_of_a_command_that_cannot_be_executed_exits_2(tmp_path, capsys):
    script = tmp_path / "noexec.sh"
    script.write_text("#!/bin/sh\n")
    script.chmod(0o644)
    rc = main(["run", "--simulate-counters", "--out", str(tmp_path / "out"), "--",
               str(script)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: workload under mode 'off' exited with status 126\n" in err
    assert len(list((tmp_path / "out").glob("report-*.json"))) == 1


def test_run_external_failure_shows_the_commands_stderr(capfd):
    # The child's standard error reaches the terminal, so the one error
    # line is not all that explains the failure.
    rc = main(["run", "--simulate-counters", "--",
               "sh", "-c", "echo why it failed >&2; exit 4"])
    assert rc == 2
    err = capfd.readouterr().err
    assert "why it failed\n" in err
    assert "error: workload under mode 'off' exited with status 4\n" in err


def test_run_failure_shows_the_partial_reports_warnings(tmp_path, capsys):
    # The treatment fails; the partial report is shown as `run` shows a
    # whole one: table on stdout, warnings and where it went on stderr.
    rc = main(["run", "--simulate-counters", "--mode-b", "fj-thp",
               "--out", str(tmp_path), "--",
               "sh", "-c", 'test -z "$XOS_MMM_L_HPAGE_TYPE"'])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out.startswith("Region: main\n")
    assert err.splitlines() == [
        "error: workload under mode 'fj-thp' exited with status 1",
        "warning: partial report: a workload failed before completion",
        f"report written under {tmp_path}"]
    saved = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    assert saved["warnings"] == ["partial report: a workload failed before completion"]


def test_run_refuses_a_bad_out_before_running_anything(tmp_path, capsys):
    # A results directory that cannot be made fails before the baseline
    # starts, not after both roles have run and their report is lost.
    out, marker = tmp_path / "outfile", tmp_path / "marker"
    out.touch()
    rc = main(["run", "--simulate-counters", "--mode-b", "fj-thp",
               "--out", str(out), "--", "sh", "-c", f"touch '{marker}'"])
    assert rc == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not marker.exists()


def test_run_external_success_uses_main_region(tmp_path, capsys):
    rc = main(["run", "--simulate-counters", "--mode-a", "off",
               "--mode-b", "preload", "--out", str(tmp_path), "--",
               "true"])
    assert rc == 0
    data = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    assert "main" in data["runs"]["baseline"]["regions"]


def test_run_keeps_a_double_dash_inside_the_external_command(tmp_path, capsys):
    # Only the separator before the command is dropped; the command's own
    # "--" reaches it, and it exits 5 if it does not.
    check = "import sys; sys.exit(0 if sys.argv[1:] == ['--', 'x'] else 5)"
    rc = main(["run", "--simulate-counters", "--mode-a", "off",
               "--mode-b", "preload", "--out", str(tmp_path), "--",
               sys.executable, "-c", check, "--", "x"])
    assert rc == 0, capsys.readouterr().err
    data = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    assert data["config"]["workload"]["argv"] == [sys.executable, "-c", check,
                                                  "--", "x"]


def test_doctor_runs_and_reports(capsys):
    assert main(["doctor"]) == 0
    cap = json.loads(capsys.readouterr().out)
    assert "thp_mode" in cap
    assert cap["checklist"] == list(hugepagectl.BOOT_PARAM_CHECKLIST)


def test_doctor_prints_one_json_object_of_seven_keys(capsys):
    assert main(["doctor"]) == 0
    cap = json.loads(capsys.readouterr().out)
    assert isinstance(cap, dict)
    assert set(cap) == {"thp_mode", "meminfo_ok", "paranoid", "counter_state",
                        "tools", "advisories", "checklist"}


def test_render_formats(tmp_path, capsys):
    main(_sim_run_args(tmp_path, label="render-me"))
    capsys.readouterr()
    report_path = next(tmp_path.glob("report-*.json"))

    assert main(["render", "--report", str(report_path),
                 "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert "Elapsed Timer (s)" in table

    table_path = tmp_path / "table.txt"
    assert main(["render", "--report", str(report_path), "--format", "table",
                 "--out", str(table_path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert table_path.read_text() == table

    assert main(["render", "--report", str(report_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("label,region,measure,")

    svg_path = tmp_path / "chart.svg"
    assert main(["render", "--report", str(report_path), "--format", "svg",
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")
    assert (tmp_path / "chart.svg.csv").read_text().startswith("measure,case,")
    assert capsys.readouterr().out == f"chart -> {svg_path}, data -> {svg_path}.csv\n"

    assert main(["render", "--report", str(report_path), "--format", "svg"]) == 0
    assert capsys.readouterr().out == svg_path.read_text()


@pytest.mark.parametrize("fmt,region", [("svg", "nope"), ("csv", "zone-sweep")],
                         ids=["svg", "csv"])
def test_render_has_no_region_flag(tmp_path, capsys, fmt, region):
    # A run records one region and a chart draws each report's own, so
    # `--region` is an unknown flag in every format.
    main(_sim_run_args(tmp_path, label="render-me"))
    report_path = next(tmp_path.glob("report-*.json"))
    capsys.readouterr()
    out_path = tmp_path / "chart"
    assert main(["render", "--report", str(report_path), "--format", fmt,
                 "--region", region, "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: unrecognized arguments") and "--region" in err
    assert not list(tmp_path.glob("chart*"))


def test_render_reports_sharing_a_label_is_one_line_error(tmp_path, capsys):
    # Bars are keyed by label: the second report would draw both bars.
    paths = []
    for name in ("a", "b"):
        main(_sim_run_args(tmp_path / name, label="experiment"))
        paths += ["--report", str(next((tmp_path / name).glob("report-*.json")))]
    capsys.readouterr()
    out_path = tmp_path / "chart.svg"
    assert main(["render", *paths, "--format", "svg",
                 "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "'experiment'" in err and "--label" in err
    assert not list(tmp_path.glob("chart*"))


def test_render_csv_of_two_reports_has_one_header(tmp_path, capsys):
    paths = []
    for kind in ("zone-sweep", "block-sweep"):
        main([*_sim_run_args(tmp_path / kind, label=kind), "--workload", kind])
        paths += ["--report", str(next((tmp_path / kind).glob("report-*.json")))]
    capsys.readouterr()
    assert main(["render", *paths, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("label,region,measure,without_hp,with_hp,ratio") == 1
    assert lines[0] == "label,region,measure,without_hp,with_hp,ratio"
    assert {line.split(",")[1] for line in lines[1:]} == {"zone-sweep", "block-sweep"}


def test_render_csv_tells_two_reports_of_one_workload_apart(tmp_path, capsys):
    # Every row leads with its report's label, as the table heads each block.
    paths = []
    for label in ("zone", "zone2"):
        main(_sim_run_args(tmp_path / label, label=label))
        paths += ["--report", str(next((tmp_path / label).glob("report-*.json")))]
    capsys.readouterr()
    assert main(["render", *paths, "--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "label,region,measure,without_hp,with_hp,ratio"
    zone = [row.split(",", 1) for row in rows[:len(rows) // 2]]
    zone2 = [row.split(",", 1) for row in rows[len(rows) // 2:]]
    assert zone and {label for label, _ in zone} == {"zone"}
    assert {label for label, _ in zone2} == {"zone2"}
    # The same simulated run under two labels: only the label differs.
    assert [rest for _, rest in zone] == [rest for _, rest in zone2]
    assert len(set(rows)) == len(rows)


def test_render_table_heads_each_report_with_its_label(tmp_path, capsys):
    # Two reports of one workload: only the label line tells the blocks apart.
    paths = []
    for label in ("zone", "zone2"):
        main(_sim_run_args(tmp_path / label, label=label))
        paths += ["--report", str(next((tmp_path / label).glob("report-*.json")))]
    capsys.readouterr()
    assert main(["render", *paths, "--format", "table"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert [block.splitlines()[:2] for block in blocks] == [
        ["Report: zone", "Region: zone-sweep"],
        ["Report: zone2", "Region: zone-sweep"]]


@pytest.mark.parametrize("flags, measure", [
    (["--freq-hz", "1e308"], "bandwidth_bytes_per_s"),
    (["--freq-hz", "1e-320"], "seconds"),
    (["--line-bytes", str(2 ** 1100)], "bandwidth_bytes_per_s"),
], ids=["freq-huge", "freq-subnormal", "line-bytes-huge"])
def test_measure_beyond_a_float_is_one_line_error(tmp_path, capsys, flags, measure):
    assert main([*_sim_run_args(tmp_path / "out"), *flags]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: derived {measure} ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


# Over 16 PB of doubles: beyond the 128 TiB user address space of any host.
UNALLOCATABLE_LAYOUT = "5,16,16,16,100000000000"


@pytest.mark.parametrize("argv", [
    ["trace", "--layout", UNALLOCATABLE_LAYOUT, "--pattern", "zone"],
    ["run", "--simulate-counters", "--workload", "zone-sweep",
     "--layout", UNALLOCATABLE_LAYOUT],
], ids=["trace", "run"])
def test_unallocatable_layout_is_one_line_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot allocate") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_events_flag_limits_event_set(tmp_path, capsys):
    rc = main(["run", "--simulate-counters", "--workload", "zone-sweep",
               "--layout", "2,4,4,2,2", "--events",
               "PERF_COUNT_HW_CPU_CYCLES,DTLB-LOAD-MISSES",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    totals = data["runs"]["baseline"]["regions"]["zone-sweep"]["totals"]
    assert set(totals) == {"PERF_COUNT_HW_CPU_CYCLES", "DTLB-LOAD-MISSES"}


PLANE_8 = {"nvar": 1, "i_lo": 1, "i_hi": 8, "j_lo": 1, "j_hi": 8, "k_lo": 1,
           "k_hi": 1, "maxblocks": 1, "elem_bytes": 8}


def _increments(baseline_cycles):
    """A config whose baseline role reads `baseline_cycles` per read."""
    return {"simulated_increments": {
        "baseline": {"PERF_COUNT_HW_CPU_CYCLES": baseline_cycles},
        "treatment": {"PERF_COUNT_HW_CPU_CYCLES": 900}}}


def _config_file(content):
    """Flags naming a config file that holds `content` as JSON."""
    def make_flags(tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(content))
        return ["--config", str(path)]
    return make_flags


def _truncated_config(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text("{")
    return ["--config", str(path)]


@pytest.mark.parametrize("flags", [
    ["--n", "0"],
    ["--passes", "0"],
    ["--repetitions", "0"],
    ["--layout", "5,16"],
    ["--config", "no-such-config.json"],
    _config_file([]),
    _config_file({"workload": []}),
    _config_file({"workload": {"kind": "sum2d", "layout": {"nvar": 1}}}),
    _config_file({"simulated_increments": {"baseline": []}}),
    _config_file({"monitor_cadence_s": -1}),
    _config_file({"label": 7}),
    _config_file({"repetition": 3, "workload": {
        "kind": "sum2d", "layout": PLANE_8, "pases": 3}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8, "pases": 3}}),
    _config_file({"cpu": {"freq": 2e9}}),
    _config_file({"workload": {"kind": "sum2d", "layout": {**PLANE_8, "nvar": 2.5}}}),
    _config_file({"repetitions": True}),
    # --workload sum2d replaces the kind; the string argv is still rejected.
    _config_file({"workload": {"kind": "external", "layout": PLANE_8, "argv": "true"}}),
    _config_file({"workload": {"kind": "external", "layout": PLANE_8, "argv": ["true"]}}),
    ["--freq-hz", "nan"],
    ["--freq-hz", "inf"],
    _config_file({"cpu": {"freq_hz": "nan"}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8, "fill": None}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8, "fill": "1.5"}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8, "fill": True}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8,
                               "fill": float("nan")}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8, "fill": 10 ** 400}}),
    _config_file({"workload": {"kind": "sum2d", "layout": PLANE_8, "alloc": "lazy"}}),
    _config_file({"workload": {"kind": "block-sweep",
                               "layout": {**PLANE_8, "elem_bytes": 4}}}),
    ["--n", "8", "--layout", "1,4,4,1,1"],
    ["--events", "DTLB-LOAD-MISSES"],
    _config_file({"events": "PERF_COUNT_HW_CPU_CYCLES"}),
    _config_file({"events": ["PERF_COUNT_HW_CPU_CYCLES,DTLB-LOAD-MISSES"]}),
    _config_file({"events": ["PERF_COUNT_HW_CPU_CYCLES", ""]}),
    _config_file(_increments(-5)),
    _config_file(_increments(1.9)),
    _config_file(_increments(True)),
    _config_file(_increments(0)),
    _config_file({"simulated_increments": {
        "baseline": {"DTLB-LOAD-MISSES": 5}, "treatment": {"DTLB-LOAD-MISSES": 5}}}),
    _config_file({"cpu": {"line_bytes": 2.5}}),
    _config_file({"cpu": {"line_bytes": True}}),
    _config_file({"cpu": {"line_bytes": "256"}}),
    _config_file({"cpu": {"freq_hz": True}}),
    _config_file({"cpu": {"freq_hz": "2e9"}}),
    _config_file({"cpu": {"freq_hz": 10 ** 400}}),
    _config_file({"strict": "no", "cpu": {"line_bytes": 256}}),
    _config_file({"monitor_cadence_s": True}),
    _config_file({"monitor_cadence_s": 1e300}),
    _config_file({"monitor_cadence_s": float("inf")}),
    _config_file({"monitor_cadence_s": 1e-9}),
    _config_file({"simulated_increments": {
        "baseline": {"PERF_COUNT_HW_CPU_CYCLES": 900},
        "treatment": {"PERF_COUNT_HW_CPU_CYCLES": 900},
        "treatmnet": {"PERF_COUNT_HW_CPU_CYCLES": 900}}}),
    _truncated_config,
], ids=["n-0", "passes-0", "repetitions-0", "short-layout", "missing-config",
        "config-not-object", "config-workload-not-object",
        "config-layout-incomplete", "config-increments-not-object",
        "config-cadence-negative", "config-label-not-string",
        "config-misspelled-keys", "config-workload-unknown-key",
        "config-cpu-unknown-key", "config-layout-float",
        "config-repetitions-bool", "config-argv-not-list",
        "config-argv-with-builtin-kind", "freq-nan", "freq-inf",
        "config-freq-nan", "config-fill-null", "config-fill-string",
        "config-fill-bool", "config-fill-nan", "config-fill-huge-int",
        "config-alloc-unknown", "config-elem-bytes-4", "n-with-layout",
        "events-without-cycles", "config-events-string",
        "config-events-joined", "config-events-empty-name",
        "config-increment-negative", "config-increment-float",
        "config-increment-bool", "config-cycles-increment-zero",
        "config-cycles-increment-missing", "config-line-bytes-float",
        "config-line-bytes-bool", "config-line-bytes-string", "config-freq-bool",
        "config-freq-string", "config-freq-huge-int", "config-strict-unknown-key",
        "config-cadence-bool", "config-cadence-huge", "config-cadence-inf",
        "config-cadence-below-floor",
        "config-increments-unknown-role",
        "config-truncated-json"])
def test_bad_run_flags_are_bad_configuration(tmp_path, capsys, monkeypatch, flags):
    if callable(flags):
        flags = flags(tmp_path)
    # A bad configuration is rejected before any run starts.
    monkeypatch.setattr(blockmesh, "run_kernel",
                        lambda *args: pytest.fail("the kernel ran"))
    rc = main(["run", "--simulate-counters", "--workload", "sum2d",
               "--out", str(tmp_path)] + flags)
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad configuration") and err.count("\n") == 1
    assert not list(tmp_path.glob("report-*.json"))


@pytest.mark.parametrize("flags", [
    # The two middle values' sum overflows a float.
    ["--freq-hz", "3.6e307", "--repetitions", "2"],
    # The DTLB ratio 1.8e299 / 1.8e-291 is beyond a float's range.
    _config_file({"simulated_increments": {
        "baseline": {"PERF_COUNT_HW_CPU_CYCLES": 10 ** 300,
                     "DTLB-LOAD-MISSES": 1},
        "treatment": {"PERF_COUNT_HW_CPU_CYCLES": 1,
                      "DTLB-LOAD-MISSES": 10 ** 290}}}),
], ids=["median-of-two-huge", "ratio-beyond-float"])
def test_near_float_max_run_saves_a_report_render_reads(tmp_path, capsys, flags):
    if callable(flags):
        flags = flags(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--simulate-counters", "--workload", "zone-sweep",
                 "--layout", "1,2,2,2,2", "--out", str(out), *flags]) == 0
    [path] = out.glob("report-*.json")
    assert main(["render", "--report", str(path), "--format", "csv"]) == 0


def test_run_reads_no_events_from_the_environment(tmp_path, capsys, monkeypatch):
    # PAPI's own variable, in PAPI's names: `run` takes its events from its
    # flags and config file only, so it neither reads nor rejects them.
    monkeypatch.setenv("PAPI_EVENTS", "PAPI_TOT_CYC,PAPI_TLB_DM")
    parse = build_parser().parse_args
    assert _build_run_config(parse(["run"])).events == ALL_EVENTS
    flag = ["--events", "PERF_COUNT_HW_CPU_CYCLES,DTLB-LOAD-MISSES"]
    assert _build_run_config(parse(["run", *flag])).events == {
        EventId.CpuCycles, EventId.DtlbLoadMisses}
    assert main(["run", "--simulate-counters", "--workload", "zone-sweep",
                 "--layout", "1,2,2,2,2", "--out", str(tmp_path)]) == 0


def test_config_file_events_string_is_named_not_split(tmp_path):
    flags = _config_file({"events": "PERF_COUNT_HW_CPU_CYCLES"})(tmp_path)
    with pytest.raises(ValueError, match="^bad configuration: events "
                       "'PERF_COUNT_HW_CPU_CYCLES' is not a list of strings$"):
        _build_run_config(build_parser().parse_args(["run", *flags]))


def test_events_flag_is_split_on_commas():
    args = build_parser().parse_args(
        ["run", "--events", "PERF_COUNT_HW_CPU_CYCLES, DTLB-LOAD-MISSES"])
    assert _build_run_config(args).events == {EventId.CpuCycles,
                                              EventId.DtlbLoadMisses}


def test_run_backend_is_real_unless_simulate_counters(tmp_path, capsys, monkeypatch):
    parse = build_parser().parse_args
    assert _build_run_config(parse(["run"])).backend == "real"
    assert _build_run_config(parse(["run", "--simulate-counters"])).backend == "simulated"
    # A host whose counters cannot be programmed: one error, then the hint.
    def deny(attr):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(counterhub, "_perf_event_open", deny)
    assert main(["run", "--workload", "zone-sweep", "--layout", "2,4,4,2,2",
                 "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error, hint = err.splitlines()
    assert error.startswith("error: ")
    assert hint.startswith("hint: pass --simulate-counters")
    assert not list(tmp_path.glob("report-*.json"))


def _one_counter_error(capsys, tmp_path) -> str:
    """The `error:` line of a run that ended on its counters, after
    checking it was followed by the hint alone and wrote nothing."""
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    error, hint = err.splitlines()
    assert hint == "hint: pass --simulate-counters for a hardware-free run"
    assert not list(tmp_path.glob("report-*.json"))
    return error


def test_real_run_opens_each_counter_once_per_role(tmp_path, capsys, pipe_counters):
    counters = pipe_counters()
    assert main(["run", "--workload", "zone-sweep", "--layout", "2,4,4,2,2",
                 "--out", str(tmp_path)]) == 0
    # Two roles of six events each, and no separate probe before them.
    assert counters.calls == len(counters.opened) == 2 * len(ALL_EVENTS)
    report = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    totals = report["runs"]["treatment"]["regions"]["zone-sweep"]["totals"]
    assert totals == {ev.value: 100 for ev in ALL_EVENTS}


def test_a_counter_running_backward_is_a_counter_error(tmp_path, capsys,
                                                       pipe_counters):
    pipe_counters(counts=(100, 40))
    assert main(["run", "--workload", "zone-sweep", "--layout", "2,4,4,2,2",
                 "--out", str(tmp_path)]) == 3
    error = _one_counter_error(capsys, tmp_path)
    assert re.fullmatch(r"error: [A-Z_-]+ decreased: 100 -> 40", error), error


def test_an_event_that_stops_opening_is_a_counter_error(tmp_path, capsys,
                                                        pipe_counters):
    # Two events open for the baseline, as they would for a probe, and
    # fail for the treatment: one line names both, and every counter that
    # opened is closed again, so its pipe has no reader left.
    counters = pipe_counters(fail={counterhub._ARM_SVE_INST_RETIRED_RAW: 2,
                                   counterhub._PERF_COUNT_HW_CACHE_MISSES: 13},
                             opens_before_failing=1)
    assert main(["run", "--workload", "zone-sweep", "--layout", "2,4,4,2,2",
                 "--out", str(tmp_path)]) == 3
    assert _one_counter_error(capsys, tmp_path) == (
        "error: events not programmable: {'PERF_COUNT_HW_CACHE_MISSES': "
        "'Permission denied; check kernel.perf_event_paranoid', "
        "'SVE_INST_RETIRED': 'No such file or directory'}")
    assert counters.calls == 2 * len(ALL_EVENTS) and len(counters.opened) == 10
    assert counters.all_closed()


def test_run_flags_override_config_file_fields(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "workload": {"kind": "block-sweep", "layout": {
            "nvar": 2, "i_lo": 1, "i_hi": 4, "j_lo": 1, "j_hi": 4, "k_lo": 1,
            "k_hi": 2, "maxblocks": 2, "elem_bytes": 8}, "passes": 1},
        "backend": "simulated", "repetitions": 2, "label": "file"}))
    config = _build_run_config(build_parser().parse_args(
        ["run", "--config", str(cfg_path), "--passes", "3", "--label", "flag"]))
    assert config.workload.passes == 3
    assert config.workload.layout.maxblocks == 2  # kept from the file
    assert (config.repetitions, config.label) == (2, "flag")
    assert config.backend == "simulated"


def _missing_trace(tmp_path):
    return ["tlbsim", "--trace", str(tmp_path / "missing.trace")]


def _ragged_trace(tmp_path):
    path = tmp_path / "ragged.trace"
    path.write_bytes(bytes(12))
    return ["tlbsim", "--trace", str(path)]


def _trace_with_sidecar(tmp_path, edit, layout="2,4,4,2,2"):
    path = tmp_path / "t.trace"
    main(["trace", "--layout", layout, "--out", str(path)])
    side = Path(str(path) + ".json")
    side.write_text(json.dumps(edit(json.loads(side.read_text()))))
    return ["tlbsim", "--trace", str(path)]


def _sidecar_disagrees(tmp_path):
    return _trace_with_sidecar(
        tmp_path, lambda meta: {**meta, "accesses": meta["accesses"] + 1})


def _sidecar_bool_accesses(tmp_path):
    # A one-access trace, where true == 1 and 1.0 == 1.
    return _trace_with_sidecar(tmp_path, lambda meta: {**meta, "accesses": True},
                               layout="1,1,1,1,1")


def _sidecar_float_accesses(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: {**meta, "accesses": 1.0},
                               layout="1,1,1,1,1")


def _sidecar_not_object(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: [])


def _sidecar_layout_incomplete(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: {**meta, "layout": {"nvar": 1}})


def _sidecar_zero_elem_bytes(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: {**meta, "elem_bytes": 0})


def _sidecar_without_passes(tmp_path):
    return _trace_with_sidecar(
        tmp_path, lambda meta: {k: v for k, v in meta.items() if k != "passes"})


def _sidecar_elem_bytes_4(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: {**meta, "elem_bytes": 4})


def _sidecar_float_layout(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: {
        **meta, "layout": {**meta["layout"], "nvar": float(meta["layout"]["nvar"])}})


def _malformed_layout(tmp_path):
    return ["trace", "--layout", "5,16,x", "--out", str(tmp_path / "t.trace")]


def _invalid_layout(tmp_path):
    return ["trace", "--layout", "0,16,16,16,16", "--out", str(tmp_path / "t.trace")]


def _sizes_not_a_size(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: meta) + ["--sizes", "4K,x"]


def _sizes_repeated(tmp_path):
    return _trace_with_sidecar(tmp_path, lambda meta: meta) + ["--sizes", "4K,4K"]


def _entries_not_an_int(tmp_path):
    return ["tlbsim", "--trace", str(tmp_path / "t.trace"), "--entries", "x"]


def _entries_beyond_int64(tmp_path):
    main(["trace", "--layout", "1,2,2,2,2", "--out", str(tmp_path / "t.trace")])
    return ["tlbsim", "--trace", str(tmp_path / "t.trace"),
            "--entries", str(2 ** 63), "--assoc", "1"]


def _pattern_unknown(tmp_path):
    return ["trace", "--pattern", "bogus", "--out", str(tmp_path / "t.trace")]


def _tlbsim_without_trace(tmp_path):
    return ["tlbsim"]


# What the error line of some inputs below must name.
_TRACE_ERRORS = {_sidecar_without_passes: "sidecar has no key 'passes'",
                 _sidecar_elem_bytes_4: "elem_bytes 4 disagrees with the layout's 8",
                 _entries_beyond_int64: "entries must be >= 1 and < 2**63"}


@pytest.mark.parametrize("make_argv", [_missing_trace, _ragged_trace,
                                       _sidecar_disagrees, _sidecar_bool_accesses,
                                       _sidecar_float_accesses, _sidecar_not_object,
                                       _sidecar_layout_incomplete,
                                       _sidecar_zero_elem_bytes,
                                       _sidecar_without_passes,
                                       _sidecar_elem_bytes_4,
                                       _sidecar_float_layout, _malformed_layout,
                                       _invalid_layout, _sizes_not_a_size,
                                       _sizes_repeated, _entries_not_an_int,
                                       _entries_beyond_int64,
                                       _pattern_unknown, _tlbsim_without_trace])
def test_bad_trace_input_is_one_line_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _TRACE_ERRORS.get(make_argv, "") in err


@pytest.mark.parametrize("argv", [
    ["run", "--repetitions", "x"],
    [],
    ["thp", "--set", "always"],
    ["thp", "--allow-system-writes"],
], ids=["repetitions-not-an-int", "no-command", "thp-set", "thp-allow-writes"])
def test_bad_command_line_is_one_line_error(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if not argv:  # names a word the user can type, not the parser's dest
        assert err.endswith(" command\n")


@pytest.mark.parametrize("sizes, message", [
    ("4K,x", "error: --sizes: 'x' is not a size like 4K, 2M or 4096\n"),
    pytest.param("2M,4k,2m", "error: --sizes: '2m' repeats page size 2097152\n",
                 id="repeated-in-another-case"),
    pytest.param("4K,4K", "error: --sizes: '4K' repeats page size 4096\n",
                 id="repeated"),
    pytest.param("4K,3M", "error: --sizes: '3M' must be a power of two in "
                 "[4 KiB, 512 MiB]\n", id="not-a-power-of-two"),
    pytest.param("1G", "error: --sizes: '1G' must be a power of two in "
                 "[4 KiB, 512 MiB]\n", id="above-512M"),
    pytest.param("2K", "error: --sizes: '2K' must be a power of two in "
                 "[4 KiB, 512 MiB]\n", id="below-4K"),
])
def test_bad_sizes_name_the_token(tmp_path, capsys, sizes, message):
    argv = _trace_with_sidecar(tmp_path, lambda meta: meta) + ["--sizes", sizes]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == message


def _fresh(code, *args):
    """(exit code, stdout, stderr) of Python `code` in a new interpreter."""
    src = str(Path(pagescope.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def _fresh_main(argv):
    """(exit code, stdout, stderr) of `main(argv)` in a new interpreter."""
    return _fresh("import sys; from pagescope.cli import main; "
                  "sys.exit(main(sys.argv[1:]))", *argv)


# What `run`, `render` and `doctor` load and the replay commands never need.
EXPERIMENT_MODULES = ("pagescope.report", "pagescope.render", "pagescope.metrics",
                      "pagescope.counterhub", "hashlib", "subprocess", "statistics")


def test_trace_and_tlbsim_never_load_the_experiment_stack(tmp_path):
    code = ("import sys; from pagescope.cli import main; trace = sys.argv[1]; "
            "codes = [main(['trace', '--layout', '2,4,4,2,2', '--out', trace]), "
            "main(['tlbsim', '--trace', trace])]; "
            "print(codes, sorted(set(sys.argv[2:]) & set(sys.modules)))")
    returncode, out, err = _fresh(code, str(tmp_path / "t.trace"), *EXPERIMENT_MODULES)
    assert (returncode, err) == (0, "")
    assert out.splitlines()[-1] == "[0, 0] []"


def test_builtin_run_loads_neither_openssl_nor_subprocess(tmp_path):
    # The run process measures its own memory: hashing the config and
    # spawning nothing must leave both out of it.
    code = ("import sys; from pagescope.cli import main; "
            "code = main(['run', '--simulate-counters', '--workload', 'sum2d', "
            "'--n', '8', '--out', sys.argv[1]]); "
            "print(code, sorted({'_hashlib', 'subprocess', 'statistics', "
            "'fractions', 'decimal'} & set(sys.modules)))")
    returncode, out, err = _fresh(code, str(tmp_path))
    assert returncode == 0, err
    assert out.splitlines()[-1] == "0 []"
    assert len(list(tmp_path.glob("report-*.json"))) == 1


def test_unexpected_runtime_error_is_not_an_exit_code(tmp_path, monkeypatch):
    trace = str(tmp_path / "t.trace")
    main(["trace", "--layout", "2,4,4,2,2", "--out", trace])

    def fail(*args, **kwargs):
        raise RuntimeError("replay bug")

    monkeypatch.setattr(tlbsim, "page_size_sweep", fail)
    with pytest.raises(RuntimeError, match="replay bug"):
        main(["tlbsim", "--trace", trace])


def test_repeated_main_calls_match_fresh_runs(tmp_path, capsys):
    trace = str(tmp_path / "t.trace")
    main(["trace", "--layout", "2,4,4,2,2", "--pattern", "zone", "--out", trace])
    truncated = tmp_path / "truncated.trace"
    main(["trace", "--layout", "2,4,4,2,2", "--out", str(truncated)])
    truncated.write_bytes(truncated.read_bytes()[:-3])
    calls = [(["tlbsim", "--trace", trace, "--sizes", "2M"], 0),
             (["tlbsim", "--trace", trace], 0),
             (["tlbsim", "--trace", trace, "--entries", "x"], 3),
             (["tlbsim", "--trace", str(truncated)], 3),
             (["tlbsim", "--trace", trace, "--entries", "16", "--assoc", "4"], 0)]
    capsys.readouterr()
    for argv, code in calls:
        result = (main(argv), *capsys.readouterr())
        assert result[0] == code and result == _fresh_main(argv), argv
    assert build_parser() is build_parser()


def test_readme_names_every_long_option():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    missing = [f"{name} {option}" for name, command in commands.items()
               for action in command._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"
               and not re.search(re.escape(option) + r"(?![\w-])", readme)]
    assert missing == []


def test_help_still_exits_zero():
    code, out, err = _fresh_main(["trace", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")


def _saved_report(tmp_path) -> Path:
    main(_sim_run_args(tmp_path))
    return next(tmp_path.glob("report-*.json"))


def _missing_report(tmp_path):
    return tmp_path / "missing.json"


def _truncated_report(tmp_path):
    path = _saved_report(tmp_path)
    path.write_text(path.read_text()[:200])
    return path


def _report_not_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    return path


def _edited_report(tmp_path, edit) -> Path:
    path = _saved_report(tmp_path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def _set_metric(key, value):
    def edit(data):
        data["runs"]["baseline"]["regions"]["zone-sweep"]["metrics"][key] = value
    return edit


def _report_metrics_unknown_key(tmp_path):
    return _edited_report(tmp_path, _set_metric("bogus", 1.0))


def _set_first_ratio(value):
    def edit(data):
        data["ratios"]["zone-sweep"][0]["ratio"] = value
    return edit


def _add_region(data):
    regions = data["runs"]["baseline"]["regions"]
    regions["other"] = regions["zone-sweep"]


def _rename_treatment_region(data):
    regions = data["runs"]["treatment"]["regions"]
    regions["other"] = regions.pop("zone-sweep")


def _rename_ratio_region(data):
    data["ratios"]["other"] = data["ratios"].pop("zone-sweep")


@pytest.mark.parametrize("edit", [
    _set_metric("seconds", float("inf")),
    _set_metric("seconds", float("nan")),
    _set_first_ratio(float("inf")),
    lambda data: data.update(label=7),
    _add_region,
    lambda data: data["runs"]["baseline"]["regions"].clear(),
    _rename_treatment_region,
    _rename_ratio_region,
], ids=["seconds-inf", "seconds-nan", "ratio-inf", "label-not-string",
        "two-regions", "no-region", "runs-name-two-regions",
        "ratios-name-another-region"])
def test_report_with_bad_value_is_refused_in_every_format(tmp_path, capsys, edit):
    # json writes and reads NaN and Infinity, so a hand-edited report can
    # hold them, and a pagescope report holds one region, so a hand-edited
    # one that names more is not one; every format refuses such a report
    # before rendering anything.
    path = _edited_report(tmp_path, edit)
    capsys.readouterr()
    for fmt in ("table", "csv", "svg"):
        out_path = tmp_path / f"out-{fmt}"
        assert main(["render", "--report", str(path), "--format", fmt,
                     "--out", str(out_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: not a pagescope report: ")
        assert not list(tmp_path.glob("out-*"))


@pytest.mark.parametrize("ratio", [1e308, 1.7e308])
def test_chart_of_a_huge_finite_ratio_stays_finite(tmp_path, capsys, ratio):
    # The axis tops out 15 % above the tallest bar, capped where that
    # would overflow, so no coordinate or tick label reads inf or nan.
    path = _edited_report(tmp_path, _set_first_ratio(ratio))
    capsys.readouterr()
    assert main(["render", "--report", str(path), "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert f'data-ratio="{ratio:.6g}"' in svg
    assert not re.search(r"\b(inf|nan)\b", svg)
    # Tick labels switch to three significant figures past 1e9, so no
    # label runs to hundreds of digits.
    assert max(len(line) for line in svg.splitlines()) <= 160


def test_table_of_a_huge_elapsed_time_keeps_its_columns(tmp_path, capsys):
    def edit(data):
        for run in data["runs"].values():
            run["elapsed_s"] = 1e308

    path = _edited_report(tmp_path, edit)
    capsys.readouterr()
    assert main(["render", "--report", str(path), "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("Measure"))
    assert [line for line in lines if len(line) > len(header)] == []
    assert lines[-1].split() == ["Elapsed", "Timer", "(s)", "1.00e+308", "1.00e+308"]


@pytest.mark.parametrize("make_report", [_missing_report, _truncated_report,
                                         _report_not_object,
                                         _report_metrics_unknown_key])
def test_bad_report_is_one_line_error(tmp_path, capsys, make_report):
    path = make_report(tmp_path)
    capsys.readouterr()
    assert main(["render", "--report", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

import json
from pathlib import Path

import pytest

from pagescope.cli import _build_run_config, build_parser, main
from pagescope.counterhub import EVENT_NAMES, EventId
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
            "baseline": {EVENT_NAMES[EventId.CpuCycles]: 1000},
            "treatment": {EVENT_NAMES[EventId.CpuCycles]: 900}},
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


def test_run_external_success_uses_main_region(tmp_path, capsys):
    rc = main(["run", "--simulate-counters", "--mode-a", "off",
               "--mode-b", "preload", "--out", str(tmp_path), "--",
               "true"])
    assert rc == 0
    data = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    assert "main" in data["runs"]["baseline"]["regions"]


def test_doctor_runs_and_reports(capsys):
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "capability report" in out
    assert "provisioning checklist" in out


def test_render_formats(tmp_path, capsys):
    main(_sim_run_args(tmp_path, label="render-me"))
    capsys.readouterr()
    report_path = next(tmp_path.glob("report-*.json"))

    assert main(["render", "--report", str(report_path),
                 "--format", "table"]) == 0
    assert "Elapsed Timer (s)" in capsys.readouterr().out

    assert main(["render", "--report", str(report_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("region,measure,")

    svg_path = tmp_path / "chart.svg"
    assert main(["render", "--report", str(report_path), "--format", "svg",
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg")
    assert (tmp_path / "chart.svg.csv").read_text().startswith("measure,case,")


def test_thp_without_sysfs_is_capability_failure(tmp_path, capsys):
    if Path(THP_ENABLED_PATH).exists():
        pytest.skip("host exposes THP sysfs")
    assert main(["thp"]) == 3
    assert main(["thp", "--set", "always"]) == 3  # refused: no opt-in flag


def test_events_flag_limits_event_set(tmp_path, capsys):
    rc = main(["run", "--simulate-counters", "--workload", "zone-sweep",
               "--layout", "2,4,4,2,2", "--events",
               "PERF_COUNT_HW_CPU_CYCLES,DTLB-LOAD-MISSES",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads(next(tmp_path.glob("report-*.json")).read_text())
    totals = data["runs"]["baseline"]["regions"]["zone-sweep"]["totals"]
    assert set(totals) == {"PERF_COUNT_HW_CPU_CYCLES", "DTLB-LOAD-MISSES"}


@pytest.mark.parametrize("flags", [
    ["--n", "0"],
    ["--passes", "0"],
    ["--repetitions", "0"],
    ["--layout", "5,16"],
    ["--config", "no-such-config.json"],
], ids=["n-0", "passes-0", "repetitions-0", "short-layout", "missing-config"])
def test_bad_run_flags_are_bad_configuration(tmp_path, capsys, flags):
    rc = main(["run", "--simulate-counters", "--workload", "sum2d",
               "--out", str(tmp_path)] + flags)
    assert rc == 3
    assert "bad configuration" in capsys.readouterr().err
    assert not list(tmp_path.glob("report-*.json"))


def test_run_backend_is_real_unless_simulate_counters():
    parse = build_parser().parse_args
    assert _build_run_config(parse(["run"])).backend == "real"
    assert _build_run_config(parse(["run", "--simulate-counters"])).backend == "simulated"


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


def _sidecar_disagrees(tmp_path):
    path = tmp_path / "t.trace"
    main(["trace", "--layout", "2,4,4,2,2", "--out", str(path)])
    side = Path(str(path) + ".json")
    meta = json.loads(side.read_text())
    side.write_text(json.dumps({**meta, "accesses": meta["accesses"] + 1}))
    return ["tlbsim", "--trace", str(path)]


def _malformed_layout(tmp_path):
    return ["trace", "--layout", "5,16,x", "--out", str(tmp_path / "t.trace")]


def _invalid_layout(tmp_path):
    return ["trace", "--layout", "0,16,16,16,16", "--out", str(tmp_path / "t.trace")]


@pytest.mark.parametrize("make_argv", [_missing_trace, _ragged_trace,
                                       _sidecar_disagrees, _malformed_layout,
                                       _invalid_layout])
def test_bad_trace_input_is_one_line_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

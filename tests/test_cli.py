import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pagescope
from pagescope import blockmesh, hugepagectl, tlbsim
from pagescope.cli import _build_run_config, build_parser, main
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


@pytest.mark.parametrize("fmt,region", [("svg", "nope"), ("csv", "zone-sweep")],
                         ids=["svg-unknown-region", "csv-with-region"])
def test_render_unusable_region_is_one_line_error(tmp_path, capsys, fmt, region):
    # svg: no report holds the region; csv: the flag only applies to charts.
    main(_sim_run_args(tmp_path, label="render-me"))
    report_path = next(tmp_path.glob("report-*.json"))
    capsys.readouterr()
    out_path = tmp_path / "chart"
    assert main(["render", "--report", str(report_path), "--format", fmt,
                 "--region", region, "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "zone-sweep" in err
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


def test_thp_without_sysfs_is_capability_failure(monkeypatch, capsys):
    fs = hugepagectl.FixtureFs({})  # a host without the THP file
    monkeypatch.setattr(hugepagectl, "RealFs", lambda: fs)
    assert main(["thp"]) == 3
    assert main(["thp", "--set", "always"]) == 3  # refused: no opt-in flag
    assert fs.written == []


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


def _config_file(content):
    """Flags naming a config file that holds `content` as JSON."""
    def make_flags(tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(content))
        return ["--config", str(path)]
    return make_flags


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
        "events-without-cycles", "config-events-string"])
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


def test_papi_events_without_cycles_is_bad_configuration(monkeypatch):
    monkeypatch.setenv("PAPI_EVENTS", "DTLB-LOAD-MISSES")
    with pytest.raises(ValueError, match="^bad configuration: events lack "
                       "PERF_COUNT_HW_CPU_CYCLES"):
        _build_run_config(build_parser().parse_args(["run", "--simulate-counters"]))


def test_config_file_events_string_is_named_not_split(tmp_path):
    flags = _config_file({"events": "PERF_COUNT_HW_CPU_CYCLES"})(tmp_path)
    with pytest.raises(ValueError, match="^bad configuration: events "
                       "'PERF_COUNT_HW_CPU_CYCLES' is not a list of strings$"):
        _build_run_config(build_parser().parse_args(["run", *flags]))


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


def _pattern_unknown(tmp_path):
    return ["trace", "--pattern", "bogus", "--out", str(tmp_path / "t.trace")]


def _tlbsim_without_trace(tmp_path):
    return ["tlbsim"]


@pytest.mark.parametrize("make_argv", [_missing_trace, _ragged_trace,
                                       _sidecar_disagrees, _sidecar_bool_accesses,
                                       _sidecar_float_accesses, _sidecar_not_object,
                                       _sidecar_layout_incomplete,
                                       _sidecar_zero_elem_bytes,
                                       _sidecar_float_layout, _malformed_layout,
                                       _invalid_layout, _sizes_not_a_size,
                                       _sizes_repeated, _entries_not_an_int,
                                       _pattern_unknown, _tlbsim_without_trace])
def test_bad_trace_input_is_one_line_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["run", "--repetitions", "x"], []],
                         ids=["repetitions-not-an-int", "no-command"])
def test_bad_command_line_is_one_line_error(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if not argv:  # names a word the user can type, not the parser's dest
        assert err.endswith(" command\n")


@pytest.mark.parametrize("sizes, message", [
    ("4K,x", "error: --sizes: 'x' is not a size like 4K, 2M or 4096\n"),
    ("2M,4k,2m", "error: page size 2097152 is given twice\n"),
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
            "print(code, sorted({'_hashlib', 'subprocess'} & set(sys.modules)))")
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


def _report_metrics_unknown_key(tmp_path):
    path = _saved_report(tmp_path)
    data = json.loads(path.read_text())
    data["runs"]["baseline"]["regions"]["zone-sweep"]["metrics"]["bogus"] = 1.0
    path.write_text(json.dumps(data))
    return path


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

"""Byte-identity of simulated reports against checked-in golden files.

Criterion 09 compares repeats within one checkout; this pins the JSON,
table and CSV output of the same experiment across commits. The golden
files under tests/data/ were written by `write_golden()` and must only be
regenerated when a change to the report format is intended.
"""

from pathlib import Path

from pagescope.blockmesh import UnkLayout
from pagescope.counterhub import EventId
from pagescope.hugepagectl import MEMINFO_PATH, FixtureFs
from pagescope.report import ExperimentConfig, WorkloadSpec, render_csv, \
    render_table, report_to_dict, report_to_json, run_experiment

from conftest import meminfo_text

DATA = Path(__file__).parent / "data"
GOLDEN = {"json": DATA / "determinism-report.json",
          "table": DATA / "determinism-report.table.txt",
          "csv": DATA / "determinism-report.csv"}


def determinism_outputs() -> dict[str, str]:
    """Criterion 09's experiment rendered three ways, host name normalized."""
    increments = ExperimentConfig.pack_increments({
        "baseline": {EventId.CpuCycles: 1_800_000,
                     EventId.CacheMisses: 10_000,
                     EventId.DtlbLoadMisses: 21_300,
                     EventId.SveInstRetired: 900_000,
                     EventId.StalledCyclesBackend: 700_000,
                     EventId.StalledCyclesFrontend: 90_000},
        "treatment": {EventId.CpuCycles: 1_700_000,
                      EventId.CacheMisses: 9_900,
                      EventId.DtlbLoadMisses: 1_000,
                      EventId.SveInstRetired: 900_000,
                      EventId.StalledCyclesBackend: 650_000,
                      EventId.StalledCyclesFrontend: 91_000},
    })
    config = ExperimentConfig(
        workload=WorkloadSpec(kind="block-sweep",
                              layout=UnkLayout.simple(2, 8, 8, 8, 10)),
        backend="simulated", simulated_increments=increments,
        label="determinism")
    fs = FixtureFs({MEMINFO_PATH: [
        meminfo_text(), meminfo_text(),
        meminfo_text(), meminfo_text(anon_kb=2048 * 1024)]})
    d = report_to_dict(run_experiment(config, fs=fs))
    d["provenance"]["host"] = "normalized-host"
    return {"json": report_to_json(d), "table": render_table(d),
            "csv": render_csv(d)}


def write_golden() -> None:
    DATA.mkdir(exist_ok=True)
    for kind, text in determinism_outputs().items():
        GOLDEN[kind].write_text(text)


def test_report_outputs_match_golden_files():
    for kind, text in determinism_outputs().items():
        assert text == GOLDEN[kind].read_text(), kind

"""Byte-identity of simulated reports and of the trace path against
checked-in golden files.

Criterion 09 compares repeats within one checkout; this pins the JSON,
table and CSV output of the same experiment across commits, and the bytes
`pagescope trace` writes (trace file and sidecar) and `pagescope tlbsim`
prints for a block and a zone layout. The golden files under tests/data/
were written by `write_golden()` and must only be regenerated when a change
to the report or trace format is intended.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from pagescope.blockmesh import UnkLayout
from pagescope.cli import main
from pagescope.counterhub import EventId
from pagescope.hugepagectl import MEMINFO_PATH, FixtureFs
from pagescope.report import ExperimentConfig, WorkloadSpec, render_csv, \
    render_table, report_to_json, run_experiment

from conftest import meminfo_text

DATA = Path(__file__).parent / "data"
GOLDEN = {"json": DATA / "determinism-report.json",
          "table": DATA / "determinism-report.table.txt",
          "csv": DATA / "determinism-report.csv"}
TRACE_GOLDEN = DATA / "trace-path.json"
# name -> `pagescope trace` flags; each trace is replayed at 4K, 2M, 512M.
TRACE_CASES = {
    "block": ["--layout", "5,16,16,16,40", "--pattern", "block", "--passes", "2"],
    "zone": ["--layout", "5,16,16,16,4", "--pattern", "zone"],
}


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
    d = run_experiment(config, fs=fs)
    d["provenance"]["host"] = "normalized-host"
    return {"json": report_to_json(d), "table": render_table(d),
            "csv": render_csv(d)}


def trace_outputs(work_dir: Path) -> dict[str, dict[str, str]]:
    """Per case: the sidecar text, the trace bytes' sha256 and the CSV."""
    out = {}
    for name, flags in TRACE_CASES.items():
        path = work_dir / f"{name}.trace"
        csv = work_dir / f"{name}.csv"
        assert main(["trace", *flags, "--out", str(path)]) == 0
        assert main(["tlbsim", "--trace", str(path), "--sizes", "4K,2M,512M",
                     "--out", str(csv)]) == 0
        out[name] = {
            "sidecar": Path(str(path) + ".json").read_text(),
            "trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "tlbsim_csv": csv.read_text()}
    return out


def write_golden() -> None:
    DATA.mkdir(exist_ok=True)
    for kind, text in determinism_outputs().items():
        GOLDEN[kind].write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = trace_outputs(Path(tmp))
    TRACE_GOLDEN.write_text(json.dumps(outputs, indent=2, sort_keys=True) + "\n")


def test_report_outputs_match_golden_files():
    for kind, text in determinism_outputs().items():
        assert text == GOLDEN[kind].read_text(), kind


def test_trace_path_outputs_match_golden_file(tmp_path):
    assert trace_outputs(tmp_path) == json.loads(TRACE_GOLDEN.read_text())

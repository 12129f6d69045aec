"""The benchmark's layer boundaries name attributes that exist, and a
traced iteration of each benchmark workload runs and passes its check.

`perfbench/layers.py` wraps pagescope functions by owner and attribute
name, so a rename in the package would otherwise show only as an
AttributeError in a traced benchmark run; a describe hook that reads an
attribute of an argument or a result fails only when the call is made.
"""

import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from pagescope import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_every_traced_boundary_is_a_callable_of_the_package(monkeypatch):
    targets = _perfbench(monkeypatch, "layers").targets()
    assert targets
    for target in targets:
        owner = (target.owner.__name__ if inspect.ismodule(target.owner)
                 else target.owner.__module__)
        assert owner.startswith("pagescope."), target.name
        assert callable(getattr(target.owner, target.attr, None)), target.name


@pytest.mark.parametrize("name, counts", [
    ("zone-replay", {"tlbsim.simulate": 3}),
    ("block-replay", {"tlbsim.simulate": 3}),
    # Per role: one meminfo sample before it and one in its repetition,
    # and two counter reads around that repetition.
    ("sum2d-run", {"blockmesh.run_kernel": 2, "hugepagectl.poll_once": 4,
                   "counterhub.read": 4}),
])
def test_a_traced_iteration_passes_the_workloads_check(tmp_path, monkeypatch,
                                                       capsys, name, counts):
    layers = _perfbench(monkeypatch, "layers")
    workload = _perfbench(monkeypatch, "workloads").WORKLOADS[name]
    recorder = _perfbench(monkeypatch, "spans").SpanRecorder()
    with recorder.installed(layers.targets()):
        for argv in workload.steps(tmp_path):
            assert cli.main(argv) == 0, argv
    workload.check(tmp_path, capsys.readouterr().out)
    seen = Counter(span.name for span in recorder.spans)
    assert {span: seen[span] for span in counts} == counts
    assert [span for span in recorder.spans if "error" in span.attrs] == []

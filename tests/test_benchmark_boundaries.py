"""The benchmark's layer boundaries name attributes that exist.

`perfbench/layers.py` wraps pagescope functions by owner and attribute
name, so a rename in the package would otherwise show only as an
AttributeError in a traced benchmark run.
"""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_boundary_is_a_callable_of_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("layers").targets()
    assert targets
    for target in targets:
        owner = (target.owner.__name__ if inspect.ismodule(target.owner)
                 else target.owner.__module__)
        assert owner.startswith("pagescope."), target.name
        assert callable(getattr(target.owner, target.attr, None)), target.name

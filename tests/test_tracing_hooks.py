"""The attributes `perfbench/tracing.py` swaps still exist and are restored.

`--trace 1` benchmark runs wrap slidebench functions by looking them up in
their owners' `__dict__`; a rename or removal would break that mode only.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrumentation_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")

    inst = tracing.Instrumentation(tracing.Tracer())
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in inst._plan]
    with inst.installed():
        swapped = [owner.__dict__[attr] is not fn for owner, attr, fn in originals]
    assert all(swapped)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

"""The benchmark's span tracer wraps package functions by module and name.

``perfbench/spans.py`` lists them in ``BOUNDARIES`` as (module, attribute)
pairs, and a traced run fails if a pair no longer resolves.  The file is
loaded by path and only read: no bytecode is cached next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_boundary_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    missing = [
        (module_name, attr) for module_name, attr, _, _ in spans.BOUNDARIES
        if not callable(getattr(importlib.import_module("hawkes_evolve." + module_name),
                                attr, None))
    ]
    assert missing == []

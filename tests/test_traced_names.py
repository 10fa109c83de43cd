"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` wraps fracstep's public functions by name; a name
that no longer resolves makes ``perfbench/run.py --trace 1`` fail.  The
table is read from the benchmark's own source, which this test does not
change.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))

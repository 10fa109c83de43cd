"""Every array a fracstep module holds at module level is read-only.

Module-level tables are shared by every call and every thread; a write to
one would change later results everywhere.  The check walks each module's
globals and the tuples, lists and dicts among them.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import fracstep

MODULES = ["fracstep"] + [f"fracstep.{m.name}" for m in pkgutil.iter_modules(fracstep.__path__)]


def arrays(value, path):
    """(path, array) for each ndarray in ``value`` and in the containers it holds."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from arrays(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from arrays(item, f"{path}[{key!r}]")


def test_every_module_is_walked():
    assert {"fracstep.mittag_leffler", "fracstep.shortest", "fracstep.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_arrays_are_read_only(name):
    module = importlib.import_module(name)
    found = [
        (path, array)
        for attr, value in vars(module).items()
        if not attr.startswith("__")
        for path, array in arrays(value, f"{name}.{attr}")
    ]
    assert [path for path, array in found if array.flags.writeable] == []


def test_the_shared_tables_are_among_them():
    from fracstep import mittag_leffler, shortest

    tables = [mittag_leffler._U, mittag_leffler._NODES, mittag_leffler._WEIGHTS, shortest._P10,
              shortest._PAD, shortest._ROUND_UP, shortest._EXPONENT, shortest._LAYOUT,
              shortest._HEAD_MASKS, shortest._CHARS, shortest._POW10_LOW, shortest._POW10_HIGH]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[1]

"""perfbench's per-layer ledger wraps simulator entry points by name.

``perfbench/ledger.py`` is imported from its file, unchanged, and every
``ENTRY_POINTS`` path must still resolve to a plain function: a renamed
or removed entry point, or one turned into a generator, would break
``perfbench/run.py --trace 1`` while the rest of the suite passed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark tree as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


ENTRY_POINTS = [(layer, module, path)
                for layer, entries in _load_ledger().ENTRY_POINTS.items()
                for module, path in entries]


def _resolve(module_name, path):
    module = importlib.import_module(module_name)
    if "." not in path:
        return getattr(module, path)
    class_name, attr = path.split(".")
    raw = getattr(module, class_name).__dict__[attr]
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_every_layer_has_entry_points():
    assert {layer for layer, _, _ in ENTRY_POINTS} >= {
        "sim", "tcp", "hw", "oskernel", "net"}


@pytest.mark.parametrize("layer,module_name,path", ENTRY_POINTS,
                         ids=[f"{layer}:{path}"
                              for layer, _, path in ENTRY_POINTS])
def test_entry_point_is_a_plain_function(layer, module_name, path):
    fn = _resolve(module_name, path)
    assert inspect.isfunction(fn), f"{module_name}.{path} is {fn!r}"
    assert not inspect.isgeneratorfunction(fn), (
        f"{module_name}.{path} is a generator function; the ledger "
        f"would time only the creation of the generator")

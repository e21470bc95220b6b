"""The names the benchmark's tracer wraps from outside still exist.

``perfbench/spans.py`` wraps public gzlss functions by name and reads
some of their arguments by parameter name; a rename would silently drop a
span or a count there, so it is checked here.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(name):
    layer, func = name.split(".")
    return getattr(importlib.import_module(f"gzlss.{layer}"), func, None)


def test_every_layer_entry_is_a_function(spans):
    names = [f"{layer}.{f}" for layer, funcs in spans.LAYERS.items() for f in funcs]
    assert [n for n in names if not callable(_function(n))] == []


class _Recording(dict):
    """Call arguments that remember which parameter names were read."""

    def __init__(self, value):
        super().__init__()
        self.value, self.read = value, []

    def __getitem__(self, key):
        self.read.append(key)
        return self.value


def test_counters_read_real_parameters(spans, tmp_path):
    existing = tmp_path / "file"
    existing.write_bytes(b"1234")
    result = types.SimpleNamespace(labels=np.zeros(1), contributing_pixels=0,
                                   shape=(1, 1, 1))
    for name, counter in spans.COUNTERS.items():
        layer, func = name.split(".")
        assert func in spans.LAYERS.get(layer, ()), name
        bound = _Recording(str(existing))
        counter(bound, result)
        params = inspect.signature(_function(name)).parameters
        assert [key for key in bound.read if key not in params] == [], name

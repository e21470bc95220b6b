"""The names and commands the benchmark uses from outside still exist.

``perfbench/spans.py`` wraps public gzlss functions by name and reads
some of their arguments by parameter name, and ``perfbench/run.py`` runs
gzlss commands with their settings; a rename would silently drop a span
or a count there, or fail the benchmark, so it is checked here.
"""

import importlib
import importlib.util
import inspect
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gzlss import augmentation, cli, model
from gzlss.label_space import build_label_space, make_embedding_table

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("perfbench_spans", ROOT / "perfbench" / "spans.py")


@pytest.fixture(scope="module")
def bench(spans):
    saved = sys.modules.get("spans")
    sys.modules["spans"] = spans  # run.py imports it by its bare name
    try:
        return _load("perfbench_run", ROOT / "perfbench" / "run.py")
    finally:
        if saved is None:
            del sys.modules["spans"]
        else:
            sys.modules["spans"] = saved


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

    # each counter on a real call of its function, bound as a traced run
    # binds it, gives the true count: renaming a result field such as
    # ``contributing_pixels`` or ``labels`` fails here instead of silently
    # dropping the count from a benchmark run
    rng = np.random.default_rng(0)
    space = build_label_space([1, 2, 3], [4, 5])
    table = make_embedding_table({c: rng.standard_normal(4) for c in space.all_ids})
    backbone = model.init_backbone(6, 4, rng=rng)
    image = rng.standard_normal((6, 5, 7)).astype(np.float32)
    y = np.where(rng.random((5, 7)) < 0.5, rng.integers(1, 4, (5, 7)), 0)
    ckpt, feat, pgm = (str(tmp_path / name) for name in ("m.ckpt", "i.feat", "m.pgm"))

    def size(path):
        return lambda result: {"bytes": os.path.getsize(path)}

    calls = {  # name -> (arguments, the true count from the result); writers first
        "model.backward": ((image, backbone, table, space, y, None, 1.0),
                           lambda result: {"pixels": int((y > 0).sum())}),
        "model.forward_backbone": ((image, backbone), lambda result: {"pixels": 5 * 7}),
        "pseudo_labeler.generate": (
            ("strict", backbone, image, y, augmentation.parse_spec_list("identity,mirror"),
             table, space),
            lambda result: {"assigned": int(np.count_nonzero(result.labels)),
                            "unlabeled": int((y == 0).sum())}),
        "model.save_checkpoint": ((ckpt, backbone), size(ckpt)),
        "model.load_checkpoint": ((ckpt,), size(ckpt)),
        "synthetic_data.write_feat": ((image, feat), size(feat)),
        "synthetic_data.read_feat": ((feat,), size(feat)),
        "synthetic_data.write_pgm": ((y, pgm), size(pgm)),
        "synthetic_data.read_pgm": ((pgm,), size(pgm)),
    }
    assert sorted(calls) == sorted(spans.COUNTERS)
    for name, (args, truth) in calls.items():
        func = _function(name)
        result = func(*args)
        bound = inspect.signature(func).bind(*args).arguments  # as spans.py binds them
        assert spans.COUNTERS[name](bound, result) == truth(result), name

    # the pseudo-label counter on the other strategies' results
    args, truth = calls["pseudo_labeler.generate"]
    for strategy in ("raw_st", "topp:30"):
        func = _function("pseudo_labeler.generate")
        result = func(strategy, *args[1:])
        bound = inspect.signature(func).bind(strategy, *args[1:]).arguments
        assert spans.COUNTERS["pseudo_labeler.generate"](bound, result) == truth(result), strategy


def test_every_benchmark_command_parses(bench, monkeypatch):
    monkeypatch.chdir(ROOT)  # the commands name the config relative to it
    parser = cli._build_parser()
    for workload in bench.WORKLOADS:
        commands = (bench.setup_commands(workload, 0, "d")
                    + bench.op_commands(workload, 0, "d", "out"))
        assert commands, workload
        for argv in commands:
            args, extras = parser.parse_known_args(argv)  # exits on a bad subcommand
            cli.load_config(args.config, extras)  # raises on an unknown --key

"""Spans around the public calls of each gzlss layer, recorded from outside.

``install`` replaces each listed function, in every loaded ``gzlss``
module that binds it (``from gzlss.model import backward`` makes a second
binding), with a wrapper that appends one span to an in-memory list.  The
program's source is never changed.  ``analyse`` turns the spans of a run
into per-function and per-layer busy and self times plus exact counts.

Clocks: spans use ``time.monotonic``, which on Linux is the system-wide
CLOCK_MONOTONIC, so spans recorded in a child process nest inside the root
span its parent measured around it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

# Layers are the gzlss modules; label_space does no measurable work at run
# time and is not wrapped.  Each entry is a public function of that module.
LAYERS = {
    "cli": ("main",),
    "self_training": (
        "strict_train", "train_base", "run_cycle", "generate_pseudo",
        "dataset_pseudo_quality", "write_history_csv",
    ),
    "model": (
        "backward", "sgd_step", "forward_backbone", "infer_gzs",
        "argmax_labels", "save_checkpoint", "load_checkpoint",
    ),
    "augmentation": ("apply", "invert_mask"),
    "pseudo_labeler": ("generate",),
    "metrics": ("evaluate_pairs", "pseudo_quality", "write_report_csv"),
    "synthetic_data": (
        "generate", "save_dataset", "load_dataset",
        "read_feat", "read_pgm", "write_feat", "write_pgm",
    ),
}


def _path_bytes(arg):
    return lambda bound, result: {"bytes": os.path.getsize(bound[arg])}


def _pseudo_counts(bound, result):
    # the filter's useful-to-attempted ratio: assigned / unlabeled pixels
    return {
        "assigned": int(np.count_nonzero(result.labels)),
        "unlabeled": int(np.count_nonzero(np.asarray(bound["y"]) == 0)),
    }


# Exact counts taken from a call's arguments and result, after its span ends.
COUNTERS = {
    "model.backward": lambda bound, result: {"pixels": int(result.contributing_pixels)},
    "model.forward_backbone": lambda bound, result: {
        "pixels": int(result.shape[1] * result.shape[2])
    },
    "model.save_checkpoint": _path_bytes("path"),
    "model.load_checkpoint": _path_bytes("path"),
    "pseudo_labeler.generate": _pseudo_counts,
    "synthetic_data.read_feat": _path_bytes("path"),
    "synthetic_data.read_pgm": _path_bytes("path"),
    "synthetic_data.write_feat": _path_bytes("path"),
    "synthetic_data.write_pgm": _path_bytes("path"),
}

# Bytes summed over a span and everything beneath it, e.g. what the feature
# and mask readers moved inside one load_dataset call.
SUBTREE_BYTES = ("synthetic_data.load_dataset", "synthetic_data.save_dataset")


class Recorder:
    """In-memory spans: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        errors = self.counter_errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None and name not in errors:
                try:
                    rec[4] = counter(sig.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
                    # the program's interface moved; keep running, drop the count
                    errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a gzlss module binds it."""
        importlib.import_module("gzlss.cli")  # loads every layer
        loaded = [m for n, m in sys.modules.items()
                  if (n == "gzlss" or n.startswith("gzlss.")) and m is not None]
        for layer, funcs in LAYERS.items():
            try:
                module = importlib.import_module(f"gzlss.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{f}" for f in funcs)
                continue
            for func in funcs:
                original = getattr(module, func, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{func}")
                    continue
                traced = self.wrap(f"{layer}.{func}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def analyse(spans, absent=()) -> tuple[dict, dict]:
    """Per-function and per-layer (timings, counts) for one traced run.

    ``spans`` are dicts with name, start, end, parent (index into the list,
    -1 for none) and counts; roots are named ``run``.  Every listed function
    appears, with zero calls when the run never reached it.
    """
    own = self_times(spans)
    timings: dict[str, float] = {"run.self_s": 0.0}
    counts: dict[str, float] = {}
    for layer, funcs in LAYERS.items():
        timings[f"{layer}.self_s"] = 0.0
        for func in funcs:
            key = f"{layer}.{func}"
            timings[f"{key}.busy_s"] = 0.0
            timings[f"{key}.self_s"] = 0.0
            counts[f"{key}.calls"] = 0
    subtree_bytes = [(s["counts"] or {}).get("bytes", 0) for s in spans]
    for i in range(len(spans) - 1, -1, -1):  # children come after their parent
        if spans[i]["parent"] >= 0:
            subtree_bytes[spans[i]["parent"]] += subtree_bytes[i]
    for i, s in enumerate(spans):
        name = s["name"]
        if name == "run":
            timings["run.self_s"] += own[i]
            continue
        layer = name.split(".", 1)[0]
        timings[f"{layer}.self_s"] += own[i]
        timings[f"{name}.busy_s"] += s["end"] - s["start"]
        timings[f"{name}.self_s"] += own[i]
        counts[f"{name}.calls"] += 1
        for k, v in (s["counts"] or {}).items():
            counts[f"{name}.{k}"] = counts.get(f"{name}.{k}", 0) + v
        if name in SUBTREE_BYTES:
            counts[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0) + subtree_bytes[i]
    assigned = counts.pop("pseudo_labeler.generate.assigned", 0)
    unlabeled = counts.pop("pseudo_labeler.generate.unlabeled", 0)
    counts["pseudo_labeler.keep_ratio"] = assigned / unlabeled if unlabeled else 0.0
    for name in absent:
        counts.pop(f"{name}.calls", None)
        timings.pop(f"{name}.busy_s", None)
        timings.pop(f"{name}.self_s", None)
    return timings, counts

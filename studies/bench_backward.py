"""Time one ``model.backward`` on a standard image, part by part.

Run from the root of a checkout:

    PYTHONPATH=src python3 studies/bench_backward.py [--data_seed 0] [--image 3]

The image is one of the standard config's train images (``configs/
standard.cfg``, generated in memory), the backbone is the base model's
initialisation, and there is no pseudo mask, as in base training.  Every
figure is the minimum over ``--repeats`` rounds of the mean of ``--calls``
calls, on one BLAS thread.  The parts are timed alone on the same
operands, so "the rest" (total minus the parts: Python between the calls
and the result object) is a difference, not a measurement.  Preparing the
labels happens once per image per training loop, not per call; it is
shown apart and is not in the total.

Prints a markdown table, then the same figures as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from gzlss import cli, model, self_training, synthetic_data


def per_call_us(fn, calls: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data_seed", type=int, default=0)
    parser.add_argument("--image", type=int, default=3)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    cli._one_blas_thread()

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    cfg = cli.load_config(os.path.join(root, "configs", "standard.cfg"),
                          ["--data_seed", str(args.data_seed)])
    ds = synthetic_data.generate(cli._build(synthetic_data.GeneratorConfig, cfg))
    tc = cli._build(model.TrainConfig, cfg)
    sample = ds.train[args.image]
    image, y = sample.image, sample.train_mask
    rng = np.random.default_rng([tc.seed, self_training.TAG_BASE])
    params = model.init_backbone(image.shape[0], ds.table.dim, tc.hidden, tc.window, rng)
    space, table = ds.space, ds.table

    labels = model.prepare_labels(image, params, space, y, None)
    work = model.Workspace().fit(image, params)
    model.backward(image, params, table, space, y, None, tc.lam, labels=labels, work=work)
    emb = table.matrix(space.seen_ids)
    grads = [work.dfeat @ work.x.T, work.dfeat.sum(axis=1)]

    def time_us(fn):
        return per_call_us(fn, args.calls, args.repeats)

    parts = {
        "window stack": lambda: model._window_stack(image, params.window, work),
        "forward GEMM and bias": lambda: model._forward_layers(work.x, params, work.feat),
        "zeroing `dfeat`": lambda: work.dfeat.fill(0.0),
        "seen CE term (`_ce_term`)": lambda: model._ce_term(work.feat, emb, labels.seen,
                                                            work.dfeat, work.flags),
        "weight-gradient GEMM": lambda: work.dfeat @ work.x.T,
        "bias sum": lambda: work.dfeat.sum(axis=1),
        "the `table.matrix` call": lambda: table.matrix(space.seen_ids),
        "finite checks": lambda: [np.all(np.isfinite(g)) for g in grads],
    }
    full = labels.seen is not None and labels.seen.cols is None
    if full or labels.seen is None:
        del parts["zeroing `dfeat`" if full else "seen CE term (`_ce_term`)"]
    total = time_us(lambda: model.backward(image, params, table, space, y, None, tc.lam,
                                           labels=labels, work=work))
    fig = {name: time_us(fn) for name, fn in parts.items()}
    fig["the rest"] = total - sum(fig.values())
    plain = time_us(lambda: model.backward(image, params, table, space, y, None, tc.lam))
    prepare = time_us(lambda: model.prepare_labels(image, params, space, y, None))

    print(f"standard seed {args.data_seed} image {args.image}: "
          f"{labels.seen_pixels} of {y.size} pixels labelled, window {params.window}, "
          f"hidden {tc.hidden}; min of {args.repeats} x {args.calls} calls\n")
    print("| part | µs |\n|---|---|")
    for name, us in fig.items():
        print(f"| {name} | {us:.0f} |")
    print(f"| **total, training path** (prepared labels, kept workspace) | **{total:.0f}** |")
    print(f"\nOutside the total: `backward` with neither given {plain:.0f} µs; "
          f"`prepare_labels`, once per image per loop, {prepare:.0f} µs.")
    print(json.dumps({"data_seed": args.data_seed, "image": args.image,
                      "labelled": labels.seen_pixels, "calls": args.calls,
                      "repeats": args.repeats, "parts_us": fig, "total_us": total,
                      "plain_call_us": plain, "prepare_labels_us": prepare}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Base supervised training and iterative self-training cycles.

Cycle 0 trains the backbone on seen-class masks alone.  Each later cycle
freezes the previous model, generates pseudo-labels for every training
image once, then fine-tunes on real + pseudo supervision.  Every cycle
draws from its own RNG stream keyed by (seed, tag, cycle), so a run can be
resumed from any checkpoint and produce the same bytes.

History rows record eval mIoU and pseudo-label quality per cycle.  The
``seconds`` column is written as 0.000 unless timings are requested, so the
file stays byte-identical across reruns; measured wall-clock durations are
kept on the in-memory records either way.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from gzlss.errors import FormatError
from gzlss.label_space import EmbeddingTable, LabelSpace
from gzlss.metrics import PseudoQuality, evaluate_pairs, pseudo_quality
from gzlss.model import (
    BackboneParams,
    TrainConfig,
    backward,
    init_backbone,
    init_optimizer,
    save_checkpoint,
    sgd_step,
)
from gzlss.parallel import Cached, Pool, map_items
from gzlss.pseudo_labeler import PseudoMask, generate, unlabeled_pixels

TAG_BASE = 1
TAG_CYCLE = 2

HISTORY_FILE = "history.csv"
HISTORY_SCHEMA = "# gzlss history schema v1"
HISTORY_COLUMNS = (
    "cycle,seen_miou,unseen_miou,hm,pl_precision,pl_recall,pl_coverage,seconds"
)


@dataclass
class CycleRecord:
    """One history row; rates are percentages, None = undefined."""

    cycle: int
    seen_miou: float
    unseen_miou: float
    hm: float
    pl_precision: float | None
    pl_recall: float | None
    pl_coverage: float | None
    seconds: float


def _batch_indices(n: int, batch_size: int, iters: int, rng):
    """Per-iteration image indices, drawn epoch-wise without replacement."""
    order = np.empty(0, dtype=np.int64)
    for _ in range(iters):
        while order.size < batch_size:
            order = np.concatenate([order, rng.permutation(n)])
        yield order[:batch_size]
        order = order[batch_size:]


def _train_item(samples, idx: int) -> dict:
    """Training image ``idx`` and its mask as the ``image`` and ``y``
    keywords, which pool workers keep once they have them."""
    return {"image": Cached(("image", int(idx)), samples[idx].image),
            "y": Cached(("mask", int(idx)), samples[idx].train_mask)}


def _train_loop(
    params: BackboneParams,
    samples,
    pseudo: list[PseudoMask] | None,
    table: EmbeddingTable,
    space: LabelSpace,
    cfg: TrainConfig,
    iters: int,
    rng,
    pool: Pool | None = None,
) -> BackboneParams:
    """SGD with batch gradients normalized by the contributing pixel count.

    The per-image gradients come back in batch order and are summed here
    in that order, so the sums do not depend on the pool."""
    state = init_optimizer(params, iters, cfg)
    grads = partial(backward, params=params, table=table, space=space, lam=cfg.lam)
    for batch in _batch_indices(len(samples), cfg.batch_size, iters, rng):
        sum_w = [np.zeros_like(w) for w in params.weights]
        sum_b = [np.zeros_like(b) for b in params.biases]
        pixels = 0
        items = [dict(_train_item(samples, idx), ybar=None if pseudo is None
                      else Cached(("pseudo", int(idx)), pseudo[idx].labels)) for idx in batch]
        for res in map_items(pool, grads, items):
            for acc, g in zip(sum_w + sum_b, res.grad_weights + res.grad_biases):
                acc += g
            pixels += res.contributing_pixels
        if pixels == 0:
            state.iteration += 1  # keep the schedule aligned, no step
            continue
        sgd_step(params, [g / pixels for g in sum_w], [g / pixels for g in sum_b], state)
    return params


def train_base(dataset, config: TrainConfig, pool: Pool | None = None) -> BackboneParams:
    """Supervised training on seen-class masks only (cycle 0 model)."""
    rng = np.random.default_rng([config.seed, TAG_BASE])
    c_in = dataset.train[0].image.shape[0]
    params = init_backbone(
        c_in, dataset.table.dim, config.hidden, config.window, rng
    )
    return _train_loop(
        params, dataset.train, None, dataset.table, dataset.space,
        config, config.base_iters, rng, pool,
    )


def generate_pseudo(
    params: BackboneParams, dataset, specs, strategy: str, cycle: int,
    pool: Pool | None = None,
) -> list[PseudoMask]:
    """Pseudo-labels for every training image from one frozen generator."""
    label = partial(generate, strategy, params, specs=specs, table=dataset.table,
                    space=dataset.space, generator_id=f"cycle{cycle}")
    return list(map_items(pool, label, [_train_item(dataset.train, i)
                                        for i in range(len(dataset.train))]))


def dataset_pseudo_quality(pseudo: list[PseudoMask], samples) -> PseudoQuality | None:
    """Micro-averaged quality vs hidden ground truth; None when gt is withheld."""
    if any(s.hidden_gt is None for s in samples):
        return None
    total = PseudoQuality(0, 0, 0, 0, 0)
    for pm, s in zip(pseudo, samples):
        total = total + pseudo_quality(pm.labels, s.hidden_gt, unlabeled_pixels(s.train_mask))
    return total


def run_cycle(
    prev_params: BackboneParams,
    dataset,
    specs,
    strategy: str,
    config: TrainConfig,
    cycle: int,
    pool: Pool | None = None,
) -> tuple[BackboneParams, list[PseudoMask]]:
    """One self-training cycle: pseudo-label with the frozen previous model,
    then fine-tune a copy of it on real + pseudo supervision."""
    if cycle < 1:
        raise ValueError("cycles are numbered from 1 (0 is base training)")
    pseudo = generate_pseudo(prev_params, dataset, specs, strategy, cycle, pool)
    rng = np.random.default_rng([config.seed, TAG_CYCLE, cycle])
    params = _train_loop(
        prev_params.copy(), dataset.train, pseudo, dataset.table, dataset.space,
        config, config.cycle_iters, rng, pool,
    )
    return params, pseudo


def _eval_pairs(dataset):
    pairs = [(s.image, s.hidden_gt) for s in dataset.eval]
    if any(gt is None for _, gt in pairs):
        raise ValueError("eval split has no ground truth masks")
    return pairs


def strict_train(
    dataset,
    config: TrainConfig,
    specs,
    strategy: str = "strict",
    gamma: float = 0.0,
    checkpoint_dir: str | None = None,
    start_cycle: int = 0,
    start_params: BackboneParams | None = None,
    history: list[CycleRecord] | None = None,
    timings: bool = False,
    pool: Pool | None = None,
) -> tuple[BackboneParams, list[CycleRecord]]:
    """Full pipeline: base training then ``config.cycles`` self-training cycles.

    With ``checkpoint_dir``, every finished cycle t rewrites ``history.csv``
    there and then saves ``cycle_<t>.ckpt``, so a killed run can be resumed
    from its last checkpoint.  Pass ``start_cycle`` t with the cycle t-1
    checkpoint as ``start_params`` (and the prior history rows) to resume;
    the result matches an uninterrupted run because each cycle has its own
    RNG stream.
    """
    pairs = _eval_pairs(dataset)
    records = list(history or [])

    def checkpoint(cycle, params):
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            # history first: a checkpoint on disk implies its history row is too
            write_history_csv(records, os.path.join(checkpoint_dir, HISTORY_FILE), timings)
            save_checkpoint(os.path.join(checkpoint_dir, f"cycle_{cycle:03d}.ckpt"), params)

    if start_cycle == 0:
        t0 = time.perf_counter()
        params = train_base(dataset, config, pool)
        rep = evaluate_pairs(params, pairs, dataset.table, dataset.space, gamma, pool=pool)
        records.append(CycleRecord(0, rep.seen_miou, rep.unseen_miou, rep.hm,
                                   None, None, None, time.perf_counter() - t0))
        checkpoint(0, params)
        first = 1
    else:
        if start_params is None:
            raise ValueError("resuming needs the previous cycle's parameters")
        params = start_params
        first = start_cycle

    for t in range(first, config.cycles + 1):
        t0 = time.perf_counter()
        params, pseudo = run_cycle(params, dataset, specs, strategy, config, t, pool)
        quality = dataset_pseudo_quality(pseudo, dataset.train)
        rep = evaluate_pairs(params, pairs, dataset.table, dataset.space, gamma, pool=pool)
        records.append(CycleRecord(
            t, rep.seen_miou, rep.unseen_miou, rep.hm,
            None if quality is None or quality.precision is None else 100.0 * quality.precision,
            None if quality is None or quality.recall is None else 100.0 * quality.recall,
            None if quality is None or quality.coverage is None else 100.0 * quality.coverage,
            time.perf_counter() - t0,
        ))
        checkpoint(t, params)
    return params, records


def write_history_csv(records: list[CycleRecord], path, timings: bool = False) -> None:
    """Schema comment + header + one row per cycle.  Undefined rates are
    empty fields; seconds is 0.000 unless ``timings`` (reruns stay
    byte-identical).  The file is replaced atomically."""

    def rate(v):
        return "" if v is None else f"{v:.4f}"

    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii", newline="") as fh:
        fh.write(HISTORY_SCHEMA + "\n")
        fh.write(HISTORY_COLUMNS + "\n")
        for r in records:
            secs = f"{r.seconds:.3f}" if timings else "0.000"
            fh.write(
                f"{r.cycle},{r.seen_miou:.4f},{r.unseen_miou:.4f},{r.hm:.4f},"
                f"{rate(r.pl_precision)},{rate(r.pl_recall)},{rate(r.pl_coverage)},{secs}\n"
            )
    os.replace(tmp, path)


def read_history_csv(path) -> list[CycleRecord]:
    if not os.path.exists(path):
        raise FormatError(f"history file not found: {path}")
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != HISTORY_SCHEMA:
        raise FormatError(f"{path}: missing history schema line")
    if len(lines) < 2 or lines[1] != HISTORY_COLUMNS:
        raise FormatError(f"{path}: unexpected history columns")
    records = []
    for ln in lines[2:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 8:
            raise FormatError(f"{path}: bad history row {ln!r}")
        try:
            records.append(CycleRecord(
                int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                *(None if p == "" else float(p) for p in parts[4:7]),
                float(parts[7]),
            ))
        except ValueError as exc:
            raise FormatError(f"{path}: bad history value ({exc})") from exc
    return records

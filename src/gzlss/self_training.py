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
from typing import Iterable, Iterator

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
from gzlss.parallel import Cached, Pool, map_items, map_tagged
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


def _train_arrays(samples, pseudo: list[PseudoMask] | None = None) -> tuple:
    """The training images, masks and pseudo masks (None without
    ``pseudo``) as lists of ``Cached`` values, which pool workers keep once
    they have them."""
    return ([Cached(("image", i), s.image) for i, s in enumerate(samples)],
            [Cached(("mask", i), s.train_mask) for i, s in enumerate(samples)],
            None if pseudo is None else
            [Cached(("pseudo", i), p.labels) for i, p in enumerate(pseudo)])


def _share(batch_size: int, rank: int, size: int) -> slice:
    """Rank ``rank``'s contiguous slice of a batch; sizes differ by at most one."""
    q, r = divmod(batch_size, size)
    lo = rank * q + min(rank, r)
    return slice(lo, lo + q + (rank < r))


def _add_grads(acc: tuple, results: list) -> tuple:
    """(gradient sums, pixels) ``acc`` plus ``results``, image by image."""
    sums, pixels = acc
    for res in results:
        for a, g in zip(sums, res.grad_weights + res.grad_biases):
            a += g
        pixels += res.contributing_pixels
    return sums, pixels


def _train_rank(
    link, params: BackboneParams, images: list, masks: list, pseudo: list | None,
    table: EmbeddingTable, space: LabelSpace, cfg: TrainConfig, batches: np.ndarray,
) -> BackboneParams | None:
    """One rank's part of ``_train_loop``: the per-image gradients of its
    slice of every batch, summed along the chain in batch order.  Every
    rank takes the same step on the same sum, so all hold the same
    weights; rank 0 returns them."""
    params = params.copy()  # the caller's, or read-only as a worker received them
    state = init_optimizer(params, len(batches), cfg)
    share = _share(cfg.batch_size, link.rank, link.size)
    layers = len(params.weights)

    def grads(indices):
        return [backward(images[i], params, table, space, masks[i],
                         None if pseudo is None else pseudo[i], cfg.lam) for i in indices]

    for batch in batches:
        start = ([np.zeros_like(p) for p in params.weights + params.biases], 0)
        sums, pixels = link.fold(partial(grads, batch[share]), _add_grads, start)
        if pixels == 0:
            state.iteration += 1  # keep the schedule aligned, no step
            continue
        steps = [g / pixels for g in sums]
        sgd_step(params, steps[:layers], steps[layers:], state)
    return params if link.rank == 0 else None


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
    """SGD with batch gradients normalized by the contributing pixel count,
    from a copy of ``params``.

    Each rank of the pool's chain (in-process, rank 0 of 1) gets the whole
    batch schedule and the images of its slices as ``Cached`` values.  The
    per-image gradients are summed in batch order along the chain, so the
    sums do not depend on the pool."""
    batches = np.array(list(_batch_indices(len(samples), cfg.batch_size, iters, rng)),
                       dtype=np.int64).reshape(iters, cfg.batch_size)
    pool = Pool(1) if pool is None else pool
    size = pool.size
    images, masks, labels = _train_arrays(samples, pseudo)

    def task(rank):
        used = set(batches[:, _share(cfg.batch_size, rank, size)].flat)

        def mine(values):  # None for the images this rank never uses
            return None if values is None else [c if i in used else None
                                                for i, c in enumerate(values)]

        return {"params": params, "table": table, "space": space, "cfg": cfg,
                "batches": batches, "images": mine(images), "masks": mine(masks),
                "pseudo": mine(labels)}

    return pool.chain(_train_rank, [task(r) for r in range(size)])[0]


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


def _labeller(params: BackboneParams, dataset, specs, strategy: str):
    return partial(generate, strategy, params, specs=specs, table=dataset.table,
                   space=dataset.space)


def generate_pseudo(
    params: BackboneParams, dataset, specs, strategy: str, pool: Pool | None = None,
) -> list[PseudoMask]:
    """Pseudo-labels for every training image from one frozen generator.

    The images go to the workers as ``Cached`` values, which they keep for
    the training that follows."""
    images, masks, _ = _train_arrays(dataset.train)
    return list(map_items(pool, _labeller(params, dataset, specs, strategy),
                          [{"image": im, "y": m} for im, m in zip(images, masks)]))


def stream_pseudo(
    params: BackboneParams, dataset, samples: Iterable, specs, strategy: str,
    pool: Pool | None = None,
) -> Iterator[tuple]:
    """``(sample, pseudo mask)`` for each of ``samples`` in order, drawn as
    the pool needs them; each image crosses the pipe once and no worker
    keeps it.  ``dataset`` supplies the label space and embeddings."""
    return map_tagged(pool, _labeller(params, dataset, specs, strategy),
                      ((s, {"image": s.image, "y": s.train_mask}) for s in samples))


def dataset_pseudo_quality(labelled: Iterable[tuple]) -> PseudoQuality | None:
    """Micro-averaged quality vs hidden ground truth of ``(sample, pseudo
    mask)`` pairs, summed as they are drawn; None when any sample's ground
    truth is withheld.  Every pair is drawn either way."""
    total = PseudoQuality()
    for s, pm in labelled:
        if s.hidden_gt is None:
            total = None
        elif total is not None:
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
    then fine-tune it, as a copy, on real + pseudo supervision."""
    if cycle < 1:
        raise ValueError("cycles are numbered from 1 (0 is base training)")
    pseudo = generate_pseudo(prev_params, dataset, specs, strategy, pool)
    rng = np.random.default_rng([config.seed, TAG_CYCLE, cycle])
    params = _train_loop(
        prev_params, dataset.train, pseudo, dataset.table, dataset.space,
        config, config.cycle_iters, rng, pool,
    )
    return params, pseudo


def _eval_pairs(dataset):
    """(image, ground truth) of each eval image.  Every cycle scores the
    same images, so they go out as ``Cached`` values that workers keep."""
    pairs = [(Cached(("eval", i), s.image), s.hidden_gt) for i, s in enumerate(dataset.eval)]
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
        quality = dataset_pseudo_quality(zip(dataset.train, pseudo))
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

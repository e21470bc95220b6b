"""Hard pseudo-labels for unlabeled pixels, fused by consistency intersection.

A generator model predicts among unseen classes only (the unlabeled pixels
of a training mask are known not to be seen classes), once per augmented
view; the views are mapped back to original coordinates and a pixel keeps
its label only if every view agrees.  ``raw_st`` is the one-view case, the
identity view alone, and ``topp:<p>`` instead drops the least confident p%
of assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gzlss import augmentation
from gzlss.label_space import EmbeddingTable, LabelSpace
from gzlss.model import BackboneParams, argmax_labels, forward_backbone, project_probs

STRICT = "strict"
RAW_ST = "raw_st"
TOP_P = "top_p"


def parse_strategy(text: str) -> tuple[str, float]:
    """Parse ``strict | raw_st | topp:<p>`` into (kind, p)."""
    token = text.strip()
    if token == STRICT:
        return STRICT, 0.0
    if token == RAW_ST:
        return RAW_ST, 0.0
    if token.startswith("topp:"):
        try:
            p = float(token[len("topp:"):])
        except ValueError as exc:
            raise ValueError(f"bad top-p percentage in {token!r}") from exc
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"top-p percentage must be in [0, 100], got {p}")
        return TOP_P, p
    raise ValueError(f"unknown pseudo-label strategy: {token!r}")


def unlabeled_pixels(mask: np.ndarray) -> np.ndarray:
    """The boolean pixel set I = {(n, m) : mask == 0}."""
    return np.asarray(mask) == 0


@dataclass
class PseudoMask:
    """Unseen-class pseudo-labels (0 = none)."""

    labels: np.ndarray


def unseen_hard_labels(
    generator: BackboneParams,
    image: np.ndarray,
    spec: augmentation.AugmentationSpec,
    table: EmbeddingTable,
    space: LabelSpace,
) -> np.ndarray:
    """Argmax over unseen classes on one augmented view, mapped back to the
    image's own grid; labelled pixels are not masked."""
    image = np.asarray(image)
    view = augmentation.apply(spec, image)
    feat = forward_backbone(view, generator)
    hard = argmax_labels(feat, table, space.unseen_ids)
    return augmentation.invert_mask(spec, hard, image.shape[1:])


def consistency_intersect(views: list[np.ndarray]) -> np.ndarray:
    """Keep a pixel's label only where every view agrees on it."""
    if not views:
        raise ValueError("need at least one view")
    labels = np.array(views[0])
    for view in views[1:]:
        if view.shape != labels.shape:
            raise ValueError(f"view shapes differ: {view.shape} vs {labels.shape}")
        labels = np.where(labels == view, labels, 0)
    return labels


def _top_p_filter(
    labels: np.ndarray, confidence: np.ndarray, unlabeled: np.ndarray, p: float
) -> np.ndarray:
    """Zero the lowest-confidence p% of assigned pixels (row-major tie order)."""
    flat = labels.copy().reshape(-1)
    idx = np.flatnonzero(unlabeled.reshape(-1))
    if idx.size == 0:
        return flat.reshape(labels.shape)
    n_drop = int(np.floor(p * idx.size / 100.0))
    if n_drop > 0:
        order = np.argsort(confidence.reshape(-1)[idx], kind="stable")
        flat[idx[order[:n_drop]]] = 0
    return flat.reshape(labels.shape)


def generate(
    strategy: str,
    generator: BackboneParams,
    image: np.ndarray,
    y: np.ndarray,
    specs: list[augmentation.AugmentationSpec],
    table: EmbeddingTable,
    space: LabelSpace,
) -> PseudoMask:
    """Produce the pseudo-label mask for one image under a named strategy.

    Every strategy labels only unlabelled pixels, so a mask with none gets
    the empty mask without a view being run."""
    kind, p = parse_strategy(strategy)
    if not specs or specs[0].kind != augmentation.IDENTITY:
        raise ValueError("augmentation spec list must begin with identity")
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != generator.in_channels:
        raise ValueError(f"expected a ({generator.in_channels}, N, M) image, "
                         f"got shape {image.shape}")
    unlabeled = unlabeled_pixels(y)
    if unlabeled.shape != image.shape[1:]:
        raise ValueError(f"mask shape {unlabeled.shape} != image grid {image.shape[1:]}")
    if not unlabeled.any():
        return PseudoMask(np.zeros(unlabeled.shape, dtype=np.int64))

    if kind != TOP_P:
        # raw_st is the strict filter over the identity view alone
        views = specs if kind == STRICT else specs[:1]
        labels = consistency_intersect(
            [unseen_hard_labels(generator, image, spec, table, space) for spec in views])
        return PseudoMask(np.where(unlabeled, labels, 0))

    # top-p: assign the unseen argmax, rank by its probability under the
    # full seen+unseen softmax, drop the least confident p%
    feat = forward_backbone(image, generator)
    probs = project_probs(feat, table, space.all_ids)
    assigned = argmax_labels(feat, table, space.unseen_ids)
    rows, cols = np.indices(assigned.shape)
    confidence = probs.values[rows, cols, assigned - 1]  # dense ids: channel = id - 1
    labels = np.where(unlabeled, assigned, 0)
    labels = _top_p_filter(labels, confidence, unlabeled, p)
    return PseudoMask(labels)

"""Confusion-matrix accumulation, IoU metrics and pseudo-label quality.

Ground-truth id 0 is excluded from every metric.  Classes with neither
ground-truth nor predicted pixels are flagged absent and excluded from the
class means instead of scoring 0.  Seen/unseen mean IoU and their harmonic
mean are reported in percent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from gzlss.label_space import EmbeddingTable, LabelSpace
from gzlss.model import BackboneParams, infer_gzs
from gzlss.parallel import Cached, Pool, map_items

REPORT_SCHEMA = "# gzlss report schema v1"


def new_confusion(space: LabelSpace) -> np.ndarray:
    n = space.num_classes + 1
    return np.zeros((n, n), dtype=np.int64)


def accumulate(pred: np.ndarray, gt: np.ndarray, cm: np.ndarray) -> np.ndarray:
    """Add one (pred, gt) mask pair into ``cm[gt, pred]``; gt 0 is skipped."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    n = cm.shape[0]
    scored = gt > 0
    if not scored.any():
        return cm
    g = gt[scored].astype(np.int64)
    p = pred[scored].astype(np.int64)
    if g.max() >= n or p.max() >= n or p.min() < 0:
        raise ValueError("mask ids outside the confusion matrix range")
    if np.any(p == 0):
        raise ValueError("prediction contains id 0 on evaluated pixels")
    cm += np.bincount(g * n + p, minlength=n * n).reshape(n, n)
    return cm


def iou(cm: np.ndarray, class_id: int) -> float | None:
    """TP / (TP + FP + FN) for one class; None when the class is absent."""
    tp = int(cm[class_id, class_id])
    fp = int(cm[:, class_id].sum()) - tp
    fn = int(cm[class_id, :].sum()) - tp
    denom = tp + fp + fn
    if denom == 0:
        return None
    return tp / denom


def harmonic_mean(s: float, u: float) -> float:
    """2SU/(S+U) of two percentages; 0 when both are 0."""
    if s < 0 or u < 0:
        raise ValueError("harmonic mean inputs must be non-negative")
    if s + u == 0:
        return 0.0
    return 2.0 * s * u / (s + u)


@dataclass
class GzlssReport:
    """Per-class IoU (percent, None = absent) and the seen/unseen summary."""

    class_iou: dict[int, float | None]
    gt_pixels: dict[int, int]
    pred_pixels: dict[int, int]
    seen_miou: float
    unseen_miou: float
    hm: float


def _mean_present(values: list[float | None]) -> float:
    present = [v for v in values if v is not None]
    if not present:
        return 0.0
    return float(np.mean(present))


def build_report(
    cm: np.ndarray, space: LabelSpace, exclude_ids: tuple = ()
) -> GzlssReport:
    class_iou = {}
    gt_pixels = {}
    pred_pixels = {}
    for c in space.all_ids:
        v = iou(cm, c)
        class_iou[c] = None if v is None else 100.0 * v
        gt_pixels[c] = int(cm[c, :].sum())
        pred_pixels[c] = int(cm[:, c].sum())
    s = _mean_present([class_iou[c] for c in space.seen_ids if c not in exclude_ids])
    u = _mean_present([class_iou[c] for c in space.unseen_ids if c not in exclude_ids])
    return GzlssReport(class_iou, gt_pixels, pred_pixels, s, u, harmonic_mean(s, u))


def evaluate_pairs(
    params: BackboneParams,
    pairs,
    table: EmbeddingTable,
    space: LabelSpace,
    gamma: float = 0.0,
    exclude_ids: tuple = (),
    pool: Pool | None = None,
) -> GzlssReport:
    """Run calibrated GZS inference over (image, gt) pairs and score them.

    Classes in ``exclude_ids`` are dropped from scoring: their ground-truth
    pixels are ignored and they are left out of the seen/unseen means.
    """
    infer = partial(infer_gzs, params=params, table=table, space=space, gamma=gamma)
    preds = map_items(pool, infer, [{"image": Cached(("eval", i), image)}
                                    for i, (image, _) in enumerate(pairs)])
    cm = new_confusion(space)
    for pred, (_, gt) in zip(preds, pairs):
        if exclude_ids:
            gt = np.where(np.isin(gt, exclude_ids), 0, gt)
        accumulate(pred, gt, cm)
    return build_report(cm, space, exclude_ids)


@dataclass(frozen=True)
class PseudoQuality:
    """Pseudo-label quality counts; rates are None when undefined.

    Instances add together, so dataset-level quality is the sum of
    per-image ones (micro-averaged rates).
    """

    unlabeled: int = 0       # |I|
    assigned: int = 0        # nonzero pseudo-labels on I
    scored: int = 0          # nonzero pseudo-labels on I with gt != 0
    correct: int = 0         # of those, matching gt
    gt_unseen: int = 0       # pixels of I with gt != 0

    def __add__(self, other: "PseudoQuality") -> "PseudoQuality":
        return PseudoQuality(
            self.unlabeled + other.unlabeled,
            self.assigned + other.assigned,
            self.scored + other.scored,
            self.correct + other.correct,
            self.gt_unseen + other.gt_unseen,
        )

    @property
    def precision(self) -> float | None:
        return None if self.scored == 0 else self.correct / self.scored

    @property
    def recall(self) -> float | None:
        return None if self.gt_unseen == 0 else self.correct / self.gt_unseen

    @property
    def coverage(self) -> float | None:
        return None if self.unlabeled == 0 else self.assigned / self.unlabeled


def pseudo_quality(
    pseudo: np.ndarray, hidden_gt: np.ndarray, unlabeled: np.ndarray
) -> PseudoQuality:
    """Score a pseudo-label mask against hidden ground truth on the pixel set I."""
    pseudo = np.asarray(pseudo)
    hidden_gt = np.asarray(hidden_gt)
    unlabeled = np.asarray(unlabeled, dtype=bool)
    if not (pseudo.shape == hidden_gt.shape == unlabeled.shape):
        raise ValueError("pseudo, ground truth and pixel set shapes differ")
    on_i = pseudo[unlabeled]
    gt_i = hidden_gt[unlabeled]
    has_gt = gt_i > 0
    nz = on_i > 0
    return PseudoQuality(
        unlabeled=int(unlabeled.sum()),
        assigned=int(nz.sum()),
        scored=int((nz & has_gt).sum()),
        correct=int((nz & has_gt & (on_i == gt_i)).sum()),
        gt_unseen=int(has_gt.sum()),
    )


def summary_line(report: GzlssReport) -> str:
    return f"S={report.seen_miou:.1f} U={report.unseen_miou:.1f} HM={report.hm:.1f}"


def write_report_csv(report: GzlssReport, path) -> None:
    """Per-class rows plus one summary row; percentages to one decimal."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(REPORT_SCHEMA + "\n")
        fh.write(f"# {summary_line(report)}\n")
        writer = csv.writer(fh)
        writer.writerow(["class", "iou", "gt_pixels", "pred_pixels"])
        for c in sorted(report.class_iou):
            v = report.class_iou[c]
            writer.writerow(
                [c, "" if v is None else f"{v:.1f}", report.gt_pixels[c], report.pred_pixels[c]]
            )
        writer.writerow(
            [
                "summary",
                f"{report.hm:.1f}",
                sum(report.gt_pixels.values()),
                sum(report.pred_pixels.values()),
            ]
        )

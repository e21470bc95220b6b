"""The trainable segmenter: per-pixel backbone, projection head and losses.

The backbone is a per-pixel MLP (tanh between layers, linear output) over
the channel vector of each pixel, optionally concatenated with its k x k
neighborhood window.  Pixel features are scored against fixed per-class
word embeddings by inner product; the softmax over a chosen id set gives
per-pixel posteriors.  Losses are sums over labeled pixels, so gradients of
a batch are sums over its images.  Word embeddings are never updated.

All training arithmetic is float64.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from gzlss.errors import FormatError, NumericError
from gzlss.label_space import EmbeddingTable, LabelSpace

CHECKPOINT_MAGIC = b"GZLSSCK1"
CHECKPOINT_VERSION = 2


@dataclass
class BackboneParams:
    """Weights/biases of the per-pixel MLP; ``window`` is the neighborhood k."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    window: int = 1

    @property
    def in_channels(self) -> int:
        return self.weights[0].shape[1] // (self.window * self.window)

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "BackboneParams":
        return BackboneParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases], self.window
        )


@dataclass
class TrainConfig:
    """Knobs for base training and self-training cycles."""

    lam: float = 1.0             # pseudo-label loss weight
    batch_size: int = 8
    base_iters: int = 400
    cycle_iters: int = 150
    cycles: int = 6
    seed: int = 0
    base_lr: float = 2.5e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    power: float = 0.9
    hidden: tuple[int, ...] = ()
    window: int = 1

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be a positive odd integer")


def init_backbone(
    c_in: int,
    dim: int,
    hidden: tuple[int, ...] = (),
    window: int = 1,
    rng: np.random.Generator | None = None,
    scheme: str = "glorot",
) -> BackboneParams:
    """Random (glorot) or identity initialization of the per-pixel MLP."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd integer")
    sizes = [c_in * window * window, *hidden, dim]
    if scheme == "identity":
        if hidden:
            raise ValueError("identity init only defined for a single layer")
        w = np.eye(dim, sizes[0])
        return BackboneParams([w], [np.zeros(dim)], window)
    if scheme != "glorot":
        raise ValueError(f"unknown init scheme: {scheme!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / (n_in + n_out))
        weights.append(rng.standard_normal((n_out, n_in)) * scale)
        biases.append(np.zeros(n_out))
    return BackboneParams(weights, biases, window)


def _window_stack(image: np.ndarray, k: int) -> np.ndarray:
    # (C, N, M) -> float64 (C*k*k, N, M) with edge-replicate padding; the
    # float64 conversion happens in the final copy, which is exact from float32
    if k == 1:
        return np.asarray(image, dtype=np.float64)
    pad = k // 2
    c, n, m = image.shape
    padded = np.empty((c, n + 2 * pad, m + 2 * pad), dtype=image.dtype)
    padded[:, pad : pad + n, pad : pad + m] = image
    padded[:, pad : pad + n, :pad] = image[:, :, :1]
    padded[:, pad : pad + n, pad + m :] = image[:, :, -1:]
    padded[:, :pad] = padded[:, pad : pad + 1]
    padded[:, pad + n :] = padded[:, pad + n - 1 : pad + n]
    out = np.empty((c * k * k, n, m), dtype=np.float64)
    for i in range(k * k):
        dy, dx = divmod(i, k)
        out[i * c : (i + 1) * c] = padded[:, dy : dy + n, dx : dx + m]
    return out


def _forward_layers(x: np.ndarray, params: BackboneParams) -> list[np.ndarray]:
    """Per-pixel MLP over flattened pixels; returns all activations, input first."""
    activations = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = w @ activations[-1] + b[:, None]
        activations.append(z if i == last else np.tanh(z))
    return activations


def _pixel_input(image: np.ndarray, params: BackboneParams) -> tuple[np.ndarray, int, int]:
    image = np.asarray(image)
    if image.ndim != 3:
        raise ValueError(f"expected (C, N, M) image, got shape {image.shape}")
    c, n, m = image.shape
    if c != params.in_channels:
        raise ValueError(f"image has {c} channels, backbone expects {params.in_channels}")
    x = _window_stack(image, params.window).reshape(-1, n * m)
    return x, n, m


def forward_backbone(image: np.ndarray, params: BackboneParams) -> np.ndarray:
    """Map a (C, N, M) image to the (D, N, M) per-pixel feature grid."""
    x, n, m = _pixel_input(image, params)
    feat = _forward_layers(x, params)[-1]
    return feat.reshape(params.out_dim, n, m)


@dataclass
class ProbGrid:
    """Per-pixel class posteriors: ``values[n, m, i]`` is P(class ids[i])."""

    ids: tuple[int, ...]
    values: np.ndarray  # (N, M, C)


def score_grid(feat: np.ndarray, table: EmbeddingTable, ids) -> np.ndarray:
    """Raw per-pixel inner-product logits, shape (N, M, len(ids))."""
    ids = tuple(int(c) for c in ids)
    if not ids:
        raise ValueError("empty id list")
    if feat.shape[0] != table.dim:
        raise ValueError(f"feature dim {feat.shape[0]} != embedding dim {table.dim}")
    w = table.matrix(ids)  # (C, D)
    return np.tensordot(feat, w, axes=([0], [1]))


def project_probs(feat: np.ndarray, table: EmbeddingTable, ids) -> ProbGrid:
    """Softmax over ``ids`` of the projection logits, max-subtracted for stability."""
    logits = score_grid(feat, table, ids)
    logits = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return ProbGrid(tuple(int(c) for c in ids), e / e.sum(axis=-1, keepdims=True))


def _channel_lookup(ids: tuple[int, ...]) -> np.ndarray:
    table = np.full(max(ids) + 1, -1, dtype=np.int64)
    for i, c in enumerate(ids):
        table[c] = i
    return table


def masked_cross_entropy(probs: ProbGrid, mask: np.ndarray) -> tuple[float, int]:
    """Sum of -log p(label) over labeled (nonzero) pixels, plus that pixel count."""
    mask = np.asarray(mask)
    if mask.shape != probs.values.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} != grid shape {probs.values.shape[:2]}")
    labeled = mask > 0
    count = int(labeled.sum())
    if count == 0:
        return 0.0, 0
    labels = mask[labeled]
    if labels.max() > max(probs.ids):
        raise ValueError(f"mask label {labels.max()} not among grid ids {probs.ids}")
    chan = _channel_lookup(probs.ids)[labels]
    if np.any(chan < 0):
        bad = sorted(set(labels[chan < 0].tolist()))
        raise ValueError(f"mask labels {bad} not among grid ids {probs.ids}")
    p = probs.values[labeled][np.arange(count), chan]
    return float(-np.log(p).sum()), count


def combined_loss(
    probs_seen: ProbGrid,
    y: np.ndarray,
    probs_unseen: ProbGrid,
    ybar: np.ndarray,
    lam: float,
) -> float:
    """Seen cross-entropy plus ``lam`` times the pseudo-label cross-entropy."""
    y = np.asarray(y)
    ybar = np.asarray(ybar)
    if np.any((y > 0) & (ybar > 0)):
        raise ValueError("a pixel cannot carry both a real and a pseudo label")
    seen_loss, _ = masked_cross_entropy(probs_seen, y)
    pseudo_loss, _ = masked_cross_entropy(probs_unseen, ybar)
    return seen_loss + lam * pseudo_loss


@dataclass
class BackwardResult:
    grad_weights: list[np.ndarray]
    grad_biases: list[np.ndarray]
    loss: float
    seen_pixels: int
    unseen_pixels: int

    @property
    def contributing_pixels(self) -> int:
        return self.seen_pixels + self.unseen_pixels


def _ce_term(
    feat: np.ndarray,
    emb: np.ndarray,
    labels_flat: np.ndarray,
    chan: np.ndarray,
    dfeat: np.ndarray,
    scale: float = 1.0,
) -> float:
    """Loss of one sum-form CE term over labeled pixels.

    ``scale`` times its d(loss)/d(feat) is added into the labeled columns
    of ``dfeat``, which the caller zeroes; columns the term does not label
    are left untouched.
    """
    labeled = labels_flat > 0
    if not labeled.any():
        return 0.0
    cols = np.flatnonzero(labeled)
    logits = emb @ feat[:, cols]  # (C, P_l)
    logits -= logits.max(axis=0, keepdims=True)
    lse = np.log(np.exp(logits).sum(axis=0))
    target = chan[labels_flat[cols]]
    loss = float((lse - logits[target, np.arange(cols.size)]).sum())
    dlogits = np.exp(logits - lse)  # softmax
    dlogits[target, np.arange(cols.size)] -= 1.0
    # "+ 0.0" turns a -0.0 into +0.0, as summing one zero-filled grid per
    # term did; it is much cheaper than adding into the fancy-indexed columns
    dfeat[:, cols] = scale * (emb.T @ dlogits) + 0.0
    return loss


def backward(
    image: np.ndarray,
    params: BackboneParams,
    table: EmbeddingTable,
    space: LabelSpace,
    y: np.ndarray,
    ybar: np.ndarray | None,
    lam: float,
) -> BackwardResult:
    """Exact gradient of the combined loss w.r.t. backbone parameters.

    ``y`` supervises the seen-class softmax, ``ybar`` (may be None) the
    unseen-class softmax weighted by ``lam``.  Embeddings receive no
    gradient.  Raises NumericError on non-finite gradients.
    """
    y = np.asarray(y)
    ybar_arr = np.zeros_like(y) if ybar is None else np.asarray(ybar)
    if np.any((y > 0) & (ybar_arr > 0)):
        raise ValueError("a pixel cannot carry both a real and a pseudo label")
    x, n, m = _pixel_input(image, params)
    if y.shape != (n, m) or ybar_arr.shape != (n, m):
        raise ValueError("mask shapes do not match the image")

    activations = _forward_layers(x, params)
    feat = activations[-1]

    seen_chan = _channel_lookup(space.seen_ids)
    unseen_chan = _channel_lookup(space.unseen_ids)
    y_flat = y.reshape(-1)
    ybar_flat = ybar_arr.reshape(-1)
    if y_flat.max(initial=0) > 0 and (
        y_flat.max() > max(space.seen_ids) or np.any(seen_chan[y_flat[y_flat > 0]] < 0)
    ):
        raise ValueError("training mask contains non-seen ids")
    if ybar_flat.max(initial=0) > 0 and (
        ybar_flat.max() > max(space.unseen_ids)
        or np.any(unseen_chan[ybar_flat[ybar_flat > 0]] < 0)
    ):
        raise ValueError("pseudo mask contains non-unseen ids")

    # one gradient grid for both terms: no pixel carries both labels (checked
    # above), so each term writes only its own columns
    dfeat = np.zeros_like(feat)
    seen_loss = _ce_term(feat, table.matrix(space.seen_ids), y_flat, seen_chan, dfeat)
    pseudo_loss = _ce_term(
        feat, table.matrix(space.unseen_ids), ybar_flat, unseen_chan, dfeat, lam
    )

    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    dz = dfeat
    for i in range(len(params.weights) - 1, -1, -1):
        a_prev = activations[i]
        grad_w[i] = dz @ a_prev.T
        grad_b[i] = dz.sum(axis=1)
        if i > 0:
            da = params.weights[i].T @ dz
            dz = da * (1.0 - a_prev * a_prev)  # tanh'
    for g in grad_w + grad_b:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient")
    return BackwardResult(
        grad_w,
        grad_b,
        seen_loss + lam * pseudo_loss,
        int((y_flat > 0).sum()),
        int((ybar_flat > 0).sum()),
    )


@dataclass
class OptimizerState:
    """SGD momentum buffers and schedule position; hyperparameters from ``config``."""

    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]
    max_iter: int
    config: TrainConfig
    iteration: int = 0


def init_optimizer(
    params: BackboneParams, max_iter: int, config: TrainConfig
) -> OptimizerState:
    return OptimizerState(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        max_iter,
        config,
    )


def poly_lr(iteration: int, max_iter: int, base_lr: float, power: float = 0.9) -> float:
    """Polynomial decay ``base_lr * (1 - iter/max_iter) ** power``."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if iteration < 0 or iteration > max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return base_lr * (1.0 - iteration / max_iter) ** power


def sgd_step(
    params: BackboneParams,
    grad_w: list[np.ndarray],
    grad_b: list[np.ndarray],
    state: OptimizerState,
) -> None:
    """One in-place momentum step: v <- mu*v - lr*(g + wd*theta); theta <- theta + v."""
    cfg = state.config
    lr = poly_lr(state.iteration, state.max_iter, cfg.base_lr, cfg.power)
    for theta, g, v in zip(
        params.weights + params.biases, grad_w + grad_b, state.velocity_w + state.velocity_b
    ):
        if theta.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {theta.shape}")
        v *= cfg.momentum
        v -= lr * (g + cfg.weight_decay * theta)
        theta += v
    state.iteration += 1


def infer_gzs(
    image: np.ndarray,
    params: BackboneParams,
    table: EmbeddingTable,
    space: LabelSpace,
    gamma: float = 0.0,
) -> np.ndarray:
    """Per-pixel argmax over seen + unseen classes with seen-score calibration.

    ``gamma`` is subtracted from every seen-class logit before the argmax;
    gamma = 0 is plain uncalibrated inference.  Ties break toward the lowest
    class id.
    """
    feat = forward_backbone(image, params)
    logits = score_grid(feat, table, space.all_ids)
    if gamma != 0.0:
        logits = logits.copy()
        logits[..., : len(space.seen_ids)] -= gamma
    ids = np.asarray(space.all_ids, dtype=np.int64)
    return ids[np.argmax(logits, axis=-1)]


def argmax_labels(feat: np.ndarray, table: EmbeddingTable, ids) -> np.ndarray:
    """Argmax over ``ids`` of raw projection logits (softmax-free)."""
    logits = score_grid(feat, table, ids)
    id_arr = np.asarray([int(c) for c in ids], dtype=np.int64)
    return id_arr[np.argmax(logits, axis=-1)]


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, window, layer count, per-layer shapes,
# then float64 little-endian weights/biases
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: BackboneParams) -> None:
    """Write ``<path>.tmp``, then replace ``path`` with it: a crash leaves
    either the previous checkpoint or the new one, never a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, params.window, len(params.weights)))
        for w in params.weights:
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        for w, b in zip(params.weights, params.biases):
            fh.write(w.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())
    os.replace(tmp, path)


def _read_exact(fh, nbytes: int, path, what: str) -> bytes:
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise FormatError(f"{path}: truncated while reading {what} at byte {fh.tell() - len(data)}")
    return data


def load_checkpoint(path) -> BackboneParams:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(CHECKPOINT_MAGIC), path, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        version, window, n_layers = struct.unpack("<III", _read_exact(fh, 12, path, "header"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        shapes = [
            struct.unpack("<II", _read_exact(fh, 8, path, f"layer {i} shape"))
            for i in range(n_layers)
        ]
        weights, biases = [], []
        for i, (n_out, n_in) in enumerate(shapes):
            wb = _read_exact(fh, 8 * n_out * n_in, path, f"layer {i} weights")
            weights.append(np.frombuffer(wb, dtype="<f8").reshape(n_out, n_in).copy())
            bb = _read_exact(fh, 8 * n_out, path, f"layer {i} bias")
            biases.append(np.frombuffer(bb, dtype="<f8").copy())
        return BackboneParams(weights, biases, window)

"""The per-image hot path against the plain implementations it replaced.

The references below are the former window stack (``np.pad`` plus one
``concatenate`` over the shifted views), bilinear resize (float64 copy of
the source, each row gathered twice) and CE backward (one zero-filled
gradient grid per term, summed as ``dfeat_s + lam * dfeat_u``).  The lean
versions must give the same bytes, not merely close values: self-training
histories are compared byte for byte.
"""

import numpy as np
import pytest

from gzlss import augmentation, model
from gzlss.errors import NumericError


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# references


def _ref_window_stack(image, k):
    if k == 1:
        return image
    pad = k // 2
    _, n, m = image.shape
    padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    views = [padded[:, dy : dy + n, dx : dx + m] for dy in range(k) for dx in range(k)]
    return np.concatenate(views, axis=0)


def _ref_pixel_input(image, params):
    image = np.asarray(image, dtype=np.float64)
    c, n, m = image.shape
    x = _ref_window_stack(image, params.window).reshape(-1, n * m)
    return x, n, m


def _ref_bilinear_resize(image, out_h, out_w):
    c, h, w = image.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0f = np.floor(ys)
    x0f = np.floor(xs)
    ty = ys - y0f
    tx = xs - x0f
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    ty = ty[None, :, None]
    tx = tx[None, None, :]
    top = image[:, y0][:, :, x0] * (1 - tx) + image[:, y0][:, :, x1] * tx
    bot = image[:, y1][:, :, x0] * (1 - tx) + image[:, y1][:, :, x1] * tx
    return top * (1 - ty) + bot * ty


def _ref_ce_term(feat, emb, labels_flat, chan):
    labeled = labels_flat > 0
    if not labeled.any():
        return 0.0, np.zeros_like(feat)
    cols = np.flatnonzero(labeled)
    logits = emb @ feat[:, cols]  # (C, P_l)
    logits -= logits.max(axis=0, keepdims=True)
    lse = np.log(np.exp(logits).sum(axis=0))
    target = chan[labels_flat[cols]]
    loss = float((lse - logits[target, np.arange(cols.size)]).sum())
    dlogits = np.exp(logits - lse)  # softmax
    dlogits[target, np.arange(cols.size)] -= 1.0
    dfeat = np.zeros_like(feat)
    dfeat[:, cols] = emb.T @ dlogits
    return loss, dfeat


def _ref_backward(image, params, table, space, y, ybar, lam):
    y = np.asarray(y)
    ybar_arr = np.zeros_like(y) if ybar is None else np.asarray(ybar)
    x, n, m = _ref_pixel_input(image, params)
    activations = model._forward_layers(x, params)
    feat = activations[-1]
    seen_chan = model._channel_lookup(space.seen_ids)
    unseen_chan = model._channel_lookup(space.unseen_ids)
    y_flat = y.reshape(-1)
    ybar_flat = ybar_arr.reshape(-1)
    seen_loss, dfeat_s = _ref_ce_term(feat, table.matrix(space.seen_ids), y_flat, seen_chan)
    pseudo_loss, dfeat_u = _ref_ce_term(
        feat, table.matrix(space.unseen_ids), ybar_flat, unseen_chan
    )
    dfeat = dfeat_s + lam * dfeat_u
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
    return (
        grad_w,
        grad_b,
        seen_loss + lam * pseudo_loss,
        int((y_flat > 0).sum()),
        int((ybar_flat > 0).sum()),
    )


# ---------------------------------------------------------------------------
# window stack


@pytest.mark.parametrize("shape", [(16, 32, 32), (16, 48, 48), (3, 7, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_window_stack_bitwise(shape, dtype, k):
    rng = np.random.default_rng([k, *shape])
    image = rng.standard_normal(shape).astype(dtype)
    got = model._window_stack(image, k)
    want = _ref_window_stack(np.asarray(image, dtype=np.float64), k)
    assert np.array_equal(got, want)
    assert _same_bytes(got, want)


# ---------------------------------------------------------------------------
# bilinear resize


@pytest.mark.parametrize("factor", ["3/2", "3/4", "1/2"])
@pytest.mark.parametrize("shape", [(16, 32, 32), (3, 7, 5)])
def test_bilinear_bitwise(factor, shape):
    rng = np.random.default_rng(len(factor) + shape[1])
    image = rng.standard_normal(shape).astype(np.float32)
    spec = augmentation.parse_spec(f"scale={factor}")
    got = augmentation.apply(spec, image)
    out_h, out_w = augmentation.scaled_size(shape[1:], spec)
    want = _ref_bilinear_resize(image.astype(np.float64), out_h, out_w)
    assert np.array_equal(got, want)
    assert _same_bytes(got, want)


# ---------------------------------------------------------------------------
# CE terms and backward


def _masks(kind, rng, space, n, m):
    seen = rng.choice(np.array(space.seen_ids), size=(n, m))
    unseen = rng.choice(np.array(space.unseen_ids), size=(n, m))
    split = rng.random((n, m))
    zeros = np.zeros((n, m), dtype=np.int64)
    if kind == "seen-only":
        return np.where(split < 0.6, seen, 0), None
    if kind == "pseudo-only":
        return zeros, np.where(split < 0.4, unseen, 0)
    if kind == "both":
        return np.where(split < 0.5, seen, 0), np.where(split > 0.7, unseen, 0)
    return zeros, zeros  # all-unlabelled


@pytest.mark.parametrize("kind", ["seen-only", "pseudo-only", "both", "all-unlabelled"])
@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("window,hidden", [(1, ()), (3, (8,))])
def test_backward_bitwise(table, space, kind, lam, window, hidden):
    rng = np.random.default_rng([int(lam), window, len(kind)])
    n, m = 12, 10
    image = rng.standard_normal((16, n, m)).astype(np.float32)
    params = model.init_backbone(16, table.dim, hidden, window, rng=rng)
    y, ybar = _masks(kind, rng, space, n, m)
    res = model.backward(image, params, table, space, y, ybar, lam)
    grad_w, grad_b, loss, seen_px, unseen_px = _ref_backward(
        image, params, table, space, y, ybar, lam
    )
    for got, want in zip(res.grad_weights + res.grad_biases, grad_w + grad_b):
        assert np.array_equal(got, want)
        assert _same_bytes(got, want)
    assert res.loss == loss
    assert (res.seen_pixels, res.unseen_pixels) == (seen_px, unseen_px)


def test_ce_term_writes_only_its_columns(table, space):
    """A term adds its scaled gradient to its labelled columns, nowhere else."""
    rng = np.random.default_rng(3)
    feat = rng.standard_normal((table.dim, 20))
    labels = np.where(rng.random(20) < 0.5, 4, 0)
    chan = model._channel_lookup(space.unseen_ids)
    emb = table.matrix(space.unseen_ids)
    ref_loss, ref_dfeat = _ref_ce_term(feat, emb, labels, chan)
    dfeat = np.zeros_like(feat)
    loss = model._ce_term(feat, emb, labels, chan, dfeat, 2.5)
    assert loss == ref_loss
    assert _same_bytes(dfeat, 0.0 + 2.5 * ref_dfeat)
    assert not dfeat[:, labels == 0].any()


def test_backward_checks_kept(table, space):
    """The lean path keeps every per-call validation of backward."""
    rng = np.random.default_rng(5)
    image = rng.standard_normal((4, 3, 3)).astype(np.float32)
    params = model.init_backbone(4, table.dim, window=3, rng=rng)
    y = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="both a real and a pseudo"):
        model.backward(image, params, table, space, y + 1, y + 4, 1.0)
    with pytest.raises(ValueError, match="non-seen"):
        model.backward(image, params, table, space, y + 4, None, 1.0)
    with pytest.raises(ValueError, match="non-unseen"):
        model.backward(image, params, table, space, y, y + 1, 1.0)
    with pytest.raises(ValueError, match="mask shapes"):
        model.backward(image, params, table, space, np.zeros((2, 3), np.int64), None, 1.0)
    with pytest.raises(ValueError, match="channels"):
        model.backward(image[:2], params, table, space, y, None, 1.0)
    with pytest.raises(ValueError, match=r"\(C, N, M\)"):
        model.backward(image[0], params, table, space, y, None, 1.0)
    bad = params.copy()
    bad.weights[0][0, 0] = np.inf
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        model.backward(image, bad, table, space, y + 1, None, 1.0)

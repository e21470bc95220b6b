"""Backbone forward/backward, losses, optimizer, inference, checkpoints."""

import struct

import numpy as np
import pytest

from gzlss import model
from gzlss.errors import FormatError
from gzlss.label_space import build_label_space, make_embedding_table


def _loss_fn(image, params, table, space, y, ybar, lam):
    feat = model.forward_backbone(image, params)
    ps = model.project_probs(feat, table, space.seen_ids)
    pu = model.project_probs(feat, table, space.unseen_ids)
    return model.combined_loss(ps, y, pu, ybar, lam)


def _finite_diff(image, params, table, space, y, ybar, lam, h=1e-5):
    """Central differences over every parameter entry."""
    grads_w, grads_b = [], []
    for arrs, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for arr in arrs:
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = _loss_fn(image, params, table, space, y, ybar, lam)
                flat[i] = orig - h
                down = _loss_fn(image, params, table, space, y, ybar, lam)
                flat[i] = orig
                g.reshape(-1)[i] = (up - down) / (2 * h)
            grads.append(g)
    return grads_w, grads_b


def _random_instance(rng, hidden=(), window=1, c_in=3, dim=3):
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    space = build_label_space([1, 2], [3, 4])
    vecs = rng.standard_normal((4, dim))
    table = make_embedding_table({c: vecs[c - 1] for c in space.all_ids})
    params = model.init_backbone(c_in, dim, hidden, window, rng)
    image = rng.standard_normal((c_in, n, m))
    y = rng.integers(0, 3, size=(n, m))  # 0..2: unlabeled or seen
    ybar = np.where(y == 0, rng.integers(3, 5, size=(n, m)), 0)
    ybar[rng.random((n, m)) < 0.3] = 0
    ybar = np.where(y == 0, ybar, 0)
    return image, params, table, space, y, ybar


@pytest.mark.parametrize("hidden,window", [((), 1), ((5,), 1), ((4, 3), 1), ((), 3)])
def test_gradients_match_finite_differences(hidden, window):
    rng = np.random.default_rng(11)
    for _ in range(4):
        image, params, table, space, y, ybar = _random_instance(rng, hidden, window)
        lam = float(rng.uniform(0.5, 2.0))
        res = model.backward(image, params, table, space, y, ybar, lam)
        num_w, num_b = _finite_diff(image, params, table, space, y, ybar, lam)
        for got, want in zip(res.grad_weights + res.grad_biases, num_w + num_b):
            scale = np.maximum(np.abs(want), 1e-6)
            assert np.max(np.abs(got - want) / scale) < 1e-4


def test_backward_loss_matches_forward_loss():
    rng = np.random.default_rng(12)
    image, params, table, space, y, ybar = _random_instance(rng)
    res = model.backward(image, params, table, space, y, ybar, 1.7)
    want = _loss_fn(image, params, table, space, y, ybar, 1.7)
    assert abs(res.loss - want) < 1e-10


def test_all_unlabeled_gives_zero_loss_and_gradients():
    rng = np.random.default_rng(13)
    image, params, table, space, _, _ = _random_instance(rng)
    zeros = np.zeros(image.shape[1:], dtype=int)
    res = model.backward(image, params, table, space, zeros, zeros, 1.0)
    assert res.loss == 0.0
    assert res.contributing_pixels == 0
    for g in res.grad_weights + res.grad_biases:
        assert np.all(g == 0.0)


def test_masked_ce_hand_case():
    """Three pixels, one unlabeled: loss is exactly -sum log p over the other two."""
    probs = model.ProbGrid((1, 2), np.array([[[0.25, 0.75], [0.6, 0.4], [0.9, 0.1]]]))
    mask = np.array([[2, 0, 1]])
    loss, count = model.masked_cross_entropy(probs, mask)
    want = -(np.log(0.75) + np.log(0.9))
    assert count == 2
    assert abs(loss - want) < 1e-12


def test_masked_ce_unknown_label_rejected():
    probs = model.ProbGrid((1, 2), np.full((1, 1, 2), 0.5))
    with pytest.raises(ValueError):
        model.masked_cross_entropy(probs, np.array([[3]]))


def test_masking_independence():
    """Pixels added outside the mask never change the loss."""
    rng = np.random.default_rng(14)
    image, params, table, space, y, ybar = _random_instance(rng)
    base = model.backward(image, params, table, space, y, ybar, 1.0)
    image2 = image.copy()
    image2[:, y + ybar == 0] = rng.standard_normal(image2[:, y + ybar == 0].shape)
    # window=1: unlabeled pixels do not feed labeled ones
    again = model.backward(image2, params, table, space, y, ybar, 1.0)
    assert abs(base.loss - again.loss) < 1e-10


def test_combined_loss_rejects_overlap(table, space):
    probs_s = model.ProbGrid(space.seen_ids, np.full((1, 1, 3), 1 / 3))
    probs_u = model.ProbGrid(space.unseen_ids, np.full((1, 1, 2), 0.5))
    with pytest.raises(ValueError):
        model.combined_loss(probs_s, np.array([[1]]), probs_u, np.array([[4]]), 1.0)


def test_project_probs_matches_manual(table, space):
    rng = np.random.default_rng(15)
    feat = rng.standard_normal((table.dim, 2, 2))
    grid = model.project_probs(feat, table, space.seen_ids)
    w = table.matrix(space.seen_ids)
    for n in range(2):
        for m in range(2):
            logits = w @ feat[:, n, m]
            e = np.exp(logits - logits.max())
            np.testing.assert_allclose(grid.values[n, m], e / e.sum(), atol=1e-12)
    np.testing.assert_allclose(grid.values.sum(axis=-1), 1.0, atol=1e-12)


def test_embeddings_receive_no_gradient(space):
    """Training updates the backbone only; the table is never touched."""
    rng = np.random.default_rng(16)
    vecs = rng.standard_normal((5, 3))
    frozen = {c: vecs[c - 1].copy() for c in space.all_ids}
    table = make_embedding_table({c: vecs[c - 1] for c in space.all_ids})
    params = model.init_backbone(3, 3, rng=rng)
    state = model.init_optimizer(params, 10, model.TrainConfig(base_lr=0.1))
    image = rng.standard_normal((3, 4, 4))
    y = rng.integers(0, 4, size=(4, 4))
    for _ in range(3):
        res = model.backward(image, params, table, space, y, None, 1.0)
        model.sgd_step(params, res.grad_weights, res.grad_biases, state)
    for c in space.all_ids:
        np.testing.assert_array_equal(table.vectors[c], frozen[c])


def test_poly_lr_schedule():
    assert model.poly_lr(0, 100, 0.5, 0.9) == 0.5
    assert model.poly_lr(100, 100, 0.5, 0.9) == 0.0
    want = 0.5 * (1 - 30 / 100) ** 0.9
    assert abs(model.poly_lr(30, 100, 0.5, 0.9) - want) < 1e-15
    with pytest.raises(ValueError):
        model.poly_lr(101, 100, 0.5)
    with pytest.raises(ValueError):
        model.poly_lr(-1, 100, 0.5)


def test_sgd_step_hand_case():
    """One parameter, two steps, checked against the update rule by hand."""
    params = model.BackboneParams([np.array([[1.0]])], [np.array([0.0])])
    config = model.TrainConfig(momentum=0.5, weight_decay=0.1, base_lr=0.2, power=1.0)
    state = model.init_optimizer(params, 10, config)
    grad_w, grad_b = [np.array([[2.0]])], [np.array([0.0])]
    model.sgd_step(params, grad_w, grad_b, state)
    # lr0 = 0.2, v = -0.2*(2 + 0.1*1) = -0.42, theta = 0.58
    assert abs(params.weights[0][0, 0] - 0.58) < 1e-12
    model.sgd_step(params, grad_w, grad_b, state)
    # lr1 = 0.2*0.9 = 0.18, v = 0.5*-0.42 - 0.18*(2 + 0.058) = -0.58044
    assert abs(params.weights[0][0, 0] - (0.58 - 0.58044)) < 1e-12
    assert state.iteration == 2


def test_infer_gzs_gamma_flip():
    """Seen logit 1.0 vs unseen 0.8: gamma=0.3 flips the pixel to unseen."""
    space = build_label_space([1], [2])
    table = make_embedding_table({1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])})
    params = model.init_backbone(2, 2, scheme="identity")
    image = np.array([[[1.0]], [[0.8]]])  # feature = input for the identity layer
    assert model.infer_gzs(image, params, table, space, 0.0)[0, 0] == 1
    assert model.infer_gzs(image, params, table, space, 0.3)[0, 0] == 2


def test_infer_gzs_gamma_zero_identical(table, space):
    rng = np.random.default_rng(17)
    params = model.init_backbone(3, table.dim, rng=rng)
    image = rng.standard_normal((3, 6, 6))
    np.testing.assert_array_equal(
        model.infer_gzs(image, params, table, space, 0.0),
        model.infer_gzs(image, params, table, space),
    )


def test_infer_ties_break_to_lowest_id():
    space = build_label_space([1], [2])
    table = make_embedding_table({1: np.array([1.0]), 2: np.array([1.0])})
    params = model.init_backbone(1, 1, scheme="identity")
    image = np.ones((1, 2, 2))
    np.testing.assert_array_equal(model.infer_gzs(image, params, table, space), 1)


def test_argmax_labels_restricted(table, space):
    rng = np.random.default_rng(18)
    feat = rng.standard_normal((table.dim, 5, 5))
    labels = model.argmax_labels(feat, table, space.unseen_ids)
    assert set(np.unique(labels)) <= set(space.unseen_ids)


def test_window_stack_neighborhood():
    """k=3 feeds each pixel its 3x3 neighborhood, edges replicated."""
    image = np.arange(9.0).reshape(1, 3, 3)
    params = model.init_backbone(1, 9, window=3, scheme="identity")
    feat = model.forward_backbone(image, params)
    # center pixel sees the full ordered window
    np.testing.assert_array_equal(feat[:, 1, 1], np.arange(9.0))
    # corner pixel sees edge-replicated values
    assert feat[0, 0, 0] == 0.0 and feat[8, 0, 0] == 4.0


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    params = model.init_backbone(4, 3, (5,), window=3, rng=rng)
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, params)
    back = model.load_checkpoint(path)
    assert back.window == params.window == 3
    for a, b in zip(back.weights + back.biases, params.weights + params.biases):
        np.testing.assert_array_equal(a, b)
    # weights only: header, two layer shapes, then the float64 payload
    n_floats = sum(w.size + b.size for w, b in zip(params.weights, params.biases))
    assert path.stat().st_size == 8 + 12 + 2 * 8 + 8 * n_floats


def test_failed_checkpoint_replace_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    old = model.init_backbone(3, 2, rng=np.random.default_rng(1))
    model.save_checkpoint(path, old)
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(model.os, "replace", crash)
    with pytest.raises(OSError, match="disk full"):
        model.save_checkpoint(path, model.init_backbone(3, 2, rng=np.random.default_rng(2)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    back = model.load_checkpoint(path)
    np.testing.assert_array_equal(back.weights[0], old.weights[0])


def _checkpoint(path, window, shapes, extra=b""):
    """A version 2 file with the given header, a zero payload and ``extra`` bytes."""
    header = model.CHECKPOINT_MAGIC + struct.pack("<III", 2, window, len(shapes))
    header += b"".join(struct.pack("<II", *shape) for shape in shapes)
    path.write_bytes(header + bytes(8 * sum(o * (i + 1) for o, i in shapes)) + extra)
    return path


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError):
        model.load_checkpoint(path)

    good = tmp_path / "good.ckpt"
    params = model.init_backbone(2, 2)
    model.save_checkpoint(good, params)
    data = good.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError) as err:
        model.load_checkpoint(trunc)
    assert "byte" in str(err.value)

    # version 1 files (weights plus an optimizer-state section) are refused
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(data[:8] + (1).to_bytes(4, "little") + data[12:] + b"\x00")
    with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
        model.load_checkpoint(v1)

    # headers save_checkpoint cannot write are refused, not a crash or a
    # confusing error later (exit 2 at the CLI)
    ok = model.load_checkpoint(_checkpoint(path, 3, [(5, 18), (4, 5)]))
    assert (ok.window, ok.in_channels, ok.out_dim) == (3, 2, 4)
    for window, shapes, extra, message in (
        (3, [], b"", "no layers"),
        (0, [(4, 6)], b"", "window 0 is not a positive odd number"),
        (2, [(4, 24)], b"", "window 2 is not a positive odd number"),
        (3, [(4, 6)], b"", "6 inputs do not split into 3x3 windows"),
        (1, [(5, 6), (4, 3)], b"", "do not chain"),
        (1, [(4, 6)], b"\x00", "header describes"),
    ):
        with pytest.raises(FormatError, match=message):
            model.load_checkpoint(_checkpoint(path, window, shapes, extra))

    # a checkpoint cut at any byte is refused
    model.save_checkpoint(path, model.init_backbone(2, 3, (2,), window=3))
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            model.load_checkpoint(path)

"""Pseudo-label strategies: intersection oracle, top-p oracle, invariants."""

import numpy as np
import pytest

from gzlss import augmentation as aug
from gzlss import pseudo_labeler as pl
from gzlss.label_space import build_label_space, make_embedding_table
from gzlss.model import argmax_labels, forward_backbone, init_backbone, project_probs


def _brute_intersect(label_grids):
    """Reference: per-pixel all-equal loop."""
    out = np.zeros_like(label_grids[0])
    n, m = out.shape
    for i in range(n):
        for j in range(m):
            vals = {g[i, j] for g in label_grids}
            if len(vals) == 1:
                out[i, j] = label_grids[0][i, j]
    return out


def test_parse_strategy_grammar():
    assert pl.parse_strategy("strict") == ("strict", 0.0)
    assert pl.parse_strategy("raw_st") == ("raw_st", 0.0)
    assert pl.parse_strategy("topp:30") == ("top_p", 30.0)
    assert pl.parse_strategy("topp:2.5") == ("top_p", 2.5)
    for bad in ("hard", "topp:", "topp:-1", "topp:101", "strict "):
        if bad == "strict ":
            assert pl.parse_strategy(bad)[0] == "strict"  # whitespace tolerated
            continue
        with pytest.raises(ValueError):
            pl.parse_strategy(bad)


def test_unlabeled_pixels():
    mask = np.array([[0, 1], [2, 0]])
    np.testing.assert_array_equal(
        pl.unlabeled_pixels(mask), [[True, False], [False, True]]
    )


def test_intersect_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n, m = rng.integers(1, 9, size=2)
        k = int(rng.integers(1, 5))
        grids = [rng.integers(0, 4, size=(n, m)) for _ in range(k)]
        np.testing.assert_array_equal(pl.consistency_intersect(grids), _brute_intersect(grids))


def test_intersect_shrinks_and_ignores_order():
    rng = np.random.default_rng(32)
    for _ in range(100):
        grids = [rng.integers(0, 3, size=(5, 5)) for _ in range(3)]
        full = pl.consistency_intersect(grids)
        sub = pl.consistency_intersect(grids[:2])
        # more views can only remove labels
        assert np.all((full == 0) | (full == sub))
        perm = pl.consistency_intersect(grids[::-1])
        np.testing.assert_array_equal(full, perm)


def test_intersect_rejects_mismatched_shapes():
    a = np.zeros((2, 2), dtype=int)
    b = np.zeros((2, 3), dtype=int)
    with pytest.raises(ValueError):
        pl.consistency_intersect([a, b])
    with pytest.raises(ValueError):
        pl.consistency_intersect([])


def _setup(rng, n=6, m=7):
    space = build_label_space([1, 2], [3, 4, 5])
    vecs = rng.standard_normal((5, 4))
    table = make_embedding_table({c: vecs[c - 1] for c in space.all_ids})
    params = init_backbone(3, 4, rng=rng)
    image = rng.standard_normal((3, n, m))
    y = rng.integers(0, 3, size=(n, m))
    return space, table, params, image, y


SPECS = [aug.identity_spec(), aug.mirror_spec(), aug.scale_spec(2)]


def test_generate_safety_invariants():
    """Only unseen ids, and never on a pixel that already has a real label."""
    rng = np.random.default_rng(33)
    for strategy in ("strict", "raw_st", "topp:40"):
        space, table, params, image, y = _setup(rng)
        pm = pl.generate(strategy, params, image, y, SPECS, table, space)
        assert set(np.unique(pm.labels)) <= {0, *space.unseen_ids}
        assert np.all(pm.labels[y > 0] == 0)


def test_generate_requires_identity_first():
    rng = np.random.default_rng(34)
    space, table, params, image, y = _setup(rng)
    with pytest.raises(ValueError):
        pl.generate("strict", params, image, y, [aug.mirror_spec()], table, space)


def test_raw_st_equals_strict_with_identity_only():
    rng = np.random.default_rng(35)
    for _ in range(5):
        space, table, params, image, y = _setup(rng)
        raw = pl.generate("raw_st", params, image, y, SPECS, table, space)
        strict1 = pl.generate("strict", params, image, y, [aug.identity_spec()], table, space)
        np.testing.assert_array_equal(raw.labels, strict1.labels)


def test_strict_subset_of_raw():
    rng = np.random.default_rng(36)
    for _ in range(5):
        space, table, params, image, y = _setup(rng)
        raw = pl.generate("raw_st", params, image, y, SPECS, table, space)
        strict = pl.generate("strict", params, image, y, SPECS, table, space)
        keep = strict.labels > 0
        np.testing.assert_array_equal(strict.labels[keep], raw.labels[keep])


def test_top_p_matches_sort_and_cut():
    """Drop count and drop set match an explicit sort over confidences."""
    rng = np.random.default_rng(37)
    for p in (0.0, 25.0, 50.0, 100.0):
        space, table, params, image, y = _setup(rng)
        pm = pl.generate(f"topp:{p}", params, image, y, SPECS, table, space)
        unlabeled = pl.unlabeled_pixels(y)
        n_i = int(unlabeled.sum())
        want_kept = n_i - int(np.floor(p * n_i / 100.0))
        assert int((pm.labels > 0).sum()) == want_kept

        # reference: rank I pixels by assigned-label prob under the full softmax
        feat = forward_backbone(image, params)
        probs = project_probs(feat, table, space.all_ids)
        full = pl.generate("topp:0", params, image, y, SPECS, table, space)
        conf = np.zeros(unlabeled.shape)
        for i, j in zip(*np.nonzero(unlabeled)):
            conf[i, j] = probs.values[i, j, full.labels[i, j] - 1]
        flat_i = np.flatnonzero(unlabeled.ravel())
        order = np.argsort(conf.ravel()[flat_i], kind="stable")
        dropped = set(flat_i[order[: n_i - want_kept]].tolist())
        got_dropped = {
            int(k) for k in flat_i if pm.labels.ravel()[k] == 0
        }
        assert got_dropped == dropped


def test_top_p_hundred_drops_everything():
    rng = np.random.default_rng(38)
    space, table, params, image, y = _setup(rng)
    pm = pl.generate("topp:100", params, image, y, SPECS, table, space)
    assert np.all(pm.labels == 0)


def _reference_generate(strategy, params, image, y, specs, table, space):
    """Reference: mask each view to the unlabelled pixels, then intersect;
    top-p ranks the identity view's assignments by an explicit sort."""
    kind, p = pl.parse_strategy(strategy)
    unlabeled = y == 0
    if kind == pl.TOP_P:
        feat = forward_backbone(image, params)
        assigned = argmax_labels(feat, table, space.unseen_ids)
        probs = project_probs(feat, table, space.all_ids)
        labels = np.where(unlabeled, assigned, 0)
        flat = labels.reshape(-1)
        idx = np.flatnonzero(unlabeled.reshape(-1))
        conf = np.array([probs.values[k // y.shape[1], k % y.shape[1], flat[k] - 1] for k in idx])
        flat[idx[np.argsort(conf, kind="stable")[: int(np.floor(p * idx.size / 100.0))]]] = 0
        return labels
    views = []
    for spec in specs if kind == pl.STRICT else specs[:1]:
        hard = argmax_labels(forward_backbone(aug.apply(spec, image), params), table,
                             space.unseen_ids)
        views.append(np.where(unlabeled, aug.invert_mask(spec, hard, y.shape), 0))
    labels = views[0].copy()
    for view in views[1:]:
        labels = np.where(labels == view, labels, 0)
    return labels


def test_generate_bitwise_equals_mask_then_intersect():
    """Masking once, on the intersection, gives the bytes of masking every
    view first, for all three strategies on random parameters and sizes,
    fully labelled masks included."""
    rng = np.random.default_rng(39)
    specs = aug.parse_spec_list("identity,mirror,scale=3/2,scale=1/2,scale=5/4")
    for strategy in ("strict", "raw_st", "topp:30"):
        for case in range(6):
            n, m = (int(v) for v in rng.integers(3, 11, size=2))
            space, table, params, image, y = _setup(rng, n, m)
            if case >= 4:
                y = np.where(y == 0, case - 3, y)  # no unlabelled pixel
            got = pl.generate(strategy, params, image, y, specs, table, space).labels
            want = _reference_generate(strategy, params, image, y, specs, table, space)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), strategy


def test_fully_labelled_image_runs_no_view(monkeypatch):
    """A mask with no unlabelled pixel gets the empty mask without a view
    being resampled or forwarded, and every refusal still stands."""
    rng = np.random.default_rng(40)
    space, table, params, image, y = _setup(rng)
    y = np.where(y == 0, 2, y)

    def no_view(*args, **kwargs):
        raise AssertionError("a view ran on a fully labelled image")

    monkeypatch.setattr(pl, "forward_backbone", no_view)
    monkeypatch.setattr(aug, "apply", no_view)
    for strategy in ("strict", "raw_st", "topp:30"):
        got = pl.generate(strategy, params, image, y, SPECS, table, space).labels
        assert got.dtype == np.int64 and got.shape == y.shape and not got.any()
        refused = [
            (strategy, image[:2], y, SPECS),  # wrong channel count
            (strategy, image[0], y, SPECS),  # wrong rank
            (strategy, image, y[:, :-1], SPECS),  # mask not on the image's grid
            (strategy, image, y[:1], SPECS),  # ... even where it would broadcast
            (strategy, image, y, SPECS[1:]),  # identity not first
            ("strict!", image, y, SPECS),  # unknown strategy
        ]
        for name, im, mask, specs in refused:
            with pytest.raises(ValueError):
                pl.generate(name, params, im, mask, specs, table, space)

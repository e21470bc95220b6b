"""Benchmark generation: determinism, redaction, oracle, file formats."""

import numpy as np
import pytest

from gzlss import synthetic_data as sd
from gzlss.errors import FormatError
from gzlss.metrics import evaluate_pairs
from gzlss.model import load_checkpoint

SMALL = dict(height=16, width=16, channels=6, embed_dim=4, num_seen=3,
             num_unseen=2, train_images=10, eval_images=5, min_class_images=2)


def test_config_validation():
    with pytest.raises(ValueError):
        sd.GeneratorConfig(height=4)
    with pytest.raises(ValueError):
        sd.GeneratorConfig(channels=4, embed_dim=8)
    with pytest.raises(ValueError):
        sd.GeneratorConfig(noise=-0.1)
    with pytest.raises(ValueError):
        sd.GeneratorConfig(shapes_min=3, shapes_max=2)
    with pytest.raises(ValueError):
        sd.GeneratorConfig(cooccurrence=1.5)
    with pytest.raises(ValueError):
        sd.GeneratorConfig(shape_kinds=("triangle",))
    with pytest.raises(ValueError):
        sd.GeneratorConfig(background="transparent")


def test_generation_deterministic():
    a = sd.generate(sd.GeneratorConfig(seed=5, **SMALL))
    b = sd.generate(sd.GeneratorConfig(seed=5, **SMALL))
    np.testing.assert_array_equal(a.train[0].image, b.train[0].image)
    np.testing.assert_array_equal(a.train[3].hidden_gt, b.train[3].hidden_gt)
    np.testing.assert_array_equal(a.hidden.matrix, b.hidden.matrix)
    c = sd.generate(sd.GeneratorConfig(seed=6, **SMALL))
    assert not np.array_equal(a.train[0].image, c.train[0].image)


def test_train_masks_redact_unseen():
    ds = sd.generate(sd.GeneratorConfig(seed=1, **SMALL))
    seen_max = max(ds.space.seen_ids)
    for s in ds.train + ds.eval:
        assert s.train_mask.max() <= seen_max
        # redaction only rewrites unseen pixels to 0
        np.testing.assert_array_equal(
            s.train_mask[s.hidden_gt <= seen_max], s.hidden_gt[s.hidden_gt <= seen_max]
        )
        assert np.all(s.train_mask[s.hidden_gt > seen_max] == 0)


def test_every_class_appears():
    ds = sd.generate(sd.GeneratorConfig(seed=2, **SMALL))
    presence = {c: 0 for c in ds.space.all_ids}
    for s in ds.train:
        for c in np.unique(s.hidden_gt):
            if c > 0:
                presence[int(c)] += 1
    assert all(v >= 2 for v in presence.values())


def test_cooccurrence_zero_keeps_unseen_out():
    cfg = sd.GeneratorConfig(seed=3, cooccurrence=0.0, **SMALL)
    ds = sd.generate(cfg)
    for s in ds.train + ds.eval:
        assert s.hidden_gt.max() <= max(ds.space.seen_ids)


def test_seen_background_mode():
    cfg = sd.GeneratorConfig(seed=4, background="seen", background_id=1, **SMALL)
    ds = sd.generate(cfg)
    assert ds.space.background_id == 1
    for s in ds.train:
        assert np.all(s.hidden_gt > 0)  # no ignored pixels at all
        # unlabeled training pixels are exactly the unseen regions
        np.testing.assert_array_equal(
            s.train_mask == 0, s.hidden_gt > max(ds.space.seen_ids)
        )


def test_oracle_is_perfect_at_zero_noise():
    cfg = sd.GeneratorConfig(seed=5, noise=0.0, **SMALL)
    ds = sd.generate(cfg)
    rep = evaluate_pairs(
        sd.oracle_backbone(ds.hidden),
        [(s.image, s.hidden_gt) for s in ds.eval],
        ds.table, ds.space,
    )
    assert rep.seen_miou == 100.0 and rep.unseen_miou == 100.0 and rep.hm == 100.0


def test_feat_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    img = rng.standard_normal((3, 5, 4)).astype(np.float32)
    path = tmp_path / "x.feat"
    sd.write_feat(img, path)
    np.testing.assert_array_equal(sd.read_feat(path), img)


def test_feat_errors(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError):
        sd.read_feat(path)
    img = np.zeros((2, 3, 3), dtype=np.float32)
    good = tmp_path / "good.feat"
    sd.write_feat(img, good)
    data = good.read_bytes()
    trunc = tmp_path / "trunc.feat"
    trunc.write_bytes(data[:-5])
    with pytest.raises(FormatError) as err:
        sd.read_feat(trunc)
    assert f"byte {len(data) - 5}" in str(err.value)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    mask = rng.integers(0, 255, size=(7, 3))
    path = tmp_path / "m.pgm"
    sd.write_pgm(mask, path)
    np.testing.assert_array_equal(sd.read_pgm(path), mask)
    header = path.read_bytes()[:15]
    assert header.startswith(b"P5\n3 7\n255\n")


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        sd.read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00")  # 2 of 4 raster bytes
    with pytest.raises(FormatError) as err:
        sd.read_pgm(path)
    assert "byte" in str(err.value)
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        sd.read_pgm(path)
    with pytest.raises(ValueError):
        sd.write_pgm(np.array([[300]]), tmp_path / "big.pgm")


def test_pgm_comment_lines(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x05\x09")
    np.testing.assert_array_equal(sd.read_pgm(path), [[5, 9]])


def test_dataset_round_trip(tmp_path):
    ds = sd.generate(sd.GeneratorConfig(seed=6, **SMALL))
    root = tmp_path / "ds"
    sd.save_dataset(ds, str(root))
    back = sd.load_dataset(str(root), include_hidden=True)
    assert back.config == ds.config
    assert back.space == ds.space
    for c in ds.space.all_ids:
        np.testing.assert_array_equal(back.table.vectors[c], ds.table.vectors[c])
    for a, b in zip(ds.train, back.train):
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.train_mask, b.train_mask)
        np.testing.assert_array_equal(a.hidden_gt, b.hidden_gt)
    np.testing.assert_array_equal(back.hidden.matrix, ds.hidden.matrix)
    np.testing.assert_array_equal(back.hidden.background_vector, ds.hidden.background_vector)

    # the stored oracle checkpoint matches a fresh pseudo-inverse
    params = load_checkpoint(root / "oracle.ckpt")
    np.testing.assert_array_equal(params.weights[0], sd.oracle_backbone(ds.hidden).weights[0])


def test_load_withholds_hidden_by_default(tmp_path):
    ds = sd.generate(sd.GeneratorConfig(seed=7, **SMALL))
    root = tmp_path / "ds"
    sd.save_dataset(ds, str(root))
    back = sd.load_dataset(str(root))
    assert back.hidden is None
    assert all(s.hidden_gt is None for s in back.train)
    assert all(s.hidden_gt is not None for s in back.eval)  # eval gt always loads


def test_load_missing_meta(tmp_path):
    with pytest.raises(FormatError):
        sd.load_dataset(str(tmp_path / "nowhere"))


def test_load_rejects_bad_masks_by_file(tmp_path):
    """Masks are checked against the label space once, when they are read."""
    ds = sd.generate(sd.GeneratorConfig(seed=8, **SMALL))
    root = tmp_path / "ds"
    sd.save_dataset(ds, str(root))
    unseen = ds.space.unseen_ids[0]

    bad = root / "train" / "img_0003.mask.pgm"
    good = sd.read_pgm(bad)
    mask = good.copy()
    mask[0, 0] = unseen
    sd.write_pgm(mask, bad)
    with pytest.raises(FormatError, match="img_0003.mask.pgm.*non-seen ids"):
        sd.load_dataset(str(root))
    sd.write_pgm(good, bad)

    gt_path = root / "eval" / "img_0001.gt.pgm"
    gt = sd.read_pgm(gt_path)
    gt[0, 0] = max(ds.space.all_ids) + 1
    sd.write_pgm(gt, gt_path)
    with pytest.raises(FormatError, match="img_0001.gt.pgm.*unknown ids"):
        sd.load_dataset(str(root))

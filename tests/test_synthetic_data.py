"""Benchmark generation: determinism, redaction, oracle, file formats."""

import shutil

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
    size = (SMALL["height"], SMALL["width"])
    for s in ds.train + ds.eval:
        # training trusts these shapes; only a loaded dataset is checked
        assert s.image.shape == (SMALL["channels"], *size)
        assert s.train_mask.shape == s.hidden_gt.shape == size
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


# seed 3 renders this eval split twice, seed 0 fourteen times
RETRYING = dict(height=16, width=16, channels=6, embed_dim=4, num_seen=3, num_unseen=2,
                train_images=6, eval_images=6, min_class_images=2, shapes_min=2,
                shapes_max=3, cooccurrence=0.7)


@pytest.mark.parametrize("seed, renders", [(3, 18), (0, 90)])
def test_render_restarts_a_retried_split_at_index_0(seed, renders):
    """The stream yields every render, train then eval, each attempt at a
    split from index 0; generate keeps the last render of every index."""
    cfg = sd.GeneratorConfig(seed=seed, **RETRYING)
    header, samples = sd.render(cfg)
    assert header.train is None and header.eval is None
    stream = list(samples)
    assert len(stream) == renders
    splits = [split for split, _, _ in stream]
    assert splits == sorted(splits, key=sd.SPLITS.index)
    for split, count in (("train", cfg.train_images), ("eval", cfg.eval_images)):
        indices = [i for sp, i, _ in stream if sp == split]
        assert indices == list(range(count)) * (len(indices) // count)

    kept = {(split, i): s for split, i, s in stream}
    ds = sd.generate(cfg)
    assert (ds.config, ds.space) == (header.config, header.space)
    np.testing.assert_array_equal(ds.hidden.matrix, header.hidden.matrix)
    for split in sd.SPLITS:
        for i, s in enumerate(getattr(ds, split)):
            for a in ("image", "train_mask", "hidden_gt"):
                assert getattr(s, a).tobytes() == getattr(kept[split, i], a).tobytes()


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


def test_readers_refuse_trailing_bytes(tmp_path):
    """A file longer than its header says is refused, by name and offset."""
    feat = tmp_path / "x.feat"
    sd.write_feat(np.zeros((2, 3, 4), dtype=np.float32), feat)
    size = feat.stat().st_size
    feat.write_bytes(feat.read_bytes() + b"junk")
    with pytest.raises(FormatError, match=f"x.feat: trailing bytes .* at byte {size}"):
        sd.read_feat(feat)

    pgm = tmp_path / "x.pgm"
    sd.write_pgm(np.ones((3, 4), dtype=np.int64), pgm)
    size = pgm.stat().st_size
    pgm.write_bytes(pgm.read_bytes() + bytes(8))
    with pytest.raises(FormatError, match=f"x.pgm: trailing bytes .* at byte {size}"):
        sd.read_pgm(pgm)


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


def test_load_reads_only_the_named_splits(tmp_path):
    ds = sd.generate(sd.GeneratorConfig(seed=7, **SMALL))
    for split, kept in (("train", "eval"), ("eval", "train")):
        root = tmp_path / split
        sd.save_dataset(ds, str(root))
        shutil.rmtree(root / split)
        back = sd.load_dataset(str(root), include_hidden=True, splits=(kept,))
        assert getattr(back, split) is None  # not [], so a misuse fails at once
        assert len(getattr(back, kept)) == len(getattr(ds, kept))
        for a, b in zip(getattr(back, kept), getattr(ds, kept)):
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.train_mask, b.train_mask)
            np.testing.assert_array_equal(a.hidden_gt, b.hidden_gt)
    with pytest.raises(ValueError, match="unknown splits"):
        sd.load_dataset(str(root), splits=("test",))


def test_iter_split_reads_lazily_and_equals_load(tmp_path):
    """The lazy reader yields what load_dataset holds, and reads a file only
    when its sample is drawn: a bad file is reached, not read ahead."""
    ds = sd.generate(sd.GeneratorConfig(seed=9, **SMALL))
    root = tmp_path / "ds"
    sd.save_dataset(ds, str(root))
    for split, hidden in (("train", False), ("train", True), ("eval", False)):
        loaded = getattr(sd.load_dataset(str(root), hidden, splits=(split,)), split)
        streamed = list(sd.iter_split(str(root), split, hidden))
        assert len(streamed) == len(loaded)
        for a, b in zip(streamed, loaded):
            assert a.image.tobytes() == b.image.tobytes()
            assert a.train_mask.tobytes() == b.train_mask.tobytes()
            assert (a.hidden_gt is None) == (b.hidden_gt is None) == (split == "train"
                                                                      and not hidden)
            if a.hidden_gt is not None:
                assert a.hidden_gt.tobytes() == b.hidden_gt.tobytes()

    (root / "train" / "img_0003.feat").write_bytes(b"GZFT")
    samples = sd.iter_split(str(root), "train")
    for _ in range(3):
        next(samples)
    with pytest.raises(FormatError, match="img_0003.feat"):
        next(samples)
    with pytest.raises(ValueError, match="unknown split"):
        next(sd.iter_split(str(root), "test"))


def test_load_missing_meta(tmp_path):
    with pytest.raises(FormatError):
        sd.load_dataset(str(tmp_path / "nowhere"))


def test_load_rejects_bad_masks_by_file(tmp_path):
    """Images and masks are checked once, when they are read: ids against
    the label space, shapes against meta.txt."""
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
    sd.write_pgm(ds.eval[1].hidden_gt, gt_path)
    sd.load_dataset(str(root))  # all good again

    # one row short, or one column too many, in each kind of file
    short = ds.train[2].image[:, 1:]
    for path, bad in ((root / "train" / "img_0002.feat", short),
                      (root / "train" / "img_0004.mask.pgm", ds.train[4].train_mask[1:]),
                      (root / "eval" / "img_0003.gt.pgm",
                       np.pad(ds.eval[3].hidden_gt, ((0, 0), (0, 1))))):
        good = path.read_bytes()
        (sd.write_feat if path.suffix == ".feat" else sd.write_pgm)(bad, str(path))
        with pytest.raises(FormatError, match=f"{path.name}: shape .* but meta.txt gives"):
            sd.load_dataset(str(root))
        path.write_bytes(good)

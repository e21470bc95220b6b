"""Cycle loop: determinism, resume equivalence, history file contract."""

import numpy as np
import pytest

from gzlss import augmentation as aug
from gzlss import self_training as st
from gzlss import synthetic_data as sd
from gzlss.errors import FormatError
from gzlss.model import TrainConfig, load_checkpoint

SPECS = aug.parse_spec_list("identity,mirror,scale=3/2")


@pytest.fixture(scope="module")
def tiny():
    cfg = sd.GeneratorConfig(height=16, width=16, channels=6, embed_dim=4,
                             num_seen=3, num_unseen=2, noise=0.15,
                             train_images=10, eval_images=4, min_class_images=2,
                             background="seen", seed=9)
    return sd.generate(cfg)


def _tc(**kw):
    base = dict(base_iters=30, cycle_iters=12, cycles=3, seed=0,
                base_lr=0.3, batch_size=4)
    base.update(kw)
    return TrainConfig(**base)


def test_batches_cover_all_images():
    rng = np.random.default_rng(51)
    seen = np.zeros(7, dtype=int)
    for batch in st._batch_indices(7, 3, 7, rng):
        assert len(batch) == 3
        np.add.at(seen, batch, 1)  # batches may repeat an image across epochs
    # 21 draws over 3 epochs: each image exactly 3 times
    np.testing.assert_array_equal(seen, 3)


def test_base_training_beats_init(tiny):
    params = st.train_base(tiny, _tc())
    from gzlss.metrics import evaluate_pairs
    rep = evaluate_pairs(params, [(s.image, s.hidden_gt) for s in tiny.eval],
                         tiny.table, tiny.space)
    assert rep.seen_miou > 50.0  # seen classes are directly supervised


def test_zero_base_iters_returns_init(tiny):
    from gzlss.model import init_backbone
    params = st.train_base(tiny, _tc(base_iters=0))
    rng = np.random.default_rng([0, st.TAG_BASE])
    want = init_backbone(6, 4, (), 1, rng)
    for a, b in zip(params.weights + params.biases, want.weights + want.biases):
        np.testing.assert_array_equal(a, b)


def test_separable_data_reaches_perfect_seen_training_miou():
    from gzlss.model import argmax_labels, forward_backbone
    cfg = sd.GeneratorConfig(height=16, width=16, channels=6, embed_dim=4,
                             num_seen=3, num_unseen=2, noise=0.0,
                             train_images=8, eval_images=4, min_class_images=2,
                             background="seen", seed=3)
    ds = sd.generate(cfg)
    params = st.train_base(ds, _tc(base_iters=300))
    for s in ds.train:
        pred = argmax_labels(forward_backbone(s.image, params),
                             ds.table, ds.space.seen_ids)
        labeled = s.train_mask > 0
        np.testing.assert_array_equal(pred[labeled], s.train_mask[labeled])


def test_run_is_deterministic(tiny):
    tc = _tc()
    p1, r1 = st.strict_train(tiny, tc, SPECS)
    p2, r2 = st.strict_train(tiny, tc, SPECS)
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        np.testing.assert_array_equal(a, b)
    assert [(r.cycle, r.seen_miou, r.hm) for r in r1] == \
           [(r.cycle, r.seen_miou, r.hm) for r in r2]


def test_resume_matches_uninterrupted(tiny, tmp_path):
    tc = _tc()
    full_params, full_records = st.strict_train(tiny, tc, SPECS)

    ckdir = tmp_path / "run"
    st.strict_train(tiny, _tc(cycles=1), SPECS, checkpoint_dir=str(ckdir))
    mid = load_checkpoint(ckdir / "cycle_001.ckpt")
    resumed, _ = st.strict_train(tiny, tc, SPECS, start_cycle=2, start_params=mid)
    for a, b in zip(full_params.weights + full_params.biases,
                    resumed.weights + resumed.biases):
        np.testing.assert_array_equal(a, b)

    # resumed history carries on from the provided rows
    head = [r for r in full_records if r.cycle < 2]
    _, records = st.strict_train(tiny, tc, SPECS, start_cycle=2, start_params=mid,
                                 history=head)
    assert [r.cycle for r in records] == [0, 1, 2, 3]
    assert [r.hm for r in records] == [r.hm for r in full_records]


def test_resume_requires_params(tiny):
    with pytest.raises(ValueError):
        st.strict_train(tiny, _tc(), SPECS, start_cycle=2)


def test_checkpoints_written(tiny, tmp_path):
    ckdir = tmp_path / "ck"
    st.strict_train(tiny, _tc(cycles=2), SPECS, checkpoint_dir=str(ckdir))
    for t in range(3):
        assert (ckdir / f"cycle_{t:03d}.ckpt").exists()
    # history is rewritten after every cycle, through a temporary file
    assert [r.cycle for r in st.read_history_csv(ckdir / st.HISTORY_FILE)] == [0, 1, 2]
    assert [p.name for p in ckdir.iterdir() if p.suffix == ".tmp"] == []


def test_fully_labeled_dataset_degenerates_to_seen_only():
    """No unlabeled pixels: pseudo masks are all zero and strategies coincide."""
    cfg = sd.GeneratorConfig(height=16, width=16, channels=6, embed_dim=4,
                             num_seen=3, num_unseen=2, noise=0.15,
                             cooccurrence=0.0, train_images=6, eval_images=4,
                             min_class_images=2, background="seen", seed=11)
    ds = sd.generate(cfg)
    assert sum(int((s.train_mask == 0).sum()) for s in ds.train) == 0
    base = st.train_base(ds, _tc(cycles=2))
    pseudo = st.generate_pseudo(base, ds, SPECS, "strict", 1)
    assert all(not m.labels.any() for m in pseudo)
    ps, rs = st.strict_train(ds, _tc(cycles=2), SPECS, "strict")
    pr, _ = st.strict_train(ds, _tc(cycles=2), SPECS[:1], "raw_st")
    for a, b in zip(ps.weights + ps.biases, pr.weights + pr.biases):
        np.testing.assert_array_equal(a, b)
    assert rs[1].pl_coverage is None  # |I| = 0, rates undefined


def test_strict_coverage_grows_as_model_improves():
    """Retraining widens view agreement: cycle-2 labels cover more of I."""
    cfg = sd.GeneratorConfig(height=16, width=16, channels=6, embed_dim=4,
                             num_seen=3, num_unseen=2, noise=0.45,
                             shapes_min=2, shapes_max=3, train_images=10,
                             eval_images=5, min_class_images=2,
                             background="seen", background_id=1, seed=0)
    ds = sd.generate(cfg)
    tc = TrainConfig(base_iters=120, cycle_iters=60, cycles=2, seed=0,
                     base_lr=0.3, batch_size=4, window=3)
    _, recs = st.strict_train(ds, tc, SPECS, "strict", gamma=1.0)
    assert recs[1].pl_coverage < recs[2].pl_coverage < 100.0


def test_quality_none_when_gt_withheld(tiny, tmp_path):
    sd.save_dataset(tiny, str(tmp_path / "d"))
    blind = sd.load_dataset(str(tmp_path / "d"))  # train gt withheld
    _, records = st.strict_train(blind, _tc(cycles=1), SPECS)
    assert records[1].pl_precision is None
    assert records[1].pl_coverage is None
    assert records[0].pl_precision is None  # base row never has quality


def test_history_csv_round_trip(tiny, tmp_path):
    _, records = st.strict_train(tiny, _tc(cycles=2), SPECS)
    path = tmp_path / "history.csv"
    st.write_history_csv(records, path)
    back = st.read_history_csv(path)
    assert [r.cycle for r in back] == [0, 1, 2]
    for a, b in zip(records, back):
        assert abs(a.hm - b.hm) < 5e-5  # %.4f rounding
        assert (a.pl_precision is None) == (b.pl_precision is None)
    assert all(r.seconds == 0.0 for r in back)  # timings withheld by default


def test_history_csv_reruns_byte_identical(tiny, tmp_path):
    tc = _tc(cycles=2)
    _, r1 = st.strict_train(tiny, tc, SPECS)
    _, r2 = st.strict_train(tiny, tc, SPECS)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    st.write_history_csv(r1, a)
    st.write_history_csv(r2, b)
    assert a.read_bytes() == b.read_bytes()


def test_history_csv_timings_flag(tiny, tmp_path):
    _, records = st.strict_train(tiny, _tc(cycles=1), SPECS)
    path = tmp_path / "t.csv"
    st.write_history_csv(records, path, timings=True)
    secs = [line.split(",")[-1] for line in path.read_text().splitlines()[2:]]
    assert any(s != "0.000" for s in secs)


def test_history_csv_schema_enforced(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("cycle,seen\n0,1\n")
    with pytest.raises(FormatError):
        st.read_history_csv(path)
    path.write_text(st.HISTORY_SCHEMA + "\n" + st.HISTORY_COLUMNS + "\n0,1,2\n")
    with pytest.raises(FormatError):
        st.read_history_csv(path)
    with pytest.raises(FormatError):
        st.read_history_csv(tmp_path / "missing.csv")

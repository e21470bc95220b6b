"""Acceptance gate: ten checks, one pass/fail line each.

Fast checks are exact arithmetic or property suites with explicit oracles;
the benchmark checks (7, 8, 10) train real models on the standard synthetic
benchmark across ten seeds and assert the directional claims: consistency
filtering raises pseudo-label precision, self-training lifts unseen mIoU,
and the filtered variant ends at least as high as unfiltered self-training.
"""

import time

import numpy as np
import pytest

from gzlss import augmentation as aug
from gzlss import cli
from gzlss import model
from gzlss import pseudo_labeler as pl
from gzlss import self_training as st
from gzlss import synthetic_data as sd
from gzlss.label_space import build_label_space, make_embedding_table
from gzlss.metrics import evaluate_pairs, harmonic_mean


def _verdict(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


# ---------------------------------------------------------------------------
# the standard synthetic benchmark used by criteria 7, 8 and 10

BENCH_DATA = dict(height=32, width=32, channels=16, embed_dim=12,
                  num_seen=6, num_unseen=3, noise=0.45, cooccurrence=0.7,
                  shapes_min=4, shapes_max=7,
                  train_images=200, eval_images=50, min_class_images=3,
                  background="seen", background_id=1)
BENCH_TRAIN = dict(base_iters=150, cycle_iters=150, cycles=6,
                   base_lr=0.3, batch_size=8, lam=3.0, window=3)
BENCH_GAMMA = 0.5
BENCH_SEEDS = 10
BENCH_SPECS = aug.parse_spec_list("identity,mirror,scale=3/2")


@pytest.fixture(scope="module")
def bench_runs():
    """Per-seed strict and raw_st self-training histories (shared by 7 and 8)."""
    runs = []
    for seed in range(BENCH_SEEDS):
        ds = sd.generate(sd.GeneratorConfig(seed=seed, **BENCH_DATA))
        tc = model.TrainConfig(seed=seed, **BENCH_TRAIN)
        _, strict = st.strict_train(ds, tc, BENCH_SPECS, "strict", gamma=BENCH_GAMMA)
        _, raw = st.strict_train(ds, tc, BENCH_SPECS[:1], "raw_st", gamma=BENCH_GAMMA)
        runs.append((strict, raw))
    return runs


# ---------------------------------------------------------------------------


def test_criterion_1_harmonic_mean_rows():
    """HM reproduces every (S, U) -> HM summary row within +-0.05."""
    rows = [(82.7, 35.6, 49.8), (77.8, 25.8, 38.8), (78.0, 21.2, 33.3),
            (78.6, 30.3, 43.7), (35.3, 30.3, 32.6), (82.5, 32.9, 47.0)]
    # The reference rows print S, U and HM rounded independently, so the
    # computed HM is compared at the table's own precision: exact 2SU/(S+U)
    # of (77.8, 25.8) is 38.7498, which quotes as 38.75 and sits within 0.05
    # of the printed 38.8 (unquoted it would miss by 0.0002).
    errs = [abs(round(harmonic_mean(s, u), 2) - hm) for s, u, hm in rows]
    _verdict(1, "harmonic-mean arithmetic", max(errs) <= 0.05,
             f"max deviation {max(errs):.4f}")


def test_criterion_2_gradient_suite():
    """Analytic gradients vs central differences on 20 random instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        hidden = ((), (4,), (3, 3))[trial % 3]
        window = 3 if trial % 5 == 0 else 1
        space = build_label_space([1, 2], [3, 4])
        vecs = rng.standard_normal((4, 3))
        table = make_embedding_table({c: vecs[c - 1] for c in space.all_ids})
        params = model.init_backbone(2, 3, hidden, window, rng)
        image = rng.standard_normal((2, n, m))
        y = rng.integers(0, 3, size=(n, m))
        ybar = np.where(y == 0, rng.integers(3, 5, size=(n, m)), 0)
        lam = float(rng.uniform(0.5, 2.0))
        res = model.backward(image, params, table, space, y, ybar, lam)

        def loss_at():
            feat = model.forward_backbone(image, params)
            ps = model.project_probs(feat, table, space.seen_ids)
            pu = model.project_probs(feat, table, space.unseen_ids)
            return model.combined_loss(ps, y, pu, ybar, lam)

        h = 1e-5
        for arr, got in zip(params.weights + params.biases,
                            res.grad_weights + res.grad_biases):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_at()
                flat[i] = orig - h
                down = loss_at()
                flat[i] = orig
                num = (up - down) / (2 * h)
                denom = max(abs(num), 1e-6)
                worst = max(worst, abs(got.reshape(-1)[i] - num) / denom)
    dt = time.perf_counter() - t0
    _verdict(2, "gradient suite", worst < 1e-4 and dt < 10.0,
             f"max rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_3_consistency_oracle():
    """Intersection vs brute force on 1000 instances, plus its invariants."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        n, m = rng.integers(1, 9, size=2)
        k = int(rng.integers(1, 5))
        grids = [rng.integers(0, 5, size=(n, m)) for _ in range(k)]
        got = pl.consistency_intersect(grids)

        brute = grids[0].copy()
        for i in range(n):
            for j in range(m):
                if len({g[i, j] for g in grids}) != 1:
                    brute[i, j] = 0
        ok &= bool(np.array_equal(got, brute))
        # shrinking: adding a view never adds labels
        sub = pl.consistency_intersect(grids[: max(1, k - 1)])
        ok &= bool(np.all((got == 0) | (got == sub)))
        # order independence
        ok &= bool(np.array_equal(got, pl.consistency_intersect(grids[::-1])))
        # safety: output labels come from the first mask
        keep = got > 0
        ok &= bool(np.array_equal(got[keep], grids[0][keep]))
        if not ok:
            break
    dt = time.perf_counter() - t0
    _verdict(3, "consistency oracle", ok and dt < 10.0, f"{dt:.1f}s")


def test_criterion_4_augmentation_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    mirror = aug.mirror_spec()
    for _ in range(1000):
        n, m = rng.integers(1, 11, size=2)
        mask = rng.integers(0, 8, size=(n, m))
        ok &= bool(np.array_equal(aug.apply_mask(mirror, aug.apply_mask(mirror, mask)), mask))
        factor = int(rng.integers(2, 4))
        spec = aug.scale_spec(factor)
        up = aug.apply_mask(spec, mask)
        ok &= up.shape == aug.scaled_size((n, m), spec)
        back = aug.invert_mask(spec, up, (n, m))
        ok &= back.shape == (int(n), int(m))
        ok &= bool(np.array_equal(back, mask))
        if not ok:
            break
    dt = time.perf_counter() - t0
    _verdict(4, "augmentation round-trips", ok and dt < 10.0, f"{dt:.1f}s")


def test_criterion_5_masked_loss():
    """All-unlabeled => loss and gradients exactly zero; 3-pixel hand case to 1e-12."""
    rng = np.random.default_rng(104)
    space = build_label_space([1, 2], [3])
    vecs = rng.standard_normal((3, 3))
    table = make_embedding_table({c: vecs[c - 1] for c in space.all_ids})
    params = model.init_backbone(3, 3, (4,), rng=rng)
    image = rng.standard_normal((3, 3, 3))
    zeros = np.zeros((3, 3), dtype=int)
    res = model.backward(image, params, table, space, zeros, zeros, 1.0)
    zero_ok = res.loss == 0.0 and all(
        np.all(g == 0.0) for g in res.grad_weights + res.grad_biases
    )

    probs = model.ProbGrid((1, 2), np.array([[[0.3, 0.7], [0.5, 0.5], [0.8, 0.2]]]))
    cases = [
        (np.array([[1, 0, 2]]), -(np.log(0.3) + np.log(0.2))),
        (np.array([[0, 0, 0]]), 0.0),
        (np.array([[2, 2, 1]]), -(np.log(0.7) + np.log(0.5) + np.log(0.8))),
    ]
    hand_ok = all(
        abs(model.masked_cross_entropy(probs, mask)[0] - want) <= 1e-12
        for mask, want in cases
    )
    _verdict(5, "masked-loss exactness", zero_ok and hand_ok)


def test_criterion_6_achievability_oracle():
    """Pseudo-inverse parameters score a perfect 100/100/100 at zero noise."""
    cfg = sd.GeneratorConfig(height=32, width=32, channels=8, embed_dim=8,
                             num_seen=6, num_unseen=3, noise=0.0,
                             train_images=20, eval_images=20, seed=400,
                             background="seen", background_id=1)
    ds = sd.generate(cfg)
    rep = evaluate_pairs(sd.oracle_backbone(ds.hidden),
                         [(s.image, s.hidden_gt) for s in ds.eval],
                         ds.table, ds.space)
    ok = rep.seen_miou == 100.0 and rep.unseen_miou == 100.0 and rep.hm == 100.0
    _verdict(6, "achievability oracle", ok,
             f"S={rep.seen_miou} U={rep.unseen_miou} HM={rep.hm}")


def test_criterion_7_denoising_ordering(bench_runs):
    """Strict pseudo-label precision beats unfiltered in >= 9 of 10 seeds."""
    wins = sum(
        strict[1].pl_precision > raw[1].pl_precision for strict, raw in bench_runs
    )
    # budget covers exactly the work this check needs: base training plus the
    # first pseudo-label cycle for both arms, all seeds
    secs = sum(r.seconds for strict, raw in bench_runs
               for r in (*strict[:2], *raw[:2]))
    _verdict(7, "denoising ordering", wins >= 9 and secs < 300.0,
             f"{wins}/{BENCH_SEEDS} seeds, {secs:.0f}s")


def test_criterion_8_self_training_gain(bench_runs):
    """Cycles lift unseen mIoU (>=9/10); strict ends >= unfiltered (>=8/10)."""
    gain = sum(
        max(r.unseen_miou for r in strict) > strict[0].unseen_miou
        for strict, _ in bench_runs
    )
    order = sum(strict[-1].hm >= raw[-1].hm for strict, raw in bench_runs)
    secs = sum(r.seconds for strict, raw in bench_runs for r in (*strict, *raw))
    # per seed, so a change that moves the ordering shows which seed moved
    gaps = " ".join(f"{strict[-1].hm - raw[-1].hm:+.3f}" for strict, raw in bench_runs)
    _verdict(8, "self-training gain", gain >= 9 and order >= 8 and secs < 1200.0,
             f"U-gain {gain}/{BENCH_SEEDS}, HM order {order}/{BENCH_SEEDS}, "
             f"HM strict-raw by seed {gaps}, {secs:.0f}s")


def test_criterion_9_calibration_sanity():
    """gamma=0 is bit-identical to uncalibrated; unseen pixel count is monotone."""
    rng = np.random.default_rng(105)
    ds = sd.generate(sd.GeneratorConfig(height=16, width=16, channels=6,
                                        embed_dim=4, num_seen=3, num_unseen=2,
                                        noise=0.2, train_images=8, eval_images=10,
                                        min_class_images=2, seed=9))
    params = model.init_backbone(6, 4, rng=rng)
    images = [s.image for s in ds.eval]
    identical = all(
        np.array_equal(
            model.infer_gzs(img, params, ds.table, ds.space, 0.0),
            model.infer_gzs(img, params, ds.table, ds.space),
        )
        for img in images
    )
    unseen_min = min(ds.space.unseen_ids)
    counts = []
    for gamma in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 1e6):
        total = sum(
            int((model.infer_gzs(img, params, ds.table, ds.space, gamma) >= unseen_min).sum())
            for img in images
        )
        counts.append(total)
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    saturated = counts[-1] == sum(img.shape[1] * img.shape[2] for img in images)
    _verdict(9, "calibration sanity", identical and monotone and saturated,
             f"counts {counts}")


def test_criterion_10_determinism(tmp_path):
    """Two identical selftrain invocations write byte-identical history.csv."""
    t0 = time.perf_counter()
    data = str(tmp_path / "data")
    args = ["--height", "16", "--width", "16", "--channels", "6", "--embed_dim", "4",
            "--num_seen", "3", "--num_unseen", "2", "--noise", "0.2",
            "--train_images", "10", "--eval_images", "5", "--min_class_images", "2",
            "--background", "seen"]
    assert cli.main(["gen-data", "--out", data] + args) == 0
    fast = ["--base_iters", "40", "--cycle_iters", "15", "--cycles", "3",
            "--base_lr", "0.3", "--batch_size", "4"]
    assert cli.main(["selftrain", "--data", data, "--out", str(tmp_path / "r1")] + fast) == 0
    assert cli.main(["selftrain", "--data", data, "--out", str(tmp_path / "r2")] + fast) == 0
    h1 = (tmp_path / "r1" / "history.csv").read_bytes()
    h2 = (tmp_path / "r2" / "history.csv").read_bytes()
    dt = time.perf_counter() - t0
    _verdict(10, "determinism", h1 == h2 and dt < 1200.0,
             f"{len(h1)} bytes, {dt:.1f}s")

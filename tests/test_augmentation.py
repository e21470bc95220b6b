"""Invertible augmentation specs: sizes, round-trips, parsing."""

from fractions import Fraction

import numpy as np
import pytest

from gzlss import augmentation as aug


def test_scaled_size_round_half_up():
    # 5 * 3/2 = 7.5 -> 8, 5 * 1/2 = 2.5 -> 3, exact ints stay exact
    s32 = aug.scale_spec(Fraction(3, 2))
    assert aug.scaled_size((5, 5), s32) == (8, 8)
    assert aug.scaled_size((4, 6), s32) == (6, 9)
    half = aug.scale_spec(Fraction(1, 2))
    assert aug.scaled_size((5, 8), half) == (3, 4)
    two = aug.scale_spec(2)
    assert aug.scaled_size((7, 3), two) == (14, 6)


def test_scaled_size_rejects_zero_output():
    tiny = aug.scale_spec(Fraction(1, 3))
    with pytest.raises(ValueError):
        aug.scaled_size((1, 10), tiny)


def test_mirror_involution():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, m = rng.integers(1, 9, size=2)
        mask = rng.integers(0, 6, size=(n, m))
        image = rng.standard_normal((3, n, m))
        spec = aug.mirror_spec()
        np.testing.assert_array_equal(aug.apply_mask(spec, aug.apply_mask(spec, mask)), mask)
        np.testing.assert_array_equal(aug.apply(spec, aug.apply(spec, image)), image)


def test_mirror_invert_is_mirror():
    rng = np.random.default_rng(1)
    mask = rng.integers(0, 4, size=(5, 7))
    spec = aug.mirror_spec()
    np.testing.assert_array_equal(
        aug.invert_mask(spec, aug.apply_mask(spec, mask), (5, 7)), mask
    )


def test_integer_upscale_invert_bit_exact():
    """Upscaling by an integer factor and mapping back loses nothing."""
    rng = np.random.default_rng(2)
    for factor in (2, 3):
        spec = aug.scale_spec(factor)
        for _ in range(30):
            n, m = rng.integers(2, 9, size=2)
            mask = rng.integers(0, 7, size=(n, m))
            up = aug.apply_mask(spec, mask)
            assert up.shape == (factor * n, factor * m)
            np.testing.assert_array_equal(aug.invert_mask(spec, up, (n, m)), mask)


def test_invert_size_contract():
    rng = np.random.default_rng(3)
    spec = aug.scale_spec(Fraction(3, 2))
    for _ in range(30):
        n, m = rng.integers(2, 12, size=2)
        mask = rng.integers(0, 5, size=(n, m))
        scaled = aug.apply_mask(spec, mask)
        assert scaled.shape == aug.scaled_size((n, m), spec)
        back = aug.invert_mask(spec, scaled, (n, m))
        assert back.shape == (n, m)
    with pytest.raises(ValueError):
        aug.invert_mask(spec, np.zeros((4, 4), dtype=int), (4, 4))  # wrong input size


def _ref_nearest(mask, out_h, out_w):
    """Reference: each output pixel reads source floor((i + 1/2) * n_src / n_dst),
    in exact rationals, clamped to the source."""
    h, w = mask.shape
    out = np.empty((out_h, out_w), dtype=mask.dtype)
    for i in range(out_h):
        for j in range(out_w):
            r = min(int((i + Fraction(1, 2)) * h / out_h), h - 1)
            c = min(int((j + Fraction(1, 2)) * w / out_w), w - 1)
            out[i, j] = mask[r, c]
    return out


def test_invert_mask_matches_reference():
    """Up- and down-scales of odd sizes, byte for byte, twice through each
    cached index table; the tables are read-only."""
    rng = np.random.default_rng(4)
    for factor in ("3/2", "1/2", "3/4", "5/4", "2", "31/16"):
        spec = aug.parse_spec(f"scale={factor}")
        for n, m in ((7, 5), (9, 13), (7, 5)):
            small = aug.scaled_size((n, m), spec)
            mask = rng.integers(0, 9, size=small)
            got = aug.invert_mask(spec, mask, (n, m))
            want = _ref_nearest(mask, n, m)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not aug._nearest_index(n, small[0]).flags.writeable


def test_identity_apply_copies():
    img = np.arange(12.0).reshape(1, 3, 4)
    out = aug.apply(aug.identity_spec(), img)
    np.testing.assert_array_equal(out, img)
    out[0, 0, 0] = 99.0
    assert img[0, 0, 0] == 0.0


def test_bilinear_preserves_constant():
    img = np.full((2, 6, 6), 3.25)
    out = aug.apply(aug.scale_spec(Fraction(3, 2)), img)
    assert out.shape == (2, 9, 9)
    np.testing.assert_allclose(out, 3.25, rtol=0, atol=1e-12)


def test_masks_never_interpolated():
    mask = np.array([[0, 10], [10, 0]])
    up = aug.apply_mask(aug.scale_spec(2), mask)
    assert set(np.unique(up)) <= {0, 10}


def test_parse_spec_grammar():
    assert aug.parse_spec("identity").kind == aug.IDENTITY
    assert aug.parse_spec("mirror").kind == aug.MIRROR
    s = aug.parse_spec("scale=3/2")
    assert (s.scale_num, s.scale_den) == (3, 2)
    s = aug.parse_spec("scale=1.5")
    assert (s.scale_num, s.scale_den) == (3, 2)
    for bad in ("flip", "scale=", "scale=0", "scale=-2", "scale=a/b"):
        with pytest.raises(ValueError):
            aug.parse_spec(bad)


def test_parse_spec_list_prepends_identity():
    specs = aug.parse_spec_list("mirror,scale=2")
    assert [s.kind for s in specs] == [aug.IDENTITY, aug.MIRROR, aug.SCALE]
    specs = aug.parse_spec_list("identity,mirror")
    assert len(specs) == 2


def test_random_scale_factor_grid():
    rng = np.random.default_rng(4)
    seen = {aug.random_scale_factor(rng) for _ in range(300)}
    assert all(Fraction(1, 2) <= f <= Fraction(2, 1) and f != 1 for f in seen)
    assert all(f.denominator in (1, 2, 4, 8, 16) for f in seen)


def test_regime_specs_rows():
    assert [s.kind for s in aug.regime_specs(False, None)] == [aug.IDENTITY]
    assert [s.kind for s in aug.regime_specs(True, None)] == [aug.IDENTITY, aug.MIRROR]
    down = aug.regime_specs(False, "down")
    assert [Fraction(s.scale_num, s.scale_den) for s in down[1:]] == list(aug.DOWN_FACTORS)
    up = aug.regime_specs(True, "up")
    assert len(up) == 4 and up[1].kind == aug.MIRROR
    rnd = aug.regime_specs(False, "random", np.random.default_rng(5))
    assert len(rnd) == 3 and all(s.kind == aug.SCALE for s in rnd[1:])
    with pytest.raises(ValueError):
        aug.regime_specs(False, "random")  # rng required
    with pytest.raises(ValueError):
        aug.regime_specs(False, "sideways")

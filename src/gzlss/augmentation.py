"""Invertible spatial transforms and exact inverse resampling of label masks.

Scale factors are rationals so output sizes are computed in exact integer
arithmetic: a factor p/q maps size n to round(n*p/q) with round-half-up.
Images are resampled bilinearly; label masks only ever nearest-neighbor,
with half-pixel-center index mapping ``src = floor((i + 0.5) * n_src / n_dst)``
clamped to bounds.  The first spec of any set used for consistency must be
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import numpy as np

IDENTITY = "identity"
MIRROR = "mirror"
SCALE = "scale"

# default factors for the three scaling regimes of the ablation grid
DOWN_FACTORS = (Fraction(1, 2), Fraction(3, 4))
UP_FACTORS = (Fraction(3, 2), Fraction(2, 1))


@dataclass(frozen=True)
class AugmentationSpec:
    kind: str
    scale_num: int = 0
    scale_den: int = 1

    def __post_init__(self):
        if self.kind not in (IDENTITY, MIRROR, SCALE):
            raise ValueError(f"unknown augmentation kind: {self.kind!r}")
        if self.kind == SCALE and (self.scale_num <= 0 or self.scale_den <= 0):
            raise ValueError("scale factor must be positive")

    @property
    def factor(self) -> Fraction:
        if self.kind != SCALE:
            return Fraction(1)
        return Fraction(self.scale_num, self.scale_den)

    def name(self) -> str:
        if self.kind == SCALE:
            f = self.factor
            return f"scale={f.numerator}/{f.denominator}"
        return self.kind


def identity_spec() -> AugmentationSpec:
    return AugmentationSpec(IDENTITY)


def mirror_spec() -> AugmentationSpec:
    return AugmentationSpec(MIRROR)


def scale_spec(factor) -> AugmentationSpec:
    f = Fraction(factor)
    return AugmentationSpec(SCALE, f.numerator, f.denominator)


def scaled_size(size: tuple[int, int], spec: AugmentationSpec) -> tuple[int, int]:
    """Output (height, width) of ``apply`` for an input of ``size``."""
    if spec.kind != SCALE:
        return size
    num, den = spec.scale_num, spec.scale_den
    out = tuple((2 * s * num + den) // (2 * den) for s in size)
    if out[0] <= 0 or out[1] <= 0:
        raise ValueError(f"scale {num}/{den} collapses size {size} to zero")
    return out


@cache
def _nearest_index(n_dst: int, n_src: int) -> np.ndarray:
    """Read-only source index of each of ``n_dst`` nearest-neighbour taps:
    floor((i + 0.5) * n_src / n_dst) in exact integer arithmetic, clamped."""
    i = np.arange(n_dst, dtype=np.int64)
    idx = np.clip(((2 * i + 1) * n_src) // (2 * n_dst), 0, n_src - 1)
    idx.flags.writeable = False
    return idx


def _nearest_resize(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = mask.shape
    return mask.take(_nearest_index(out_h, h), axis=0).take(_nearest_index(out_w, w), axis=1)


@cache
def _bilinear_taps(n_src: int, n_dst: int) -> tuple[np.ndarray, ...]:
    """Read-only ``(i0, i1, 1 - t, t)`` of a bilinear resample of one axis
    from ``n_src`` to ``n_dst`` samples; output i blends sources i0 and i1."""
    pos = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    i0f = np.floor(pos)
    t = pos - i0f
    i0 = i0f.astype(np.int64)
    taps = (np.clip(i0, 0, n_src - 1), np.clip(i0 + 1, 0, n_src - 1), 1 - t, t)
    for a in taps:
        a.flags.writeable = False
    return taps


def _bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    _, h, w = image.shape
    y0, y1, wy0, wy1 = _bilinear_taps(h, out_h)
    x0, x1, wx0, wx1 = _bilinear_taps(w, out_w)
    # separable: each source row is interpolated horizontally once, then the
    # rows are blended; the same float64 products and sums as interpolating
    # each gathered row pair, so the bytes are the same
    src = image.astype(np.float64, copy=False)
    hor = src.take(x0, axis=2)
    hor *= wx0
    right = src.take(x1, axis=2)
    right *= wx1
    hor += right
    out = hor.take(y0, axis=1)
    out *= wy0[:, None]
    below = hor.take(y1, axis=1)
    below *= wy1[:, None]
    out += below
    return out


def apply(spec: AugmentationSpec, image: np.ndarray) -> np.ndarray:
    """Transform a (C, N, M) image; scaling uses bilinear interpolation."""
    image = np.asarray(image)
    if image.ndim != 3:
        raise ValueError(f"expected (C, N, M) image, got shape {image.shape}")
    if spec.kind == IDENTITY:
        return image.copy()
    if spec.kind == MIRROR:
        return image[:, :, ::-1].copy()
    out_h, out_w = scaled_size(image.shape[1:], spec)
    return _bilinear_resize(image, out_h, out_w)


def apply_mask(spec: AugmentationSpec, mask: np.ndarray) -> np.ndarray:
    """Transform an (N, M) label mask; scaling is nearest-neighbor only."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"expected (N, M) mask, got shape {mask.shape}")
    if spec.kind == IDENTITY:
        return mask.copy()
    if spec.kind == MIRROR:
        return mask[:, ::-1].copy()
    return _nearest_resize(mask, *scaled_size(mask.shape, spec))


def invert_mask(
    spec: AugmentationSpec, mask: np.ndarray, original_size: tuple[int, int]
) -> np.ndarray:
    """Map a mask produced at the augmented size back to ``original_size``."""
    mask = np.asarray(mask)
    expect = scaled_size(tuple(original_size), spec)
    if mask.shape != expect:
        raise ValueError(
            f"mask shape {mask.shape} does not match augmented size {expect} "
            f"for spec {spec.name()}"
        )
    if spec.kind == IDENTITY:
        return mask.copy()
    if spec.kind == MIRROR:
        return mask[:, ::-1].copy()
    return _nearest_resize(mask, *original_size)


def parse_spec(text: str) -> AugmentationSpec:
    """Parse one token: ``identity | mirror | scale=<num>/<den> | scale=<decimal>``."""
    token = text.strip()
    if token == IDENTITY:
        return identity_spec()
    if token == MIRROR:
        return mirror_spec()
    if token.startswith("scale="):
        value = token[len("scale="):]
        try:
            factor = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scale factor {value!r}") from exc
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {value}")
        return scale_spec(factor)
    raise ValueError(f"unknown augmentation token: {token!r}")


def parse_spec_list(text: str) -> list[AugmentationSpec]:
    """Parse a comma-separated spec list, prepending identity if absent."""
    specs = [parse_spec(tok) for tok in text.split(",") if tok.strip()]
    if not specs or specs[0].kind != IDENTITY:
        specs.insert(0, identity_spec())
    return specs


def random_scale_factor(rng: np.random.Generator) -> Fraction:
    """A rational factor on the 1/16 grid of [1/2, 2], excluding 1."""
    k = int(rng.integers(8, 32))
    if k >= 16:
        k += 1
    return Fraction(k, 16)


def regime_specs(
    mirror: bool, scaling: str | None, rng: np.random.Generator | None = None
) -> list[AugmentationSpec]:
    """Build the spec list for one row of the transformation ablation grid."""
    specs = [identity_spec()]
    if mirror:
        specs.append(mirror_spec())
    if scaling is None:
        pass
    elif scaling == "down":
        specs.extend(scale_spec(f) for f in DOWN_FACTORS)
    elif scaling == "up":
        specs.extend(scale_spec(f) for f in UP_FACTORS)
    elif scaling == "random":
        if rng is None:
            raise ValueError("random scaling regime needs an rng")
        specs.extend(scale_spec(random_scale_factor(rng)) for _ in range(2))
    else:
        raise ValueError(f"unknown scaling regime: {scaling!r}")
    return specs

"""Synthetic segmentation benchmark with a known pixel-generating process.

Each class c gets a hidden prototype Phi* @ w_c, where w_c is the public
word embedding and Phi* a hidden full-rank linear map.  Images place
rectangle / ellipse shapes over a background, fill pixels with the class
prototype plus Gaussian noise, and redact unseen classes from training
masks.  Because prototypes are linear in the embeddings, the single-layer
model W = pinv(Phi*) recovers every class score exactly at zero noise --
that oracle is stored beside generated datasets.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import threading
import typing
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from gzlss.errors import FormatError
from gzlss.label_space import (
    BACKGROUND_IGNORED,
    BACKGROUND_SEEN,
    EmbeddingTable,
    LabelSpace,
    build_label_space,
    load_embeddings,
    make_embedding_table,
    save_embeddings,
    validate_eval_mask,
    validate_training_mask,
)
from gzlss.model import BackboneParams, save_checkpoint

FEAT_MAGIC = b"GZFT"
SHAPE_KINDS = ("rect", "ellipse")
_META_NAME = "meta.txt"
_EMBED_NAME = "embeddings.txt"
_HIDDEN_NAME = "hidden_map.txt"
_ORACLE_NAME = "oracle.ckpt"
SPLITS = ("train", "eval")
_WRITE_BATCH = 8  # samples handed to the dataset writer thread at a time


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines a dataset; same config => same bytes."""

    height: int = 32
    width: int = 32
    channels: int = 12
    embed_dim: int = 8
    num_seen: int = 6
    num_unseen: int = 3
    noise: float = 0.1
    shapes_min: int = 2
    shapes_max: int = 4
    shape_kinds: tuple[str, ...] = SHAPE_KINDS
    cooccurrence: float = 0.7
    train_images: int = 200
    eval_images: int = 50
    min_class_images: int = 3
    background: str = BACKGROUND_IGNORED
    background_id: int = 1
    seed: int = 0

    def __post_init__(self):
        if min(self.height, self.width) < 8:
            raise ValueError("image sides must be at least 8 pixels")
        if self.channels < 1 or self.embed_dim < 1:
            raise ValueError("channels and embed_dim must be positive")
        if self.channels < self.embed_dim:
            raise ValueError("need channels >= embed_dim for a full-rank hidden map")
        if self.num_seen < 1 or self.num_unseen < 1:
            raise ValueError("need at least one seen and one unseen class")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if not 1 <= self.shapes_min <= self.shapes_max:
            raise ValueError("need 1 <= shapes_min <= shapes_max")
        for kind in self.shape_kinds:
            if kind not in SHAPE_KINDS:
                raise ValueError(f"unknown shape kind: {kind!r}")
        if not self.shape_kinds:
            raise ValueError("need at least one shape kind")
        if not 0.0 <= self.cooccurrence <= 1.0:
            raise ValueError("cooccurrence must be in [0, 1]")
        if self.train_images < 1 or self.eval_images < 1:
            raise ValueError("need at least one train and one eval image")
        if self.background not in (BACKGROUND_IGNORED, BACKGROUND_SEEN):
            raise ValueError(f"unknown background mode: {self.background!r}")
        if self.background == BACKGROUND_SEEN and self.num_seen < 2:
            raise ValueError("seen background needs num_seen >= 2 for object classes")


@dataclass(frozen=True)
class HiddenMap:
    """The generating linear map Phi* (channels x embed_dim) + background vector."""

    matrix: np.ndarray
    background_vector: np.ndarray


@dataclass
class SyntheticSample:
    image: np.ndarray  # float32, (channels, height, width)
    train_mask: np.ndarray  # int64, unseen redacted to 0
    hidden_gt: np.ndarray | None  # int64 full ground truth, or None if withheld


@dataclass
class Dataset:
    config: GeneratorConfig
    space: LabelSpace
    table: EmbeddingTable
    train: list[SyntheticSample] | None  # None: the split was not read
    eval: list[SyntheticSample] | None
    hidden: HiddenMap | None = None


def _object_seen_ids(cfg: GeneratorConfig, space: LabelSpace) -> tuple[int, ...]:
    if cfg.background == BACKGROUND_SEEN:
        return tuple(i for i in space.seen_ids if i != cfg.background_id)
    return space.seen_ids


def _draw_shape(rng, cfg: GeneratorConfig):
    """Pick a shape kind and its pixel region (boolean grid)."""
    n, m = cfg.height, cfg.width
    kind = cfg.shape_kinds[rng.integers(0, len(cfg.shape_kinds))]
    region = np.zeros((n, m), dtype=bool)
    if kind == "rect":
        h = int(rng.integers(max(2, n // 8), max(3, n // 2) + 1))
        w = int(rng.integers(max(2, m // 8), max(3, m // 2) + 1))
        top = int(rng.integers(0, n - h + 1))
        left = int(rng.integers(0, m - w + 1))
        region[top:top + h, left:left + w] = True
    else:
        ry = int(rng.integers(max(2, n // 8), max(3, n // 4) + 1))
        rx = int(rng.integers(max(2, m // 8), max(3, m // 4) + 1))
        cy = int(rng.integers(ry, n - ry))
        cx = int(rng.integers(rx, m - rx))
        yy, xx = np.mgrid[0:n, 0:m]
        region = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    return region


def _render_image(rng, cfg: GeneratorConfig, space, prototypes, proto_bg):
    """One image + full hidden ground truth."""
    n, m = cfg.height, cfg.width
    if cfg.background == BACKGROUND_SEEN:
        gt = np.full((n, m), cfg.background_id, dtype=np.int64)
    else:
        gt = np.zeros((n, m), dtype=np.int64)
    img = np.tile(proto_bg[:, None, None], (1, n, m))

    object_seen = _object_seen_ids(cfg, space)
    n_shapes = int(rng.integers(cfg.shapes_min, cfg.shapes_max + 1))
    has_unseen = cfg.cooccurrence > 0 and rng.random() < cfg.cooccurrence
    pool = object_seen + (space.unseen_ids if has_unseen else ())
    classes = rng.choice(np.asarray(pool), size=n_shapes).astype(np.int64)
    if has_unseen and not np.any(classes > max(space.seen_ids)):
        classes[0] = int(rng.choice(np.asarray(space.unseen_ids)))
    for c in classes:
        region = _draw_shape(rng, cfg)
        gt[region] = c
        img[:, region] = prototypes[int(c)][:, None]
    if cfg.noise > 0:
        img = img + cfg.noise * rng.standard_normal(img.shape)
    return img.astype(np.float32), gt


def _redact(gt: np.ndarray, space: LabelSpace) -> np.ndarray:
    mask = gt.copy()
    mask[mask > max(space.seen_ids)] = 0
    return mask


def _render_split(rng, cfg, space, prototypes, proto_bg, split, count, required):
    """Yield (split, index, sample) for every render of a split; a split
    missing a required class is rendered again, indices from 0."""
    need = min(cfg.min_class_images, count)
    for _ in range(20):
        present = {c: 0 for c in required}
        for i in range(count):
            img, gt = _render_image(rng, cfg, space, prototypes, proto_bg)
            for c in np.unique(gt):
                if int(c) in present:
                    present[int(c)] += 1
            yield split, i, SyntheticSample(img, _redact(gt, space), gt)
        if all(v >= need for v in present.values()):
            return
    raise ValueError(
        f"could not populate every class {need}x in {count} images; "
        "raise the image count or cooccurrence rate"
    )


def _label_space(cfg: GeneratorConfig) -> LabelSpace:
    return build_label_space(
        range(1, cfg.num_seen + 1),
        range(cfg.num_seen + 1, cfg.num_seen + cfg.num_unseen + 1),
        cfg.background,
        cfg.background_id if cfg.background == BACKGROUND_SEEN else None,
    )


def render(config: GeneratorConfig) -> tuple[Dataset, Iterator[tuple[str, int, SyntheticSample]]]:
    """A dataset's header (splits None) and a lazy stream of its samples.

    The stream yields (split, index, sample) for every render, train then
    eval; a retried split restarts at index 0, so a consumer that stores
    or writes by index ends with the kept render.  It raises ValueError
    once a split has failed every retry.  Fully determined by ``config``.
    """
    cfg = config
    space = _label_space(cfg)
    rng = np.random.default_rng([cfg.seed, 0x5D])

    # unit-norm word embeddings, then a full-rank hidden map
    vecs = rng.standard_normal((len(space.all_ids), cfg.embed_dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    table = make_embedding_table({c: vecs[i] for i, c in enumerate(space.all_ids)})
    for _ in range(10):
        phi = rng.standard_normal((cfg.channels, cfg.embed_dim))
        if np.linalg.matrix_rank(phi) == cfg.embed_dim:
            break
    else:
        raise ValueError("failed to draw a full-rank hidden map")
    bg_vec = rng.standard_normal(cfg.embed_dim)
    bg_vec /= np.linalg.norm(bg_vec)
    hidden = HiddenMap(phi, bg_vec)

    prototypes = {c: phi @ table.vectors[c] for c in space.all_ids}
    if cfg.background == BACKGROUND_SEEN:
        proto_bg = prototypes[cfg.background_id]
    else:
        proto_bg = phi @ bg_vec

    required = list(_object_seen_ids(cfg, space))
    if cfg.cooccurrence > 0:
        required += list(space.unseen_ids)
    samples = itertools.chain.from_iterable(
        _render_split(rng, cfg, space, prototypes, proto_bg, split, count, required)
        for split, count in (("train", cfg.train_images), ("eval", cfg.eval_images)))
    return Dataset(cfg, space, table, None, None, hidden), samples


def generate(config: GeneratorConfig) -> Dataset:
    """Build a dataset in memory; fully determined by ``config``."""
    ds, samples = render(config)
    splits = {"train": [None] * config.train_images, "eval": [None] * config.eval_images}
    for split, i, sample in samples:
        splits[split][i] = sample
    ds.train, ds.eval = splits["train"], splits["eval"]
    return ds


def oracle_backbone(hidden: HiddenMap) -> BackboneParams:
    """Single linear layer W = pinv(Phi*): exact class scores at zero noise."""
    w = np.linalg.pinv(hidden.matrix)  # (embed_dim, channels)
    return BackboneParams([w], [np.zeros(w.shape[0])], window=1)


# ---------------------------------------------------------------------------
# file formats

def write_feat(image: np.ndarray, path: str) -> None:
    """Binary image: magic, C/N/M uint32 LE, float32 LE row-major."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3:
        raise ValueError(f"expected (channels, height, width), got {image.shape}")
    with open(path, "wb") as fh:
        fh.write(FEAT_MAGIC)
        fh.write(struct.pack("<III", *image.shape))
        fh.write(np.ascontiguousarray(image, dtype="<f4").tobytes())


def read_feat(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FEAT_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0 (not a feature file)")
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    c, n, m = struct.unpack("<III", data[4:16])
    want = 16 + 4 * c * n * m
    if len(data) < want:
        raise FormatError(f"{path}: truncated pixel data at byte {len(data)}")
    if len(data) > want:
        raise FormatError(f"{path}: trailing bytes after the pixel data at byte {want}")
    arr = np.frombuffer(data, dtype="<f4", count=c * n * m, offset=16)
    return arr.reshape(c, n, m).astype(np.float32)


def write_pgm(mask: np.ndarray, path: str) -> None:
    """8-bit binary PGM; class ids are the gray values."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-d mask, got shape {mask.shape}")
    if mask.min() < 0 or mask.max() > 255:
        raise ValueError("mask ids must fit in one byte (0..255)")
    n, m = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m} {n}\n255\n".encode("ascii"))
        fh.write(mask.astype(np.uint8).tobytes())


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise FormatError(f"{path}: truncated header at byte {pos}")
        if data[pos:pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise FormatError(f"{path}: unterminated comment at byte {pos}")
            pos = eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: bad magic at byte 0 (want P5)")
    try:
        m, n, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric header field") from exc
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (want 255)")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + n * m]
    if len(raster) < n * m:
        raise FormatError(f"{path}: truncated raster at byte {pos + len(raster)}")
    if len(data) > pos + n * m:
        raise FormatError(f"{path}: trailing bytes after the raster at byte {pos + n * m}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(n, m).astype(np.int64)


def _write_hidden(hidden: HiddenMap, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# hidden generating map: rows of Phi*, then background vector\n")
        fh.write(f"dims {hidden.matrix.shape[0]} {hidden.matrix.shape[1]}\n")
        for row in hidden.matrix:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write("background\n")
        fh.write(" ".join(repr(float(v)) for v in hidden.background_vector) + "\n")


def load_hidden_map(path: str) -> HiddenMap:
    if not os.path.exists(path):
        raise FormatError(f"hidden map file not found: {path}")
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dims "):
        raise FormatError(f"{path}: missing dims header")
    try:
        rows, cols = (int(t) for t in lines[0].split()[1:])
        matrix = np.array(
            [[float(v) for v in lines[1 + i].split()] for i in range(rows)]
        )
        if lines[1 + rows] != "background":
            raise FormatError(f"{path}: missing background marker")
        bg = np.array([float(v) for v in lines[2 + rows].split()])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed hidden map") from exc
    if matrix.shape != (rows, cols) or bg.shape != (cols,):
        raise FormatError(f"{path}: dimension mismatch in hidden map")
    return HiddenMap(matrix, bg)


def _write_meta(cfg: GeneratorConfig, path: str) -> None:
    """format_version, then one key=value line per field in declaration
    order; tuples are comma lists, and str() of a float is its exact repr.
    Written to ``<path>.tmp`` and then renamed, so a cut write leaves no
    ``meta.txt`` rather than a short one."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("format_version=1\n")
        for f in fields(GeneratorConfig):
            value = getattr(cfg, f.name)
            fh.write(f"{f.name}={','.join(value) if isinstance(value, tuple) else value}\n")
    os.replace(tmp, path)


def _read_meta(path: str) -> GeneratorConfig:
    if not os.path.exists(path):
        raise FormatError(f"dataset metadata not found: {path}")
    kv = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}: bad metadata line {line!r}")
            key, value = line.split("=", 1)
            kv[key] = value
    types = typing.get_type_hints(GeneratorConfig)
    try:
        if int(kv.pop("format_version")) != 1:
            raise FormatError(f"{path}: unsupported format version")
        return GeneratorConfig(**{
            f.name: tuple(kv[f.name].split(",")) if types[f.name] == tuple[str, ...]
            else types[f.name](kv[f.name])
            for f in fields(GeneratorConfig)
        })
    except KeyError as exc:
        raise FormatError(f"{path}: missing metadata key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: bad metadata value ({exc})") from exc


def _write_samples(path: str, todo, failed: list) -> None:
    """The writer thread: write the files of each batch of (split, index,
    sample) taken from ``todo`` until None; after an error, keep draining."""
    while (batch := todo.get()) is not None:
        for split, i, s in batch:
            if failed:
                break
            stem = os.path.join(path, split, f"img_{i:04d}")
            try:
                write_feat(s.image, stem + ".feat")
                write_pgm(s.train_mask, stem + ".mask.pgm")
                if s.hidden_gt is not None:
                    write_pgm(s.hidden_gt, stem + ".gt.pgm")
            except Exception as exc:  # every error goes to the caller, who raises it
                failed.append(exc)


def save_dataset(ds: Dataset, path: str, samples=None) -> None:
    """Write a dataset directory: meta, embeddings, splits, hidden sidecars.

    ``samples`` are (split, index, sample) triples, as ``render`` yields
    them; without it the splits of ``ds`` are written.  One thread writes
    them ``_WRITE_BATCH`` at a time while the next batch is drawn, with one
    more batch waiting, and is always joined; its first error is raised
    here.  ``meta.txt`` is removed first and written last, so a directory
    whose write failed does not load.
    """
    if samples is None:
        samples = ((split, i, s) for split in SPLITS for i, s in enumerate(getattr(ds, split)))
    samples = iter(samples)
    meta = os.path.join(path, _META_NAME)
    os.makedirs(path, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(meta)
    save_embeddings(ds.table, os.path.join(path, _EMBED_NAME))
    if ds.hidden is not None:
        _write_hidden(ds.hidden, os.path.join(path, _HIDDEN_NAME))
        save_checkpoint(os.path.join(path, _ORACLE_NAME), oracle_backbone(ds.hidden))
    for split in SPLITS:
        os.makedirs(os.path.join(path, split), exist_ok=True)
    # The header is written before the writer starts and meta.txt after it
    # is joined, so while it runs no other thread calls a public function:
    # a profiler that keeps one call stack still sees properly nested calls.
    import queue  # only here: at module level it raised selftrain's peak RSS ~0.17 MB

    todo = queue.Queue(maxsize=1)
    failed: list[Exception] = []
    writer = threading.Thread(target=_write_samples, args=(path, todo, failed),
                              name="gzlss-writer")
    writer.start()
    try:
        for batch in iter(lambda: list(itertools.islice(samples, _WRITE_BATCH)), []):
            if failed:
                break
            todo.put(batch)
    finally:
        todo.put(None)
        writer.join()
    if failed:
        raise failed[0]
    _write_meta(ds.config, meta)


def _read_checked(read, path: str, shape: tuple, check=None) -> np.ndarray:
    array = read(path)
    try:
        if array.shape != shape:
            raise ValueError(f"shape {array.shape}, but {_META_NAME} gives {shape}")
        if check is not None:
            check(array)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return array


def iter_split(path: str, split: str, include_hidden: bool = False) -> Iterator[SyntheticSample]:
    """Yield the samples of one split in file order, reading each as it goes.

    Every file is checked here, once, against the shapes in ``meta.txt``
    and the label space, so a bad file is reported by name when it is
    reached; training and pseudo-labelling trust what the reader yields.
    Ground truth is read for the eval split always, and for the train
    split only with ``include_hidden``.
    """
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    cfg = _read_meta(os.path.join(path, _META_NAME))
    space = _label_space(cfg)
    image_shape = (cfg.channels, cfg.height, cfg.width)
    size = image_shape[1:]
    count = cfg.train_images if split == "train" else cfg.eval_images
    for i in range(count):
        stem = os.path.join(path, split, f"img_{i:04d}")
        image = _read_checked(read_feat, stem + ".feat", image_shape)
        mask = _read_checked(read_pgm, stem + ".mask.pgm", size,
                             lambda m: validate_training_mask(m, space))
        gt = None
        if include_hidden or split == "eval":
            gt_path = stem + ".gt.pgm"
            if not os.path.exists(gt_path):
                raise FormatError(f"missing ground truth: {gt_path}")
            gt = _read_checked(read_pgm, gt_path, size, lambda m: validate_eval_mask(m, space))
        yield SyntheticSample(image, mask, gt)


def load_dataset(path: str, include_hidden: bool = False, splits=SPLITS) -> Dataset:
    """Read a dataset directory back.

    Only the ``splits`` named are read, each with ``iter_split``; a split
    not read is None, so ``splits=()`` reads the header alone for a caller
    that streams its split.  Training ground truth and the
    hidden map are withheld unless ``include_hidden`` -- the learner is
    only supposed to see redacted training masks.  Eval ground truth is
    loaded whenever the eval split is.
    """
    if not set(splits) <= set(SPLITS):
        raise ValueError(f"unknown splits {sorted(set(splits) - set(SPLITS))}")
    cfg = _read_meta(os.path.join(path, _META_NAME))
    space = _label_space(cfg)
    table = load_embeddings(os.path.join(path, _EMBED_NAME), space)
    train = evals = hidden = None
    if "train" in splits:
        train = list(iter_split(path, "train", include_hidden))
    if "eval" in splits:
        evals = list(iter_split(path, "eval"))
    if include_hidden:
        hidden = load_hidden_map(os.path.join(path, _HIDDEN_NAME))
    return Dataset(cfg, space, table, train, evals, hidden)

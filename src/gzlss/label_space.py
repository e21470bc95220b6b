"""Class-identifier conventions, seen/unseen partitions and embedding storage.

Label id 0 is reserved for "unlabeled" everywhere.  Class ids are dense
consecutive integers with the seen block first: seen ids are 1..S and unseen
ids are S+1..S+U.  This keeps confusion-matrix indexing trivial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from gzlss.errors import FormatError

BACKGROUND_IGNORED = "ignored"
BACKGROUND_SEEN = "seen"


@dataclass(frozen=True)
class LabelSpace:
    """Disjoint seen/unseen id partition, immutable after construction."""

    seen_ids: tuple[int, ...]
    unseen_ids: tuple[int, ...]
    background_mode: str = BACKGROUND_IGNORED
    background_id: int | None = None

    @property
    def all_ids(self) -> tuple[int, ...]:
        return self.seen_ids + self.unseen_ids

    @property
    def num_classes(self) -> int:
        return len(self.seen_ids) + len(self.unseen_ids)


def build_label_space(
    seen: list[int] | tuple[int, ...],
    unseen: list[int] | tuple[int, ...],
    background_mode: str = BACKGROUND_IGNORED,
    background_id: int | None = None,
) -> LabelSpace:
    """Validate and freeze a label space.

    Seen ids must be exactly 1..len(seen) and unseen ids must continue the
    sequence; 0 is reserved for unlabeled pixels.  When ``background_mode``
    is "seen", exactly one seen id is designated as the background class.
    """
    seen = tuple(int(c) for c in seen)
    unseen = tuple(int(c) for c in unseen)
    if not seen or not unseen:
        raise ValueError("seen and unseen id lists must be non-empty")
    if 0 in seen or 0 in unseen:
        raise ValueError("id 0 is reserved for unlabeled pixels")
    if any(c < 0 for c in seen + unseen):
        raise ValueError("class ids must be positive")
    overlap = set(seen) & set(unseen)
    if overlap:
        raise ValueError(f"seen and unseen ids overlap: {sorted(overlap)}")
    if seen != tuple(range(1, len(seen) + 1)):
        raise ValueError(f"seen ids must be consecutive 1..{len(seen)}, got {seen}")
    expected_unseen = tuple(range(len(seen) + 1, len(seen) + len(unseen) + 1))
    if unseen != expected_unseen:
        raise ValueError(f"unseen ids must be consecutive {expected_unseen}, got {unseen}")

    if background_mode not in (BACKGROUND_IGNORED, BACKGROUND_SEEN):
        raise ValueError(f"unknown background mode: {background_mode!r}")
    if background_mode == BACKGROUND_SEEN:
        if background_id is None:
            background_id = seen[0]
        if background_id not in seen:
            raise ValueError(f"background id {background_id} is not a seen id")
    elif background_id is not None:
        raise ValueError("background_id only applies when background_mode='seen'")
    return LabelSpace(seen, unseen, background_mode, background_id)


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-class word-embedding vectors, one length-``dim`` row per class id."""

    dim: int
    vectors: dict[int, np.ndarray]

    def matrix(self, ids) -> np.ndarray:
        """Stack the vectors for ``ids`` into a (len(ids), dim) array."""
        return np.stack([self.vectors[int(c)] for c in ids])


def make_embedding_table(vectors: dict[int, np.ndarray]) -> EmbeddingTable:
    """Build a table from id -> vector, enforcing the type invariants."""
    if not vectors:
        raise ValueError("empty embedding table")
    if 0 in vectors:
        raise ValueError("id 0 cannot carry an embedding")
    out: dict[int, np.ndarray] = {}
    dim = None
    for class_id, vec in vectors.items():
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"embedding for id {class_id} is not a vector")
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise ValueError(
                f"embedding for id {class_id} has dimension {arr.shape[0]}, expected {dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"embedding for id {class_id} has non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        out[int(class_id)] = arr
    return EmbeddingTable(dim=int(dim), vectors=out)


def load_embeddings(path, space: LabelSpace) -> EmbeddingTable:
    """Read a plain-text embedding file covering exactly the ids of ``space``.

    Format: one row per class, whitespace separated, ``<class_id> <v_1> ...``;
    lines starting with ``#`` are ignored.
    """
    rows: dict[int, np.ndarray] = {}
    if not os.path.exists(path):
        raise FormatError(f"embedding file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                class_id = int(parts[0])
                values = np.array([float(tok) for tok in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: unparseable row: {exc}") from exc
            if class_id in rows:
                raise FormatError(f"{path}:{lineno}: duplicate row for id {class_id}")
            if values.size == 0:
                raise FormatError(f"{path}:{lineno}: row for id {class_id} has no values")
            if not np.all(np.isfinite(values)):
                raise FormatError(f"{path}:{lineno}: non-finite value for id {class_id}")
            rows[class_id] = values

    wanted = set(space.all_ids)
    missing = wanted - set(rows)
    if missing:
        raise FormatError(f"{path}: missing embeddings for ids {sorted(missing)}")
    extra = set(rows) - wanted
    if extra:
        raise FormatError(f"{path}: embeddings for ids outside the label space: {sorted(extra)}")
    dims = {v.shape[0] for v in rows.values()}
    if len(dims) != 1:
        raise FormatError(f"{path}: inconsistent embedding dimensions {sorted(dims)}")
    return make_embedding_table(rows)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the text format read by :func:`load_embeddings` (bit-exact round trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# class embeddings, dim={table.dim}\n")
        for class_id in sorted(table.vectors):
            vals = " ".join(repr(float(v)) for v in table.vectors[class_id])
            fh.write(f"{class_id} {vals}\n")


def _ids_up_to(mask: np.ndarray, last_id: int) -> bool:
    """True when every pixel of an integer mask holds an id in 0..last_id.

    Ids are dense (seen 1..S, then unseen S+1..S+U), so a range check is
    the whole check; ``np.unique`` only runs to name the bad ids.
    """
    return mask.size == 0 or (mask.min() >= 0 and mask.max() <= last_id)


def validate_training_mask(mask: np.ndarray, space: LabelSpace) -> None:
    """Raise if a training mask contains anything but 0 or seen ids."""
    mask = np.asarray(mask)
    if _ids_up_to(mask, space.seen_ids[-1]):
        return
    values = np.unique(mask)
    bad = values[(values < 0) | (values > space.unseen_ids[-1])]
    if bad.size:
        raise ValueError(f"mask contains ids outside the label space: {bad.tolist()}")
    bad = values[values > space.seen_ids[-1]]
    raise ValueError(f"training mask contains non-seen ids: {bad.tolist()}")


def validate_eval_mask(mask: np.ndarray, space: LabelSpace) -> None:
    """Raise if a ground-truth mask contains ids outside {0} + all classes."""
    mask = np.asarray(mask)
    if _ids_up_to(mask, space.unseen_ids[-1]):
        return
    values = np.unique(mask)
    bad = values[(values < 0) | (values > space.unseen_ids[-1])]
    raise ValueError(f"mask contains unknown ids: {bad.tolist()}")

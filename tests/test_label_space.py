"""Label-space construction rules and embedding-table I/O."""

import numpy as np
import pytest

from gzlss.errors import FormatError
from gzlss.label_space import (
    build_label_space,
    load_embeddings,
    make_embedding_table,
    save_embeddings,
    validate_eval_mask,
    validate_training_mask,
)


def test_space_basics(space):
    assert space.seen_ids == (1, 2, 3)
    assert space.unseen_ids == (4, 5)
    assert space.all_ids == (1, 2, 3, 4, 5)
    assert space.num_classes == 5


def test_space_rejects_bad_ids():
    with pytest.raises(ValueError):
        build_label_space([], [4])
    with pytest.raises(ValueError):
        build_label_space([0, 1], [2])
    with pytest.raises(ValueError):
        build_label_space([1, 2], [2, 3])  # overlap
    with pytest.raises(ValueError):
        build_label_space([1, 3], [4])  # gap in seen
    with pytest.raises(ValueError):
        build_label_space([1, 2], [5])  # gap before unseen
    with pytest.raises(ValueError):
        build_label_space([1, 2], [3], background_mode="both")


def test_background_modes():
    sp = build_label_space([1, 2], [3], background_mode="seen")
    assert sp.background_id == 1  # defaults to the first seen id
    sp = build_label_space([1, 2], [3], background_mode="seen", background_id=2)
    assert sp.background_id == 2
    with pytest.raises(ValueError):
        build_label_space([1, 2], [3], background_mode="seen", background_id=3)
    with pytest.raises(ValueError):
        build_label_space([1, 2], [3], background_id=1)  # ignored mode


def test_embedding_table_validation():
    with pytest.raises(ValueError):
        make_embedding_table({})
    with pytest.raises(ValueError):
        make_embedding_table({0: np.ones(3)})
    with pytest.raises(ValueError):
        make_embedding_table({1: np.ones(3), 2: np.ones(4)})
    with pytest.raises(ValueError):
        make_embedding_table({1: np.array([1.0, np.nan])})
    table = make_embedding_table({1: np.ones(3), 2: np.zeros(3)})
    assert table.dim == 3
    np.testing.assert_array_equal(table.matrix([2, 1]), [[0, 0, 0], [1, 1, 1]])


def test_embedding_round_trip(tmp_path, space, table):
    """Text round-trip is bit-exact thanks to repr floats."""
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    back = load_embeddings(path, space)
    assert back.dim == table.dim
    for c in space.all_ids:
        np.testing.assert_array_equal(back.vectors[c], table.vectors[c])


def test_embedding_load_errors(tmp_path, space):
    path = tmp_path / "emb.txt"
    with pytest.raises(FormatError):
        load_embeddings(path, space)  # missing file

    path.write_text("1 0.5 0.5\n2 0.5 0.5\n3 0.5 0.5\n4 0.5 0.5\n")
    with pytest.raises(FormatError):
        load_embeddings(path, space)  # id 5 missing

    rows = "\n".join(f"{c} 0.5 0.5" for c in range(1, 7))
    path.write_text(rows + "\n")
    with pytest.raises(FormatError):
        load_embeddings(path, space)  # id 6 is extra

    rows = "\n".join(f"{c} 0.5 0.5" for c in range(1, 6))
    path.write_text(rows + "\n1 0.1 0.1\n")
    with pytest.raises(FormatError):
        load_embeddings(path, space)  # duplicate id 1

    path.write_text("1 0.5\n2 0.5 0.5\n3 0.5\n4 0.5\n5 0.5\n")
    with pytest.raises(FormatError):
        load_embeddings(path, space)  # inconsistent dims


def test_embedding_comments_and_blank_lines(tmp_path, space):
    rows = "# header\n\n" + "\n".join(f"{c} 1.0 2.0" for c in space.all_ids)
    path = tmp_path / "emb.txt"
    path.write_text(rows + "\n")
    table = load_embeddings(path, space)
    assert table.dim == 2


def test_mask_validation(space):
    ok = np.array([[0, 1], [3, 2]])
    validate_training_mask(ok, space)
    with pytest.raises(ValueError):
        validate_training_mask(np.array([[0, 4]]), space)  # unseen id
    with pytest.raises(ValueError):
        validate_training_mask(np.array([[6]]), space)  # unknown id
    validate_eval_mask(np.array([[0, 5]]), space)
    with pytest.raises(ValueError):
        validate_eval_mask(np.array([[7]]), space)

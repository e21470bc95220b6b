"""Confusion bookkeeping, IoU / harmonic mean, pseudo-label quality counts."""

import numpy as np
import pytest

from gzlss import metrics
from gzlss.label_space import build_label_space, make_embedding_table


def test_accumulate_hand_case(space):
    cm = metrics.new_confusion(space)
    gt = np.array([[1, 0], [4, 5]])
    pred = np.array([[1, 2], [4, 4]])
    metrics.accumulate(pred, gt, cm)
    assert cm[1, 1] == 1 and cm[4, 4] == 1 and cm[5, 4] == 1
    assert cm.sum() == 3  # the gt=0 pixel is excluded

    rep = metrics.build_report(cm, space)
    assert rep.class_iou[1] == 100.0
    assert rep.class_iou[2] is None and rep.class_iou[3] is None
    assert rep.class_iou[4] == 50.0 and rep.class_iou[5] == 0.0
    assert rep.seen_miou == 100.0  # absent classes do not drag the mean down
    assert rep.unseen_miou == 25.0
    assert abs(rep.hm - 40.0) < 1e-12


def test_accumulate_rejects_bad_ids(space):
    cm = metrics.new_confusion(space)
    with pytest.raises(ValueError):
        metrics.accumulate(np.array([[0]]), np.array([[1]]), cm)  # pred 0 scored
    with pytest.raises(ValueError):
        metrics.accumulate(np.array([[9]]), np.array([[1]]), cm)
    with pytest.raises(ValueError):
        metrics.accumulate(np.array([[1]]), np.array([[9]]), cm)
    metrics.accumulate(np.array([[0]]), np.array([[0]]), cm)  # nothing scored: fine
    assert cm.sum() == 0


def test_iou_absent_is_none(space):
    cm = metrics.new_confusion(space)
    assert metrics.iou(cm, 1) is None
    cm[2, 2] = 5
    assert metrics.iou(cm, 2) == 1.0
    cm[2, 3] = 5  # gt 2 predicted as 3
    assert metrics.iou(cm, 2) == 0.5
    assert metrics.iou(cm, 3) == 0.0


def test_harmonic_mean_values():
    assert metrics.harmonic_mean(0.0, 0.0) == 0.0
    assert metrics.harmonic_mean(50.0, 50.0) == 50.0
    assert abs(metrics.harmonic_mean(80.0, 20.0) - 32.0) < 1e-12
    with pytest.raises(ValueError):
        metrics.harmonic_mean(-1.0, 10.0)


def test_pseudo_quality_hand_case():
    #      I        assigned  gt
    # p1:  yes      5 (ok)    5
    # p2:  yes      4 (wrong) 5
    # p3:  yes      0         4     -> missed
    # p4:  yes      5         0     -> background, assigned but unscored
    # p5:  no       -         1
    pseudo = np.array([[5, 4, 0, 5, 0]])
    gt = np.array([[5, 5, 4, 0, 1]])
    unlabeled = np.array([[True, True, True, True, False]])
    q = metrics.pseudo_quality(pseudo, gt, unlabeled)
    assert (q.unlabeled, q.assigned, q.scored, q.correct, q.gt_unseen) == (4, 3, 2, 1, 3)
    assert q.precision == 0.5
    assert abs(q.recall - 1 / 3) < 1e-12
    assert q.coverage == 0.75


def test_pseudo_quality_sums():
    a = metrics.PseudoQuality(4, 3, 2, 1, 3)
    b = metrics.PseudoQuality(2, 2, 2, 2, 2)
    tot = a + b
    assert (tot.unlabeled, tot.assigned, tot.scored, tot.correct, tot.gt_unseen) == (6, 5, 4, 3, 5)
    empty = metrics.PseudoQuality(0, 0, 0, 0, 0)
    assert empty.precision is None and empty.recall is None and empty.coverage is None


def test_summary_line_format():
    rep = metrics.GzlssReport({}, {}, {}, 82.66, 35.61, 49.81)
    assert metrics.summary_line(rep) == "S=82.7 U=35.6 HM=49.8"


def test_report_csv(tmp_path, space):
    cm = metrics.new_confusion(space)
    metrics.accumulate(np.array([[1, 4]]), np.array([[1, 4]]), cm)
    rep = metrics.build_report(cm, space)
    path = tmp_path / "report.csv"
    metrics.write_report_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == metrics.REPORT_SCHEMA
    assert lines[1].startswith("# S=")
    assert lines[2] == "class,iou,gt_pixels,pred_pixels"
    assert lines[3] == "1,100.0,1,1"
    assert lines[4] == "2,,0,0"  # absent class: empty IoU cell
    assert lines[-1].startswith("summary,100.0,")

"""CLI: config layering, exit codes, and a tiny end-to-end pipeline."""

import dataclasses
import gc
import os
import shutil
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gzlss import cli, parallel
from gzlss import self_training as st
from gzlss import synthetic_data as sd
from gzlss.errors import FormatError
from gzlss.metrics import evaluate_pairs, summary_line, write_report_csv
from gzlss.model import TrainConfig, load_checkpoint
from gzlss.self_training import read_history_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = ["--height", "16", "--width", "16", "--channels", "6", "--embed_dim", "4",
        "--num_seen", "3", "--num_unseen", "2", "--noise", "0.15",
        "--train_images", "8", "--eval_images", "4", "--min_class_images", "2",
        "--background", "seen"]
FAST = ["--base_iters", "20", "--cycle_iters", "8", "--cycles", "2",
        "--base_lr", "0.3", "--batch_size", "4"]


def test_config_layering(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# comment\nnoise=0.5\ncycles=4\n")
    cfg = cli.load_config(str(f), ["--cycles", "2", "--lam=3"])
    assert cfg["noise"] == 0.5
    assert cfg["cycles"] == 2  # override beats file
    assert cfg["lam"] == 3.0
    assert cfg["batch_size"] == 8  # untouched default


def test_config_rejects_unknown_and_bad_values(tmp_path):
    with pytest.raises(Exception):
        cli.load_config(None, ["--does_not_exist", "1"])
    with pytest.raises(Exception):
        cli.load_config(None, ["--cycles", "many"])
    f = tmp_path / "c.cfg"
    f.write_text("nonsense_key=1\n")
    with pytest.raises(Exception):
        cli.load_config(str(f), [])


def test_bool_parsing():
    assert cli.load_config(None, ["--timings", "true"])["timings"] is True
    assert cli.load_config(None, ["--timings", "0"])["timings"] is False
    with pytest.raises(Exception):
        cli.load_config(None, ["--timings", "perhaps"])


def test_exit_codes(tmp_path, capsys):
    # unknown config key -> 1
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"), "--bogus", "1"]) == 1
    # missing dataset directory -> 2
    assert cli.main(["eval", "--data", str(tmp_path / "none"),
                     "--model", str(tmp_path / "m.ckpt")]) == 2
    # invalid generator geometry -> 1
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"), "--height", "2"]) == 1
    # config file missing -> 2
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"),
                     "--config", str(tmp_path / "no.cfg")]) == 2
    capsys.readouterr()


RETRYING = ["--height", "16", "--width", "16", "--channels", "6", "--embed_dim", "4",
            "--num_seen", "3", "--num_unseen", "2", "--train_images", "6",
            "--eval_images", "6", "--min_class_images", "2", "--shapes_min", "2",
            "--shapes_max", "3", "--cooccurrence", "0.7"]


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("keys", [TINY, ["--config", str(CONFIGS / "smoke.cfg")],
                                  RETRYING + ["--data_seed", "3"],
                                  RETRYING + ["--data_seed", "0"]],
                         ids=["tiny", "smoke", "retry-seed3", "retry-seed0"])
def test_gen_data_writes_the_bytes_of_generate_and_save_dataset(tmp_path, capsys, keys):
    """gen-data writes each sample while the next renders; its files equal
    those of the in-memory path, and each sample's files are what the
    plain file writers give (retried splits included)."""
    streamed = tmp_path / "streamed"
    assert cli.main(["gen-data", "--out", str(streamed)] + keys) == 0
    capsys.readouterr()
    ds = sd.generate(sd.load_dataset(str(streamed), splits=()).config)
    sd.save_dataset(ds, str(tmp_path / "held"))
    files = _files(streamed)
    assert files == _files(tmp_path / "held")
    for split in sd.SPLITS:
        for i, s in enumerate(getattr(ds, split)):
            stem = f"{split}/img_{i:04d}"
            sd.write_feat(s.image, str(tmp_path / "f"))
            sd.write_pgm(s.train_mask, str(tmp_path / "m"))
            sd.write_pgm(s.hidden_gt, str(tmp_path / "g"))
            assert files[stem + ".feat"] == (tmp_path / "f").read_bytes()
            assert files[stem + ".mask.pgm"] == (tmp_path / "m").read_bytes()
            assert files[stem + ".gt.pgm"] == (tmp_path / "g").read_bytes()
    assert len(files) == 4 + 3 * (len(ds.train) + len(ds.eval))  # 4: the header files


# every seen and unseen class twice in 6 train images fails all 20 tries
UNPOPULATED = ["--height", "16", "--width", "16", "--channels", "6", "--embed_dim", "4",
               "--num_seen", "4", "--num_unseen", "2", "--train_images", "6",
               "--eval_images", "4", "--min_class_images", "2", "--shapes_min", "1",
               "--shapes_max", "2", "--cooccurrence", "0.5", "--data_seed", "0"]


def test_failed_gen_data_leaves_no_loadable_dataset(tmp_path, capsys):
    """A split that cannot be populated exits 1; written over a good
    dataset, it leaves a directory that does not load, and no thread."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 0
    sd.load_dataset(str(data))
    capsys.readouterr()
    threads = threading.enumerate()
    assert cli.main(["gen-data", "--out", str(data)] + UNPOPULATED) == 1
    assert capsys.readouterr().err == (
        "configuration error: could not populate every class 2x in 6 images; "
        "raise the image count or cooccurrence rate\n")
    with pytest.raises(FormatError, match="dataset metadata not found"):
        sd.load_dataset(str(data))
    assert threading.enumerate() == threads


def test_gen_data_write_error_exits_2_and_joins_the_writer(tmp_path, capsys):
    """A file the writer thread cannot create is named in the main thread
    (exit 2); meta.txt stays deleted, and the writer is joined."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 0
    capsys.readouterr()
    bad = data / "train" / "img_0003.feat"
    bad.unlink()
    bad.mkdir()
    threads = threading.enumerate()
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not (data / "meta.txt").exists()
    assert threading.enumerate() == threads


def _failing_replace(monkeypatch, name):
    """Make ``os.replace`` raise when it would replace a file named ``name``."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(f"cannot replace {dst}")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def test_cut_meta_write_leaves_no_loadable_dataset(tmp_path, capsys, monkeypatch):
    """meta.txt is written to meta.txt.tmp and renamed: when the rename
    fails, gen-data exits 2 and the directory does not load, also where a
    good dataset was; the complete meta.txt.tmp left behind is not read."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 0
    capsys.readouterr()
    with monkeypatch.context() as m:
        _failing_replace(m, "meta.txt")
        assert cli.main(["gen-data", "--out", str(data), "--data_seed", "12"] + TINY) == 2
    assert "cannot replace" in capsys.readouterr().err
    assert "seed=12\n" in (data / "meta.txt.tmp").read_text()
    assert not (data / "meta.txt").exists()
    with pytest.raises(FormatError, match="dataset metadata not found"):
        sd.load_dataset(str(data))


def test_leftover_meta_tmp_is_never_read(tmp_path, capsys):
    """A meta.txt.tmp cut short, next to a good meta.txt, changes nothing:
    the dataset loads with meta.txt's settings (a cut 'seed=12' read as
    written would load as seed 1)."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data), "--data_seed", "12"] + TINY) == 0
    capsys.readouterr()
    assert not (data / "meta.txt.tmp").exists()
    meta = (data / "meta.txt").read_bytes()
    (data / "meta.txt.tmp").write_bytes(meta[:-2])  # "seed=12\n" cut to "seed=1"
    assert sd.load_dataset(str(data)).config.seed == 12
    assert cli.main(["gen-data", "--out", str(data), "--data_seed", "12"] + TINY) == 0
    assert (data / "meta.txt").read_bytes() == meta
    assert not (data / "meta.txt.tmp").exists()


def test_cut_run_cfg_write_leaves_no_run_cfg(tmp_path, capsys, monkeypatch):
    """run.cfg is written to run.cfg.tmp and renamed: when the rename
    fails, selftrain exits 2 before training, and there is no run.cfg for
    a resume to trust."""
    data = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", data] + TINY) == 0
    run = tmp_path / "run"
    capsys.readouterr()
    with monkeypatch.context() as m:
        _failing_replace(m, "run.cfg")
        assert cli.main(["selftrain", "--data", data, "--out", str(run)] + FAST) == 2
    assert "cannot replace" in capsys.readouterr().err
    assert sorted(p.name for p in run.iterdir()) == ["run.cfg.tmp"]
    assert cli.main(["selftrain", "--data", data, "--out", str(run)] + FAST) == 0
    assert not (run / "run.cfg.tmp").exists()
    assert (run / "run.cfg").read_text().startswith("# dataset sha256=")


def test_gen_data_memory_does_not_grow_with_the_split(tmp_path, capsys):
    """gen-data holds a few samples, not the split: the peak of traced
    allocations differs between N and 10N images by at most the three
    batches in flight (drawn, waiting, being written)."""
    assert cli.main(["gen-data", "--out", str(tmp_path / "warm")] + TINY) == 0  # first-call imports
    peaks = {}
    for n in (10, 100):
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.main(["gen-data", "--out", str(tmp_path / f"d{n}")] + TINY
                            + ["--train_images", str(n), "--eval_images", str(n)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    s = next(sd.iter_split(str(tmp_path / "d10"), "train", include_hidden=True))
    sample_bytes = s.image.nbytes + s.train_mask.nbytes + s.hidden_gt.nbytes
    assert peaks[100] - peaks[10] < (3 * sd._WRITE_BATCH + 4) * sample_bytes, peaks


def _corrupt(path, value):
    mask = sd.read_pgm(path)
    good = mask.copy()
    mask[0, 0] = value
    sd.write_pgm(mask, path)
    return good


def _masks_from(out, k):
    """The pseudo masks in ``out`` of image k or later."""
    return [p.name for p in out.glob("img_*.pseudo.pgm") if int(p.name[4:8]) >= k]


def test_bad_mask_file_exits_2(tmp_path, capsys):
    """Every mask of a split a command reads is checked; exit 2 names the file."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 0
    model = str(data / "oracle.ckpt")
    path = data / "train" / "img_0002.mask.pgm"
    good = _corrupt(path, 4)  # an unseen id (seen classes are 1-3)
    capsys.readouterr()
    assert cli.main(["selftrain", "--data", str(data), "--out",
                     str(tmp_path / "run")] + TINY + FAST) == 2
    assert "img_0002.mask.pgm" in capsys.readouterr().err
    assert cli.main(["pseudo", "--data", str(data), "--model", model,
                     "--out", str(tmp_path / "p")] + FAST) == 2
    assert "img_0002.mask.pgm" in capsys.readouterr().err
    assert _masks_from(tmp_path / "p", 2) == []  # pseudo streams: masks 0-1 may exist
    sd.write_pgm(good, path)

    gt_path = data / "eval" / "img_0001.gt.pgm"
    good = _corrupt(gt_path, 9)  # no such class
    assert cli.main(["eval", "--data", str(data), "--model", model]) == 2
    assert "img_0001.gt.pgm" in capsys.readouterr().err
    sd.write_pgm(good, gt_path)

    # a file of the wrong shape is refused at load, by name, before any
    # training or pseudo-labelling could use the wrong pixels
    for split, name, cmd in (("train", "img_0003.feat", "selftrain"),
                             ("train", "img_0001.mask.pgm", "pseudo"),
                             ("eval", "img_0002.gt.pgm", "eval")):
        path = data / split / name
        good = path.read_bytes()
        if name.endswith(".feat"):
            sd.write_feat(sd.read_feat(str(path))[:, 1:], str(path))
        else:
            sd.write_pgm(sd.read_pgm(str(path))[:, :-1], str(path))
        argv = {"selftrain": ["selftrain", "--out", str(tmp_path / "run2")] + TINY + FAST,
                "pseudo": ["pseudo", "--model", model, "--out", str(tmp_path / "p2")] + FAST,
                "eval": ["eval", "--model", model]}[cmd]
        assert cli.main(argv + ["--data", str(data)]) == 2, name
        err = capsys.readouterr().err
        assert f"{name}: shape" in err and "configuration error" not in err
        path.write_bytes(good)
    assert _masks_from(tmp_path / "p2", 1) == []

    # bytes after the pixel data are refused too
    path = data / "eval" / "img_0003.feat"
    good = path.read_bytes()
    path.write_bytes(good + b"junk")
    assert cli.main(["eval", "--data", str(data), "--model", model]) == 2
    assert f"img_0003.feat: trailing bytes after the pixel data at byte {len(good)}" in (
        capsys.readouterr().err)
    path.write_bytes(good)

    # a checkpoint whose header describes no backbone is a format error too
    bad_model = tmp_path / "w0.ckpt"
    bad_model.write_bytes(Path(model).read_bytes()[:12] + bytes(4)
                          + Path(model).read_bytes()[16:])
    assert cli.main(["eval", "--data", str(data), "--model", str(bad_model)]) == 2
    assert "window 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny dataset and a base checkpoint trained on it."""
    root = tmp_path_factory.mktemp("trained")
    data, ckpt = root / "data", root / "base.ckpt"
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 0
    assert cli.main(["train-base", "--data", str(data), "--out", str(ckpt)] + FAST) == 0
    return data, ckpt


def _pseudo_masks(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_eval_and_pseudo_read_only_their_split(trained, tmp_path, capsys):
    data, ckpt = trained
    eval_cmd = ["eval", "--model", str(ckpt)]
    pseudo_cmd = ["pseudo", "--model", str(ckpt)] + FAST
    assert cli.main(eval_cmd + ["--data", str(data), "--report", str(tmp_path / "a.csv")]) == 0
    assert cli.main(pseudo_cmd + ["--data", str(data), "--out", str(tmp_path / "a")]) == 0
    both = capsys.readouterr().out

    for split in ("train", "eval"):
        shutil.copytree(data, tmp_path / f"no-{split}")
        shutil.rmtree(tmp_path / f"no-{split}" / split)
    assert cli.main(eval_cmd + ["--data", str(tmp_path / "no-train"),
                                "--report", str(tmp_path / "b.csv")]) == 0
    assert cli.main(pseudo_cmd + ["--data", str(tmp_path / "no-eval"),
                                  "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == both.replace(str(tmp_path / "a"), str(tmp_path / "b"))
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert _pseudo_masks(tmp_path / "b") == _pseudo_masks(tmp_path / "a")


def test_eval_starts_no_worker(trained, tmp_path, capsys, monkeypatch):
    data, ckpt = trained
    started = []

    def worker(ctx, *args):
        started.append(ctx)
        return real_worker(ctx, *args)

    real_worker = parallel._Worker
    monkeypatch.setattr(parallel, "_Worker", worker)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    report = tmp_path / "report.csv"
    assert cli.main(["eval", "--data", str(data), "--model", str(ckpt),
                     "--report", str(report)] + FAST) == 0
    assert started == []
    assert cli.main(["pseudo", "--data", str(data), "--model", str(ckpt),
                     "--out", str(tmp_path / "p")] + FAST) == 0
    assert len(started) == 3  # the pseudo-labelling commands keep their pool
    capsys.readouterr()

    ds = sd.load_dataset(str(data))
    with parallel.Pool(2) as pool:
        rep = evaluate_pairs(load_checkpoint(ckpt), [(s.image, s.hidden_gt) for s in ds.eval],
                             ds.table, ds.space, pool=pool)
    write_report_csv(rep, tmp_path / "pool.csv")
    assert (tmp_path / "pool.csv").read_bytes() == report.read_bytes()


def _record_map(monkeypatch, sent):
    """Append every item ``Pool.map`` draws to ``sent``, drawing a list as a
    list and any other iterable as lazily as ``Pool.map`` itself does, and
    every item of ``Pool.chain``."""
    real_map, real_chain = parallel.Pool.map, parallel.Pool.chain

    def recording_map(self, func, items):
        if isinstance(items, list):
            sent.extend(items)
            return real_map(self, func, items)
        return real_map(self, func, (sent.append(item) or item for item in items))

    def recording_chain(self, func, items):
        sent.extend(items)
        return real_chain(self, func, items)

    monkeypatch.setattr(parallel.Pool, "map", recording_map)
    monkeypatch.setattr(parallel.Pool, "chain", recording_chain)


def _cached(item):
    """The ``Cached`` arguments of ``item``, also those inside a list."""
    for v in item.values():
        for c in v if isinstance(v, list) else [v]:
            if isinstance(c, parallel.Cached):
                yield c


def test_train_base_scores_eval_images_in_process(trained, tmp_path, capsys, monkeypatch):
    """train-base trains on its pool, but sends no eval image to a worker:
    each is used once.  The printed score is the one the pool gives."""
    data, ckpt = trained
    sent = []
    _record_map(monkeypatch, sent)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    out = tmp_path / "base.ckpt"
    assert cli.main(["train-base", "--data", str(data), "--out", str(out)] + FAST) == 0
    keys = {c.key[0] for item in sent for c in _cached(item)}
    assert keys == {"image", "mask"}
    assert out.read_bytes() == ckpt.read_bytes()

    ds = sd.load_dataset(str(data), splits=("eval",))
    with parallel.Pool(2) as pool:
        rep = evaluate_pairs(load_checkpoint(ckpt), [(s.image, s.hidden_gt) for s in ds.eval],
                             ds.table, ds.space, pool=pool)
    assert capsys.readouterr().out == f"saved {out}\n{summary_line(rep)}\n"


def test_pseudo_sends_plain_values_and_selftrain_cached(trained, tmp_path, capsys,
                                                       monkeypatch):
    """pseudo uses each image once, so no worker is asked to keep one;
    selftrain reuses its images and sends them as ``Cached``."""
    data, ckpt = trained
    sent = []
    _record_map(monkeypatch, sent)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    for argv, want in ((["pseudo", "--model", str(ckpt), "--out", str(tmp_path / "p")], False),
                       (["selftrain", "--out", str(tmp_path / "run")] + TINY, True)):
        sent.clear()
        assert cli.main(argv + ["--data", str(data)] + FAST) == 0
        assert sent
        assert any(True for item in sent for _ in _cached(item)) == want
    capsys.readouterr()


def test_eval_and_pseudo_memory_does_not_grow_with_the_split(tmp_path, capsys, monkeypatch):
    """The peak of traced allocations of eval and pseudo, in-process, differs
    between N and 10N images by a few images' worth, not by 9N images."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    peaks = {}
    for n in (10, 100):
        data = tmp_path / f"d{n}"
        assert cli.main(["gen-data", "--out", str(data)] + TINY  # later keys win
                        + ["--train_images", str(n), "--eval_images", str(n)]) == 0
        model = str(data / "oracle.ckpt")
        for argv in (["eval", "--report", str(tmp_path / f"r{n}.csv")],
                     ["pseudo", "--out", str(tmp_path / f"m{n}")]):
            gc.collect()
            tracemalloc.start()
            try:
                assert cli.main(argv + ["--data", str(data), "--model", model]) == 0
                peaks[argv[0], n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    capsys.readouterr()
    s = next(sd.iter_split(str(data), "train", include_hidden=True))
    image_bytes = s.image.nbytes + s.train_mask.nbytes + s.hidden_gt.nbytes
    for cmd in ("eval", "pseudo"):
        assert peaks[cmd, 100] - peaks[cmd, 10] < 5 * image_bytes, (cmd, peaks)


def test_end_to_end_pipeline(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", data] + TINY) == 0

    ckpt = str(tmp_path / "base.ckpt")
    assert cli.main(["train-base", "--data", data, "--out", ckpt] + FAST) == 0
    out = capsys.readouterr().out
    assert "S=" in out and "HM=" in out

    pdir = str(tmp_path / "pseudo")
    assert cli.main(["pseudo", "--data", data, "--model", ckpt, "--out", pdir] + FAST) == 0
    out = capsys.readouterr().out
    assert "precision=" in out  # hidden gt is present, quality printed
    mask = sd.read_pgm(tmp_path / "pseudo" / "img_0000.pseudo.pgm")
    assert mask.shape == (16, 16)
    assert set(np.unique(mask)) <= {0, 4, 5}

    run = str(tmp_path / "run")
    assert cli.main(["selftrain", "--data", data, "--out", run] + FAST) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out.startswith("S=")
    records = read_history_csv(tmp_path / "run" / "history.csv")
    assert [r.cycle for r in records] == [0, 1, 2]

    report = str(tmp_path / "report.csv")
    assert cli.main(["eval", "--data", data, "--model", str(tmp_path / "run" / "model.ckpt"),
                     "--report", report] + FAST) == 0
    assert (tmp_path / "report.csv").exists()
    capsys.readouterr()


def test_selftrain_determinism_and_resume(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["selftrain", "--data", data, "--out", a] + FAST) == 0
    assert cli.main(["selftrain", "--data", data, "--out", b] + FAST) == 0
    ha = (tmp_path / "a" / "history.csv").read_bytes()
    hb = (tmp_path / "b" / "history.csv").read_bytes()
    assert ha == hb

    # resume cycle 2 in-place reproduces the same history
    assert cli.main(["selftrain", "--data", data, "--out", a, "--resume", "2"] + FAST) == 0
    assert (tmp_path / "a" / "history.csv").read_bytes() == hb
    capsys.readouterr()


def test_selftrain_zero_cycles_writes_base_row_only(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    run = str(tmp_path / "run")
    assert cli.main(["selftrain", "--data", data, "--out", run] + FAST +
                    ["--cycles", "0"]) == 0
    records = read_history_csv(tmp_path / "run" / "history.csv")
    assert [r.cycle for r in records] == [0]
    capsys.readouterr()


def test_eval_gamma_zero_equals_no_flag(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    ckpt = str(tmp_path / "base.ckpt")
    cli.main(["train-base", "--data", data, "--out", ckpt] + FAST)
    capsys.readouterr()
    assert cli.main(["eval", "--data", data, "--model", ckpt]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["eval", "--data", data, "--model", ckpt, "--gamma", "0"]) == 0
    assert capsys.readouterr().out == plain


def test_eval_background_override(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)  # seen background
    ckpt = str(tmp_path / "base.ckpt")
    cli.main(["train-base", "--data", data, "--out", ckpt] + FAST)
    capsys.readouterr()
    assert cli.main(["eval", "--data", data, "--model", ckpt]) == 0
    with_bg = capsys.readouterr().out
    assert cli.main(["eval", "--data", data, "--model", ckpt,
                     "--background", "ignored"]) == 0
    without_bg = capsys.readouterr().out  # background class dropped from S
    assert with_bg != without_bg

    other = str(tmp_path / "nobg")
    cli.main(["gen-data", "--out", other] + TINY[:-2] +
             ["--background", "ignored", "--eval_images", "6",
              "--min_class_images", "1"])
    capsys.readouterr()
    assert cli.main(["eval", "--data", other, "--model", ckpt,
                     "--background", "seen"]) == 1  # no background class exists
    capsys.readouterr()


def test_ablation_none_row_equals_raw_st_run(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    out_csv = str(tmp_path / "ablation.csv")
    assert cli.main(["ablate-augs", "--data", data, "--out", out_csv] + FAST) == 0
    none_row = (tmp_path / "ablation.csv").read_text().splitlines()[2]

    run = str(tmp_path / "run")
    assert cli.main(["selftrain", "--data", data, "--out", run,
                     "--strategy", "raw_st", "--specs", "identity"] + FAST) == 0
    last = read_history_csv(tmp_path / "run" / "history.csv")[-1]
    want = f"none,{last.seen_miou:.4f},{last.unseen_miou:.4f},{last.hm:.4f}"
    assert none_row == want
    capsys.readouterr()


def test_ablate_augs_grid(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    out_csv = str(tmp_path / "ablation.csv")
    code = cli.main(["ablate-augs", "--data", data, "--out", out_csv,
                     "--base_iters", "10", "--cycle_iters", "4", "--cycles", "1",
                     "--base_lr", "0.3", "--batch_size", "4"])
    assert code == 0
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert lines[1] == "regime,seen_miou,unseen_miou,hm"
    names = [ln.split(",")[0] for ln in lines[2:]]
    assert names == ["none", "mirror", "down", "up", "random",
                     "mirror+down", "mirror+up", "mirror+random"]
    assert not (tmp_path / "ablation.csv.tmp").exists()
    capsys.readouterr()


def test_every_dataclass_field_is_a_key():
    """The CLI keys are the GeneratorConfig and TrainConfig fields, defaults included."""
    renames = {"seed": "data_seed"}
    for f in dataclasses.fields(sd.GeneratorConfig):
        key = renames.get(f.name, f.name)
        want = "auto" if key == "background" else f.default
        assert cli.SCHEMA[key][1] == want, key
    for f in dataclasses.fields(TrainConfig):
        assert cli.SCHEMA[f.name][1] == f.default, f.name
    pipeline = {"specs", "strategy", "gamma", "timings"}
    n_fields = len(dataclasses.fields(sd.GeneratorConfig)) + len(dataclasses.fields(TrainConfig))
    assert len(cli.SCHEMA) == n_fields + len(pipeline)
    assert pipeline <= set(cli.SCHEMA)


def test_standard_meta_golden_bytes(tmp_path):
    cfg = cli.load_config(str(CONFIGS / "standard.cfg"), [])
    path = tmp_path / "meta.txt"
    sd._write_meta(cli._build(sd.GeneratorConfig, cfg), str(path))
    assert path.read_bytes() == (
        b"format_version=1\nheight=32\nwidth=32\nchannels=16\nembed_dim=12\n"
        b"num_seen=6\nnum_unseen=3\nnoise=0.45\nshapes_min=4\nshapes_max=7\n"
        b"shape_kinds=rect,ellipse\ncooccurrence=0.7\ntrain_images=200\n"
        b"eval_images=50\nmin_class_images=3\nbackground=seen\nbackground_id=1\nseed=0\n"
    )


def test_non_default_config_round_trip(tmp_path, capsys):
    """Tuple and float keys survive the CLI, meta.txt and run.cfg unchanged."""
    data = tmp_path / "data"
    odd = ["--shape_kinds", "ellipse", "--noise", "0.1234567890123457"]
    assert cli.main(["gen-data", "--out", str(data)] + TINY + odd) == 0
    cfg = sd.load_dataset(str(data)).config
    assert cfg.shape_kinds == ("ellipse",)
    assert cfg.noise == 0.1234567890123457

    run = tmp_path / "run"
    args = FAST + ["--hidden", "5", "--cycles", "1"]
    assert cli.main(["selftrain", "--data", str(data), "--out", str(run)] + args) == 0
    shapes = [w.shape for w in load_checkpoint(run / "model.ckpt").weights]
    assert shapes == [(5, 6), (4, 5)]
    want = cli.load_config(None, args)
    assert want["hidden"] == (5,)
    assert cli.load_config(str(run / "run.cfg"), []) == want
    capsys.readouterr()


def test_killed_run_resumes_to_the_same_history(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert cli.main(["selftrain", "--data", data, "--out", str(full)] + FAST) == 0

    run_cycle = st.run_cycle

    def killed_at_cycle_2(*args):
        if args[5] == 2:
            raise RuntimeError("killed")
        return run_cycle(*args)

    monkeypatch.setattr(st, "run_cycle", killed_at_cycle_2)
    with pytest.raises(RuntimeError, match="killed"):
        cli.main(["selftrain", "--data", data, "--out", str(cut)] + FAST)
    monkeypatch.undo()
    assert [r.cycle for r in read_history_csv(cut / "history.csv")] == [0, 1]

    assert cli.main(["selftrain", "--data", data, "--out", str(cut),
                     "--resume", "2"] + FAST) == 0
    assert (cut / "history.csv").read_bytes() == (full / "history.csv").read_bytes()
    capsys.readouterr()


def test_resume_refuses_changed_settings(tmp_path, capsys):
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    run = str(tmp_path / "run")
    args = FAST + ["--window", "3"]
    assert cli.main(["selftrain", "--data", data, "--out", run] + args) == 0
    capsys.readouterr()
    assert cli.main(["selftrain", "--data", data, "--out", run, "--resume", "2"]
                    + args + ["--lam", "9", "--window", "1"]) == 1
    err = capsys.readouterr().err
    assert "lam=9.0" in err and "lam=1.0" in err
    # timings only changes the seconds column, so it may differ
    assert cli.main(["selftrain", "--data", data, "--out", run, "--resume", "2"]
                    + args + ["--timings", "true"]) == 0
    capsys.readouterr()


def test_negative_resume_writes_nothing(tmp_path, capsys):
    """``--resume -1`` exits 1 before anything is written, so it cannot
    replace ``run.cfg`` and let a later resume with other settings in."""
    data = str(tmp_path / "data")
    cli.main(["gen-data", "--out", data] + TINY)
    run = tmp_path / "run"
    assert cli.main(["selftrain", "--data", data, "--out", str(run)] + FAST) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert cli.main(["selftrain", "--data", data, "--out", str(run), "--resume", "-1"]
                    + FAST + ["--lam", "9"]) == 1
    assert "--resume must be 0 or a cycle number, got -1" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert cli.main(["selftrain", "--data", data, "--out", str(run), "--resume", "2"]
                    + FAST + ["--lam", "9"]) == 1
    assert "lam=9.0" in capsys.readouterr().err
    fresh = tmp_path / "fresh"
    assert cli.main(["selftrain", "--data", data, "--out", str(fresh), "--resume", "-1"]
                    + FAST) == 1
    assert not fresh.exists()
    capsys.readouterr()


def test_resume_refuses_another_dataset(tmp_path, capsys):
    """Datasets that differ only in noise: resuming a run on the other one
    would mix two datasets in one history."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["gen-data", "--out", a] + TINY + ["--noise", "0.1"]) == 0
    assert cli.main(["gen-data", "--out", b] + TINY + ["--noise", "0.4"]) == 0
    run = str(tmp_path / "run")
    assert cli.main(["selftrain", "--data", a, "--out", run] + FAST) == 0
    assert (tmp_path / "run" / "run.cfg").read_text().startswith("# dataset sha256=")
    capsys.readouterr()
    assert cli.main(["selftrain", "--data", b, "--out", run, "--resume", "2"] + FAST) == 1
    assert f"--resume with dataset {b}" in capsys.readouterr().err
    assert cli.main(["selftrain", "--data", a, "--out", run, "--resume", "2"] + FAST) == 0
    capsys.readouterr()


def test_resume_refuses_a_history_with_a_gap(tmp_path, capsys):
    """``--resume N`` needs the history rows of cycles 0..N-1: with rows 0
    and 1 alone, ``--resume 3`` would write a history of cycles 0, 1, 3."""
    smoke = str(CONFIGS / "smoke.cfg")
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-data", "--config", smoke, "--out", data]) == 0
    assert cli.main(["selftrain", "--config", smoke, "--data", data, "--out", str(run)]) == 0
    history = run / "history.csv"
    history.write_text("".join(history.read_text().splitlines(keepends=True)[:4]))  # rows 0-1
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert cli.main(["selftrain", "--config", smoke, "--data", data, "--out", str(run),
                     "--resume", "3"]) == 2
    err = capsys.readouterr().err
    assert str(history) in err and "cycles 0 to 2, found 0, 1" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert cli.main(["selftrain", "--config", smoke, "--data", data, "--out", str(run),
                     "--resume", "2"]) == 0
    assert [r.cycle for r in read_history_csv(history)] == [0, 1, 2, 3]
    capsys.readouterr()


def test_removed_reset_per_cycle_key_is_unknown(tmp_path, capsys):
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"),
                     "--reset_per_cycle", "false"]) == 1
    assert "unknown configuration key: 'reset_per_cycle'" in capsys.readouterr().err

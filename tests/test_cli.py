"""CLI: config layering, exit codes, and a tiny end-to-end pipeline."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gzlss import cli
from gzlss import self_training as st
from gzlss import synthetic_data as sd
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


def test_bad_mask_file_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data)] + TINY) == 0
    path = data / "train" / "img_0002.mask.pgm"
    mask = sd.read_pgm(path)
    mask[0, 0] = 4  # an unseen id (seen classes are 1-3)
    sd.write_pgm(mask, path)
    capsys.readouterr()
    assert cli.main(["selftrain", "--data", str(data), "--out",
                     str(tmp_path / "run")] + TINY + FAST) == 2
    assert "img_0002.mask.pgm" in capsys.readouterr().err


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


def test_removed_reset_per_cycle_key_is_unknown(tmp_path, capsys):
    assert cli.main(["gen-data", "--out", str(tmp_path / "d"),
                     "--reset_per_cycle", "false"]) == 1
    assert "unknown configuration key: 'reset_per_cycle'" in capsys.readouterr().err

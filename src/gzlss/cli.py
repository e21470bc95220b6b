"""Command-line front end.

Subcommands cover the whole pipeline: ``gen-data`` builds a synthetic
benchmark, ``train-base`` fits the seen-class model, ``pseudo`` dumps
pseudo-label masks, ``selftrain`` runs the full cycle loop, ``eval`` scores
a checkpoint, and ``ablate-augs`` sweeps the transformation-set grid.

Settings live in one flat key=value namespace: defaults, then an optional
``--config`` file, then ``--<key> <value>`` overrides, in that order.
Unknown keys are errors.  Exit codes: 1 configuration, 2 file I/O or
format, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import os
import sys
import typing

import numpy as np

from gzlss import augmentation, parallel, self_training, synthetic_data
from gzlss.errors import ConfigError, FormatError, NumericError
from gzlss.label_space import BACKGROUND_IGNORED, BACKGROUND_SEEN
from gzlss.metrics import evaluate_pairs, summary_line, write_report_csv
from gzlss.model import TrainConfig, load_checkpoint, save_checkpoint
from gzlss.pseudo_labeler import parse_strategy
from gzlss.self_training import strict_train

# the dataclasses whose fields are configuration keys, each with the fields
# that take another key name (TrainConfig already owns "seed")
_SECTIONS = {synthetic_data.GeneratorConfig: {"seed": "data_seed"}, TrainConfig: {}}


def _schema() -> dict[str, tuple[type, object]]:
    """The one flat configuration namespace, key -> (type, default): every
    field of the ``_SECTIONS`` dataclasses, then the pipeline keys."""
    schema = {}
    for cls, renames in _SECTIONS.items():
        types = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            schema[renames.get(f.name, f.name)] = (types[f.name], f.default)
    # "auto" = the dataset's own mode at eval time, "ignored" at generation
    schema["background"] = (str, "auto")
    schema.update(specs=(str, "identity,mirror,scale=3/2"), strategy=(str, "strict"),
                  gamma=(float, 0.0), timings=(bool, False))
    return schema


SCHEMA = _schema()

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, text: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key: {key!r}")
    typ, _ = SCHEMA[key]
    text = text.strip()
    try:
        if typ is bool:
            low = text.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if typing.get_origin(typ) is tuple:  # comma list, e.g. hidden=16,16
            item = typing.get_args(typ)[0]
            return tuple(item(t.strip()) for t in text.split(",") if t.strip())
        return typ(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise FormatError(f"config file not found: {path}")
    out = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = _coerce(key, value)
    return out


def _apply_overrides(cfg: dict, extras: list[str]) -> None:
    """Consume leftover ``--key value`` pairs; anything else is an error."""
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument: {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"missing value for --{key}")
            i += 1
            value = extras[i]
        cfg[key] = _coerce(key, value)
        i += 1


def load_config(config_path: str | None, extras: list[str]) -> dict:
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    if config_path:
        cfg.update(_read_config_file(config_path))
    _apply_overrides(cfg, extras)
    return cfg


def _build(cls, cfg: dict):
    """The ``cls`` dataclass from the configuration keys of its fields."""
    renames = _SECTIONS[cls]
    try:
        return cls(**{f.name: cfg[renames.get(f.name, f.name)]
                      for f in dataclasses.fields(cls)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _pipeline_specs(cfg: dict) -> list[augmentation.AugmentationSpec]:
    """The parsed view specs, after checking the strategy name too."""
    try:
        parse_strategy(cfg["strategy"])
        return augmentation.parse_spec_list(cfg["specs"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format(value) -> str:
    """A value as ``--config`` reads it back."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _dataset_line(data: str) -> str:
    """The ``run.cfg`` comment naming a dataset by the sha256 of its
    ``meta.txt`` and ``embeddings.txt``, from which every sample follows."""
    digest = hashlib.sha256()
    for name in ("meta.txt", "embeddings.txt"):
        with open(os.path.join(data, name), "rb") as fh:
            digest.update(fh.read())
    return f"# dataset sha256={digest.hexdigest()}\n"


def _check_resume_settings(cfg: dict, path: str, data: str) -> None:
    """A resumed run must use the dataset and the settings its ``run.cfg``
    recorded; only ``timings`` may change, since it touches no result."""
    saved = _read_config_file(path)
    with open(path, encoding="utf-8") as fh:
        recorded = fh.readline()
    if recorded != _dataset_line(data):
        raise ConfigError(
            f"--resume with dataset {data}, but the run used another one "
            f"({path} records {recorded.strip() or 'nothing'})"
        )
    for key in SCHEMA:
        if key != "timings" and saved.get(key) != cfg[key]:
            raise ConfigError(
                f"--resume with {key}={_format(cfg[key])}, but the run used "
                f"{key}={_format(saved.get(key, ''))} ({path})"
            )


def _load_dataset(path: str, include_hidden: bool = False,
                  splits=synthetic_data.SPLITS) -> synthetic_data.Dataset:
    if not os.path.isdir(path):
        raise FormatError(f"dataset directory not found: {path}")
    return synthetic_data.load_dataset(path, include_hidden, splits)


def _has_hidden(path: str) -> bool:
    return os.path.exists(os.path.join(path, "hidden_map.txt"))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args, cfg: dict, pool) -> int:
    if cfg["background"] == "auto":
        cfg = dict(cfg, background=BACKGROUND_IGNORED)
    ds = synthetic_data.generate(_build(synthetic_data.GeneratorConfig, cfg))
    synthetic_data.save_dataset(ds, args.out)
    print(f"wrote {len(ds.train)} train / {len(ds.eval)} eval images to {args.out}")
    return 0


def _eval_pairs(path: str):
    """(image, ground truth) of each eval image, read as it is drawn."""
    return ((s.image, s.hidden_gt) for s in synthetic_data.iter_split(path, "eval"))


def _cmd_train_base(args, cfg: dict, pool) -> int:
    ds = _load_dataset(args.data, splits=("train",))
    params = self_training.train_base(ds, _build(TrainConfig, cfg), pool)
    save_checkpoint(args.out, params)
    # in-process, as in eval: each eval image is used once
    rep = evaluate_pairs(params, _eval_pairs(args.data), ds.table, ds.space, cfg["gamma"])
    print(f"saved {args.out}")
    print(summary_line(rep))
    return 0


def _cmd_pseudo(args, cfg: dict, pool) -> int:
    hidden = _has_hidden(args.data)
    ds = _load_dataset(args.data, hidden, splits=())
    params = load_checkpoint(args.model)
    specs = _pipeline_specs(cfg)
    os.makedirs(args.out, exist_ok=True)
    written = 0

    def write_each(labelled):
        # each mask is written as it arrives, so the split is never held
        nonlocal written
        for s, pm in labelled:
            synthetic_data.write_pgm(
                pm.labels, os.path.join(args.out, f"img_{written:04d}.pseudo.pgm"))
            written += 1
            yield s, pm

    labelled = self_training.stream_pseudo(
        params, ds, synthetic_data.iter_split(args.data, "train", hidden), specs,
        cfg["strategy"], pool=pool)
    quality = self_training.dataset_pseudo_quality(write_each(labelled))
    print(f"wrote {written} pseudo masks to {args.out}")
    if quality is not None:
        def pct(v):
            return "n/a" if v is None else f"{100.0 * v:.1f}"
        print(f"precision={pct(quality.precision)} recall={pct(quality.recall)} "
              f"coverage={pct(quality.coverage)}")
    return 0


def _cmd_selftrain(args, cfg: dict, pool) -> int:
    if args.resume < 0:  # before run.cfg is written, or a bad resume would replace it
        raise ConfigError(f"--resume must be 0 or a cycle number, got {args.resume}")
    ds = _load_dataset(args.data, _has_hidden(args.data))
    tc = _build(TrainConfig, cfg)
    specs = _pipeline_specs(cfg)
    os.makedirs(args.out, exist_ok=True)
    run_cfg = os.path.join(args.out, "run.cfg")

    start_params, history = None, None
    if args.resume > 0:
        _check_resume_settings(cfg, run_cfg, args.data)
        start_params = load_checkpoint(os.path.join(args.out, f"cycle_{args.resume - 1:03d}.ckpt"))
        path = os.path.join(args.out, self_training.HISTORY_FILE)
        history = [r for r in self_training.read_history_csv(path) if r.cycle < args.resume]
        if [r.cycle for r in history] != list(range(args.resume)):
            raise FormatError(
                f"{path}: --resume {args.resume} needs the rows of cycles 0 to "
                f"{args.resume - 1}, found {', '.join(str(r.cycle) for r in history) or 'none'}")
    else:
        with open(run_cfg, "w", encoding="utf-8") as fh:
            fh.write(_dataset_line(args.data))
            fh.writelines(f"{key}={_format(cfg[key])}\n" for key in SCHEMA)
    params, records = strict_train(
        ds, tc, specs, cfg["strategy"], cfg["gamma"],
        checkpoint_dir=args.out, start_cycle=args.resume, start_params=start_params,
        history=history, timings=cfg["timings"], pool=pool,
    )
    save_checkpoint(os.path.join(args.out, "model.ckpt"), params)
    last = records[-1]
    print(f"S={last.seen_miou:.1f} U={last.unseen_miou:.1f} HM={last.hm:.1f}")
    return 0


def _eval_exclusions(cfg: dict, ds) -> tuple:
    """Scoring-time background override: ``--background ignored`` on a
    seen-background dataset drops that class from the metrics."""
    mode = cfg["background"]
    if mode == "auto" or mode == ds.config.background:
        return ()
    if mode == BACKGROUND_IGNORED and ds.config.background == BACKGROUND_SEEN:
        return (ds.space.background_id,)
    raise ConfigError(
        f"dataset was generated with background={ds.config.background}; "
        f"cannot score it as {mode}"
    )


def _cmd_eval(args, cfg: dict, pool) -> int:
    ds = _load_dataset(args.data, splits=())
    params = load_checkpoint(args.model)
    rep = evaluate_pairs(params, _eval_pairs(args.data), ds.table, ds.space, cfg["gamma"],
                         exclude_ids=_eval_exclusions(cfg, ds), pool=pool)
    if args.report:
        write_report_csv(rep, args.report)
    print(summary_line(rep))
    return 0


# ablation rows: (name, mirror?, scaling regime)
ABLATION_GRID = (
    ("none", False, None),
    ("mirror", True, None),
    ("down", False, "down"),
    ("up", False, "up"),
    ("random", False, "random"),
    ("mirror+down", True, "down"),
    ("mirror+up", True, "up"),
    ("mirror+random", True, "random"),
)


def _cmd_ablate_augs(args, cfg: dict, pool) -> int:
    ds = _load_dataset(args.data, _has_hidden(args.data))
    tc = _build(TrainConfig, cfg)
    rows = []
    for name, mirror, scaling in ABLATION_GRID:
        rng = np.random.default_rng([tc.seed, 3, len(rows)])
        specs = augmentation.regime_specs(mirror, scaling, rng)
        _, records = strict_train(ds, tc, specs, "strict", cfg["gamma"], pool=pool)
        last = records[-1]
        rows.append((name, last.seen_miou, last.unseen_miou, last.hm))
        print(f"{name:<16} S={last.seen_miou:.1f} U={last.unseen_miou:.1f} HM={last.hm:.1f}")
    if args.out:
        tmp = f"{args.out}.tmp"  # replaced atomically, like history.csv
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.write("# gzlss ablation schema v1\n")
            fh.write("regime,seen_miou,unseen_miou,hm\n")
            for name, s, u, hm in rows:
                fh.write(f"{name},{s:.4f},{u:.4f},{hm:.4f}\n")
        os.replace(tmp, args.out)
        print(f"wrote {args.out}")
    return 0


# One pool per command, except these, which start no worker: gen-data runs
# no model, and eval's one forward per image costs less than sending the
# image to a worker, which would use it only once.
_IN_PROCESS = (_cmd_gen_data, _cmd_eval)


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gzlss",
        description="zero-label segmentation self-training laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **paths):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value settings file")
        for arg, (required, help_text) in paths.items():
            if arg == "resume":
                p.add_argument("--resume", type=int, default=0, help=help_text)
            else:
                p.add_argument(f"--{arg}", required=required, default=None, help=help_text)
        p.set_defaults(func=func)
        return p

    add("gen-data", _cmd_gen_data, out=(True, "dataset directory to create"))
    add("train-base", _cmd_train_base,
        data=(True, "dataset directory"), out=(True, "checkpoint file to write"))
    add("pseudo", _cmd_pseudo,
        data=(True, "dataset directory"), model=(True, "generator checkpoint"),
        out=(True, "directory for pseudo masks"))
    add("selftrain", _cmd_selftrain,
        data=(True, "dataset directory"), out=(True, "run directory"),
        resume=(False, "first cycle to (re)run; needs prior checkpoints"))
    add("eval", _cmd_eval,
        data=(True, "dataset directory"), model=(True, "checkpoint to score"),
        report=(False, "optional per-class report CSV"))
    add("ablate-augs", _cmd_ablate_augs,
        data=(True, "dataset directory"), out=(False, "optional results CSV"))
    return parser


def _one_blas_thread() -> None:
    """Run this process's GEMMs on one OpenBLAS thread, as the workers do:
    on these small matrices a second thread only spins.  NumPy's bundled
    OpenBLAS exports the setter; without that library this does nothing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable here, or another build
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def main(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    _one_blas_thread()
    try:
        cfg = load_config(args.config, extras)
        workers = 1 if args.func in _IN_PROCESS else min(parallel.usable_cpus(),
                                                             cfg["batch_size"])
        with parallel.Pool(workers) as pool:
            return args.func(args, cfg, pool)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The gzlss benchmark.

    python3 perfbench/run.py --workload strict-std --seed 0 --seconds 20 --trace 0

Run it from the root of a gzlss checkout.  One closed-loop client runs one
gzlss command at a time, each in a fresh subprocess through the public
entry point ``gzlss.cli.main`` (see child.py).  The workload seed becomes
both ``data_seed`` and ``seed``; the program only sees the generated inputs.

``--trace 0`` sets the workload up afresh before each timed operation and
repeats until ``--seconds`` of operations have been timed, then reports the
end-to-end metrics.  ``--trace 1`` sets up once with spans recorded, then
alternates untraced and traced operations for ``--seconds`` and reports the
per-layer metrics of the traced operation with the median wall time.  Every operation
is checked for correct outputs.  The last line of stdout is the result
JSON; the line before it is the full record (machine, samples, digests,
counts, timings), also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import spans as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join("configs", "standard.cfg")
CLI = os.path.join("src", "gzlss", "cli.py")
SPEC = "BENCHMARK.json"  # metric names and units are declared there only
STATE = ".perfbench"  # results and working files, inside the checkout
REFERENCE = os.path.join(HERE, "reference.json")  # outputs per workload and seed
QUALITY = ("hm_final", "unseen_miou_final", "pl_precision")
# set-ups per timed operation: a std set-up takes ~0.5 s, a fresh one ~5 s
SETUP_PER_OP = {"std": 6, "fresh": 1}
FRESH_IMAGES = 1000
STRICT_SPECS = "identity,mirror,scale=3/2"

# name -> (kind, selftrain strategy, selftrain specs); why each exists is in
# README.md and BENCHMARK.json
WORKLOADS = {
    "strict-std": ("std", "strict", STRICT_SPECS),
    "raw-std": ("std", "raw_st", "identity"),
    "score-fresh": ("fresh", "strict", STRICT_SPECS),
}


class CheckFailed(Exception):
    """An operation ran but its outputs are wrong or unreadable."""


# ---------------------------------------------------------------------------
# running one gzlss command


def run_child(argv: list[str], log_dir: str, tag: str, spans_path: str | None = None) -> dict:
    """Run ``gzlss <argv>`` in a fresh process; wall, CPU and peak RSS are its own."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path = os.path.join(log_dir, f"{tag}.out")
    with open(out_path, "wb") as out, open(os.path.join(log_dir, f"{tag}.err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd + ["--"] + argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return {
        "argv": argv, "rc": proc.returncode, "start": start, "end": end,
        "wall": end - start, "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout,
    }


def run_steps(commands, log_dir: str, tag: str, trace: bool) -> dict:
    """Run commands in order as one operation: walls and CPU add, RSS is the max."""
    steps = []
    for j, argv in enumerate(commands):
        spans_path = os.path.join(log_dir, f"{tag}-{j}.spans.json") if trace else None
        step = run_child(argv, log_dir, f"{tag}-{j}", spans_path)
        step["spans_path"] = spans_path
        steps.append(step)
        if step["rc"] != 0:
            err = os.path.join(log_dir, f"{tag}-{j}.err")
            with open(err, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise CheckFailed(f"gzlss {argv[0]} exited {step['rc']}: {tail.strip()}")
    return {
        "steps": steps, "start": steps[0]["start"], "end": steps[-1]["end"],
        "wall": steps[-1]["end"] - steps[0]["start"],
        "cpu": sum(s["cpu"] for s in steps), "rss_mb": max(s["rss_mb"] for s in steps),
    }


# ---------------------------------------------------------------------------
# workloads


def read_config(path: str) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and "=" in line:
                key, value = (p.strip() for p in line.split("=", 1))
                cfg[key] = value
    return cfg


def setup_commands(workload: str, seed: int, d: str) -> list[list[str]]:
    common = ["--config", CONFIG, "--data_seed", str(seed), "--seed", str(seed)]
    data = os.path.join(d, "data")
    if WORKLOADS[workload][0] == "std":
        return [["gen-data", "--out", data] + common]
    sizes = ["--train_images", str(FRESH_IMAGES), "--eval_images", str(FRESH_IMAGES)]
    return [
        ["gen-data", "--out", data] + common + sizes,
        ["train-base", "--data", data, "--out", os.path.join(d, "base.ckpt")] + common,
    ]


def op_commands(workload: str, seed: int, d: str, out: str) -> list[list[str]]:
    kind, strategy, specs = WORKLOADS[workload]
    common = ["--config", CONFIG, "--data_seed", str(seed), "--seed", str(seed),
              "--strategy", strategy, "--specs", specs]
    data = os.path.join(d, "data")
    if kind == "std":
        return [["selftrain", "--data", data, "--out", out] + common]
    model = os.path.join(d, "base.ckpt")
    return [
        ["eval", "--data", data, "--model", model, "--report",
         os.path.join(out, "report.csv")] + common,
        ["pseudo", "--data", data, "--model", model,
         "--out", os.path.join(out, "masks")] + common,
    ]


def _rate(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise CheckFailed(f"{what}: not a number: {text!r}") from exc
    if not (math.isfinite(value) and 0.0 <= value <= 100.0):
        raise CheckFailed(f"{what}: {value} is outside [0, 100]")
    return value


def check_std(out: str, op: dict, cfg: dict) -> tuple[str, dict]:
    """history.csv parses, has one row per cycle, every rate in [0, 100]."""
    path = os.path.join(out, "history.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("ascii").splitlines()
    if lines[:2] != ["# gzlss history schema v1",
                     "cycle,seen_miou,unseen_miou,hm,pl_precision,pl_recall,pl_coverage,seconds"]:
        raise CheckFailed(f"{path}: unexpected schema or columns")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    if [r[0] for r in rows] != [str(c) for c in range(int(cfg["cycles"]) + 1)]:
        raise CheckFailed(f"{path}: cycles {[r[0] for r in rows]}")
    for r in rows:
        if len(r) != 8 or r[7] != "0.000":
            raise CheckFailed(f"{path}: bad row {r}")
        for i, text in enumerate(r[1:7], 1):
            if r[0] == "0" and i >= 4:
                if text:
                    raise CheckFailed(f"{path}: base row has pseudo-label rates")
                continue
            _rate(text, f"{path} cycle {r[0]} column {i}")
    last = rows[-1]
    want = f"S={float(last[1]):.1f} U={float(last[2]):.1f} HM={float(last[3]):.1f}"
    if op["steps"][0]["stdout"].strip().splitlines()[-1] != want:
        raise CheckFailed(f"selftrain printed {op['steps'][0]['stdout']!r}, history says {want}")
    if not os.path.isfile(os.path.join(out, "model.ckpt")):
        raise CheckFailed("selftrain wrote no model.ckpt")
    quality = {"hm_final": float(last[3]), "unseen_miou_final": float(last[2]),
               "pl_precision": float(rows[1][4])}
    return hashlib.sha256(raw).hexdigest(), quality


_PGM = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def read_pgm(path: str):
    """The checker's own reader: outputs are not judged by the program's code."""
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    head = _PGM.match(data)
    if head is None:
        raise CheckFailed(f"{path}: not an 8-bit binary PGM")
    m, n = int(head.group(1)), int(head.group(2))
    raster = data[head.end():]
    if len(raster) != n * m:
        raise CheckFailed(f"{path}: raster has {len(raster)} bytes, want {n * m}")
    return data, np.frombuffer(raster, dtype=np.uint8).reshape(n, m)


def check_fresh(out: str, op: dict, cfg: dict, data: str) -> tuple[str, dict]:
    """The eval report parses; every pseudo mask is 0 on labelled pixels."""
    import numpy as np

    digest = hashlib.sha256()
    path = os.path.join(out, "report.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    digest.update(raw)
    lines = raw.decode("utf-8").splitlines()
    summary = re.fullmatch(r"# S=(\S+) U=(\S+) HM=(\S+)", lines[1] if len(lines) > 1 else "")
    if lines[0] != "# gzlss report schema v1" or summary is None:
        raise CheckFailed(f"{path}: unexpected header")
    _, unseen, hm = (_rate(v, f"{path} summary") for v in summary.groups())
    rows = list(csv.reader(lines[2:]))
    n_classes = int(cfg["num_seen"]) + int(cfg["num_unseen"])
    if rows[0] != ["class", "iou", "gt_pixels", "pred_pixels"] or len(rows) != n_classes + 2:
        raise CheckFailed(f"{path}: unexpected rows")
    for r in rows[1:-1]:
        if r[1]:
            _rate(r[1], f"{path} class {r[0]} iou")
    pixels = FRESH_IMAGES * int(cfg["height"]) * int(cfg["width"])
    if rows[-1] != ["summary", f"{hm:.1f}", str(pixels), str(pixels)]:
        raise CheckFailed(f"{path}: bad summary row {rows[-1]}")
    if op["steps"][0]["stdout"].strip().splitlines()[-1] != lines[1][2:]:
        raise CheckFailed("eval printed a different summary than its report")

    unseen_ids = set(range(int(cfg["num_seen"]) + 1, n_classes + 1))
    scored = correct = 0
    for i in range(FRESH_IMAGES):
        raw_mask, pseudo = read_pgm(os.path.join(out, "masks", f"img_{i:04d}.pseudo.pgm"))
        digest.update(raw_mask)
        _, labelled = read_pgm(os.path.join(data, "train", f"img_{i:04d}.mask.pgm"))
        _, gt = read_pgm(os.path.join(data, "train", f"img_{i:04d}.gt.pgm"))
        if np.any(pseudo[labelled > 0]):
            raise CheckFailed(f"pseudo mask {i} labels a pixel that has a real label")
        if not set(np.unique(pseudo).tolist()) <= unseen_ids | {0}:
            raise CheckFailed(f"pseudo mask {i} holds a non-unseen id")
        on = (pseudo > 0) & (gt > 0)
        scored += int(on.sum())
        correct += int((on & (pseudo == gt)).sum())
    if scored == 0:
        raise CheckFailed("no scored pseudo-labels")
    precision = 100.0 * correct / scored
    printed = re.search(r"precision=(\S+)", op["steps"][1]["stdout"])
    if printed is None or printed.group(1) != f"{precision:.1f}":
        raise CheckFailed(f"pseudo printed {printed and printed.group(1)}, masks give {precision:.4f}")
    quality = {"hm_final": hm, "unseen_miou_final": unseen, "pl_precision": precision}
    return digest.hexdigest(), quality


def check(workload: str, d: str, out: str, op: dict, cfg: dict) -> tuple[str, dict]:
    try:
        if WORKLOADS[workload][0] == "std":
            return check_std(out, op, cfg)
        return check_fresh(out, op, cfg, os.path.join(d, "data"))
    except (OSError, UnicodeDecodeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc


def tree_digest(paths: list[str]) -> str:
    """sha256 over the relative names and bytes of every file below ``paths``."""
    h = hashlib.sha256()
    for top in paths:
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(r, f) for r, _, fs in os.walk(top) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, os.path.dirname(top)).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# records


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def platform_key(m: dict) -> str:
    """What, besides the source, can change float results: CPU, NumPy, BLAS."""
    blas = m["blas"]
    return f"{m['cpu']} / numpy {m['numpy']} / {blas.get('name')} {blas.get('version')}"


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k)
                for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # NumPy < 1.25 has no dict mode
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        # recorded, never set: a change to BLAS threading must show in cpu_s
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    if n >= 11:
        high = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"n": n, "median": statistics.median(ordered), "high": high, "samples": values}


def compare_reference(workload: str, seed: int, digest: str, quality: dict,
                      platform_now: str) -> dict:
    """Outputs and quality against those committed in reference.json.

    For the source tree and platform the reference was made from, the digest
    must match: one program, workload and seed give one output.  Otherwise
    a differing digest is not a failure (a change may alter outputs on
    purpose); it shows as ``outputs_changed`` and ``quality_drop_pts``.
    """
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    want = ref["outputs"].get(workload, {}).get(str(seed))
    if want is None:
        return {"reference": None}
    return {
        "reference": want, "reference_source": ref["source"],
        "same_build": (ref["source"], ref["platform"]) == (source_digest(), platform_now),
        "outputs_changed": int(digest != want["digest"]),
        # largest fall, in percentage points, of any quality figure
        "quality_drop_pts": max(0.0, max(want[k] - quality[k] for k in QUALITY)),
    }


def source_digest() -> str:
    """Names the program's source and config, the inputs an output digest depends on."""
    src = os.path.join("src", "gzlss")
    files = sorted(os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py"))
    return tree_digest(files + [CONFIG])[:16]


def merge_spans(op: dict, run_id: str) -> list[dict]:
    """The root span the parent measured, with each child's spans beneath it."""
    out = [{"run": run_id, "name": "run", "start": op["start"], "end": op["end"],
            "parent": -1, "counts": None}]
    for step in op["steps"]:
        with open(step["spans_path"], encoding="utf-8") as fh:
            recorded = json.load(fh)
        base = len(out)
        for name, start, end, parent, counts in recorded["spans"]:
            out.append({"run": run_id, "name": name, "start": start, "end": end,
                        "parent": 0 if parent < 0 else base + parent, "counts": counts})
        op.setdefault("absent", set()).update(recorded["absent"])
        op.setdefault("counter_errors", {}).update(recorded["counter_errors"])
    return out


def concat_spans(*groups: list[dict]) -> list[dict]:
    out = []
    for group in groups:
        base = len(out)
        out.extend(dict(s, parent=-1 if s["parent"] < 0 else s["parent"] + base) for s in group)
    return out


# ---------------------------------------------------------------------------


def bench(args, work: str, record: dict) -> tuple[bool, int, int, dict]:
    cfg = read_config(CONFIG)
    failures: list[str] = record.setdefault("failures", [])
    attempted = failed = 0
    trace = bool(args.trace)

    # Untraced runs set up afresh before every operation, SETUP_PER_OP times,
    # so the setup_s samples spread over the whole run like the operations';
    # each operation reads the dataset set up just before it.  A traced run
    # sets up once, with spans.
    per_op = SETUP_PER_OP[WORKLOADS[args.workload][0]]
    setup_walls, setup_digests, setup_traced = [], set(), None
    samples = {"wall": [], "cpu": [], "rss_mb": []}
    traced_ops, digests, quality = [], set(), None
    measured, i = 0.0, 0  # seconds of operations timed, operations run
    while True:
        for _ in range((1 if i == 0 else 0) if trace else per_op):
            if setup_walls:
                # only the newest data set is read; removing the older one
                # before it reaches the disk keeps writeback out of the timings
                shutil.rmtree(setup_dir, ignore_errors=True)
            setup_dir = os.path.join(work, f"setup{len(setup_walls)}")
            os.makedirs(setup_dir)
            attempted += 1
            try:
                setup = run_steps(setup_commands(args.workload, args.seed, setup_dir),
                                  work, os.path.basename(setup_dir), trace)
            except CheckFailed as exc:
                failures.append(f"set-up {len(setup_walls)}: {exc}")
                return False, attempted, failed + 1, {}
            setup_walls.append(setup["wall"])
            setup_digests.add(tree_digest([os.path.join(setup_dir, n)
                                           for n in sorted(os.listdir(setup_dir))]))
            setup_traced = setup if trace else None

        traced_op = trace and i % 2 == 1
        out = os.path.join(work, f"op{i}")
        os.makedirs(out)
        attempted += 1
        try:
            op = run_steps(op_commands(args.workload, args.seed, setup_dir, out),
                           work, f"op{i}", traced_op)
            digest, q = check(args.workload, setup_dir, out, op, cfg)
        except CheckFailed as exc:
            failed += 1
            failures.append(f"op {i}: {exc}")
            break
        shutil.rmtree(out, ignore_errors=True)
        digests.add(digest)
        if quality is not None and q != quality:
            failures.append(f"op {i}: quality {q} differs from {quality}")
        quality = q
        measured += op["wall"]
        if traced_op:
            traced_ops.append(op)
        else:
            samples["wall"].append(op["wall"])
            samples["cpu"].append(op["cpu"])
            samples["rss_mb"].append(op["rss_mb"])
        i += 1
        if trace and i % 2 == 1:
            continue  # every untraced operation gets its traced twin
        if measured >= args.seconds:
            break
    record["setup_digest"] = sorted(setup_digests)
    if len(setup_digests) != 1:
        failures.append("set-up produced different datasets from one seed")
    record["digest"] = sorted(digests)
    record["quality"] = quality
    if len(digests) > 1:
        failures.append("operations on one seed gave different outputs"
                        + (" with tracing on and off" if trace else ""))
    vs_reference = {}
    if len(digests) == 1:
        record["vs_reference"] = compare_reference(args.workload, args.seed,
                                                   next(iter(digests)), quality,
                                                   platform_key(record["machine"]))
        vs_reference = {k: v for k, v in record["vs_reference"].items()
                        if k in ("outputs_changed", "quality_drop_pts")}
        if record["vs_reference"].get("outputs_changed"):
            if record["vs_reference"]["same_build"]:
                failures.append(f"outputs differ from {REFERENCE}, made from this source "
                                "tree on this platform")
            else:
                print(f"note: outputs differ from {REFERENCE} for this workload and seed",
                      file=sys.stderr)
    if not samples["wall"] or (trace and not traced_ops):
        return False, attempted, failed, {}

    record["summary"] = {
        "wall_s": summary(samples["wall"]), "cpu_s": summary(samples["cpu"]),
        "peak_rss_mb": summary(samples["rss_mb"]), "setup_s": summary(setup_walls),
    }
    if not trace:
        metrics = {name: stats["median"] for name, stats in record["summary"].items()}
        return not failures, attempted, failed, metrics

    run_id = f"{args.workload}/seed{args.seed}"
    metrics = layer_metrics(run_id, setup_traced, traced_ops, samples["wall"], record)
    return not failures, attempted, failed, {**metrics, **quality, **vs_reference}


def layer_metrics(run_id: str, setup: dict, traced_ops: list[dict],
                  untraced_walls: list[float], record: dict) -> dict:
    """Per-layer timings and counts from the traced set-up plus the traced
    operation with the median wall time; all spans are written out."""
    setup_spans = merge_spans(setup, f"{run_id}/setup")
    for n, op in enumerate(traced_ops):
        op["spans"] = merge_spans(op, f"{run_id}/op{n}")
    chosen = sorted(traced_ops, key=lambda op: op["wall"])[(len(traced_ops) - 1) // 2]
    absent = sorted(setup.get("absent", set()) | chosen.get("absent", set()))
    timings, counts = tracing.analyse(concat_spans(setup_spans, chosen["spans"]), absent)

    traced_wall = setup["wall"] + chosen["wall"]
    accounted = sum(v for k, v in timings.items() if k.count(".") == 1 and k.endswith(".self_s"))
    record["span_accounting"] = {"roots_and_layers_self_s": accounted,
                                 "traced_wall_s": traced_wall}
    if abs(accounted - traced_wall) > 1e-6 * traced_wall:
        record["failures"].append(f"spans account for {accounted} s of {traced_wall} s traced")
    op_timings, _ = tracing.analyse(chosen["spans"], absent)
    record["op_share"] = {k[:-len(".busy_s")]: v / chosen["wall"]
                          for k, v in op_timings.items() if k.endswith(".busy_s") and v > 0}

    timings["trace.wall_s"] = traced_wall
    # the part no wrapped call covers: interpreter start-up, imports, exit,
    # the gaps between processes, and any work outside the wrapped functions
    timings["trace.unattributed_share"] = timings["run.self_s"] / traced_wall
    timings["trace.op_wall_s"] = chosen["wall"]
    timings["trace.overhead_s"] = (statistics.median(op["wall"] for op in traced_ops)
                                   - statistics.median(untraced_walls))
    record["timings"], record["counts"], record["absent"] = timings, counts, absent
    record["counter_errors"] = {**setup.get("counter_errors", {}),
                                **chosen.get("counter_errors", {})}
    # parent is an index among the spans of the same run id
    with open(os.path.join(STATE, "results", f"{run_id.replace('/', '-')}.spans.jsonl"),
              "w", encoding="utf-8") as fh:
        for span in setup_spans + [s for op in traced_ops for s in op["spans"]]:
            fh.write(json.dumps(span) + "\n")
    return {**timings, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (CLI, CONFIG, SPEC):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the root of a gzlss checkout",
                  file=sys.stderr)
            return 2

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "source": source_digest(),
              "loadavg_at_start": os.getloadavg(),
              "machine": machine()}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        correct, attempted, failed, values = bench(args, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(SPEC, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    record["missing_metrics"] = [m["name"] for m in declared if m["name"] not in values]
    if values and record["missing_metrics"]:
        print(f"metrics no longer produced (reported as 0): {record['missing_metrics']}",
              file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    record.update(correct=correct, attempted=attempted, failed=failed)
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in record.get("failures", []):
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

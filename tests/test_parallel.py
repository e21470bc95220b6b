"""The worker pool and its training chain: same bytes as in-process, errors
raised, workers reaped."""

import multiprocessing
import operator
import os
import signal
import threading
import time
from functools import partial

import numpy as np
import pytest

from gzlss import augmentation as aug
from gzlss import cli, parallel
from gzlss import self_training as st
from gzlss import synthetic_data as sd
from gzlss.errors import FormatError, NumericError
from gzlss.model import (TrainConfig, backward, infer_gzs, init_backbone, init_optimizer,
                         sgd_step)
from gzlss.pseudo_labeler import generate

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SMOKE = os.path.join(CONFIGS, "smoke.cfg")
JOIN = 10.0


def _slow_echo(x, seconds):
    time.sleep(seconds)
    return x


def _fail_at(x, bad):
    if x == bad:
        raise NumericError(f"item {x}")
    return x


def _assert_reaped(processes):
    for p in processes:
        p.join(JOIN)
        assert not p.is_alive()
    assert _child_pids() == set()  # no worker, nor the resource tracker


def _child_pids():
    pids = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids.update(fh.read().split())
    return pids


@pytest.fixture(scope="module")
def tiny():
    cfg = sd.GeneratorConfig(height=16, width=16, channels=6, embed_dim=4,
                             num_seen=3, num_unseen=2, noise=0.3,
                             train_images=9, eval_images=5, min_class_images=2,
                             background="seen", seed=4)
    return sd.generate(cfg)


@pytest.fixture
def pool():
    with parallel.Pool(2) as p:
        yield p


def test_pool_results_equal_in_process_bitwise(tiny, pool):
    """Per-image gradients, pseudo masks and predictions, with the cache
    both cold and warm, and after a new object replaces a cached key."""
    rng = np.random.default_rng(0)
    params = init_backbone(6, 4, (5,), 3, rng)
    specs = aug.parse_spec_list("identity,mirror,scale=3/2")
    pseudo = [generate("strict", params, s.image, s.train_mask, specs, tiny.table, tiny.space)
              for s in tiny.train]
    grads = partial(backward, params=params, table=tiny.table, space=tiny.space, lam=2.0)
    label = partial(generate, "strict", params, specs=specs, table=tiny.table,
                    space=tiny.space)
    infer = partial(infer_gzs, params=params, table=tiny.table, space=tiny.space, gamma=0.5)

    def train_items(labels):
        return [{"image": parallel.Cached(("image", i), s.image),
                 "y": parallel.Cached(("mask", i), s.train_mask),
                 "ybar": parallel.Cached(("pseudo", i), labels[i])}
                for i, s in enumerate(tiny.train)]

    zeros = [np.zeros_like(pm.labels) for pm in pseudo]
    for labels in ([pm.labels for pm in pseudo], [pm.labels for pm in pseudo], zeros):
        items = train_items(labels)
        got = list(pool.map(grads, items))
        want = list(parallel.map_items(None, grads, items))
        assert len(got) == len(tiny.train)
        for g, w in zip(got, want):
            for a, b in zip(g.grad_weights + g.grad_biases, w.grad_weights + w.grad_biases):
                assert a.tobytes() == b.tobytes()
            assert (g.loss, g.seen_pixels, g.unseen_pixels) == (w.loss, w.seen_pixels,
                                                                w.unseen_pixels)

    items = [{"image": parallel.Cached(("image", i), s.image),
              "y": parallel.Cached(("mask", i), s.train_mask)} for i, s in enumerate(tiny.train)]
    for g, w in zip(pool.map(label, items), pseudo):
        assert g.labels.tobytes() == w.labels.tobytes()

    items = [{"image": parallel.Cached(("eval", i), s.image)} for i, s in enumerate(tiny.eval)]
    for g, s in zip(pool.map(infer, items), tiny.eval):
        assert g.tobytes() == infer_gzs(s.image, params, tiny.table, tiny.space, 0.5).tobytes()


def test_worker_exception_raised_in_item_order(pool):
    items = [{"x": i, "bad": 5} for i in range(12)]
    with pytest.raises(NumericError, match="item 5"):
        list(pool.map(_fail_at, items))
    # the pool stays usable and in step
    assert list(pool.map(_fail_at, [{"x": i, "bad": -1} for i in range(9)])) == list(range(9))


def test_early_exit_discards_replies_in_flight(pool):
    results = pool.map(_slow_echo, [{"x": i, "seconds": 0.01} for i in range(20)])
    assert next(results) == 0
    results.close()
    assert list(pool.map(_slow_echo, [{"x": i, "seconds": 0} for i in range(5)])) == list(range(5))


def test_environment_restored_and_one_cpu_starts_nothing(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with parallel.Pool(2) as p:
        assert os.environ == before
        assert len(p.processes) == 2
        procs = p.processes
    _assert_reaped(procs)
    with parallel.Pool(1) as p:
        assert p.processes == []
        assert list(p.map(_fail_at, [{"x": 3, "bad": 0}])) == [3]


def test_killed_worker_raises_instead_of_hanging():
    outcome = {}

    def run(p):
        try:
            list(p.map(_slow_echo, [{"x": i, "seconds": 0.5} for i in range(16)]))
        except parallel.WorkerError as exc:
            outcome["error"] = exc

    p = parallel.Pool(2)
    procs = p.processes
    try:
        mapper = threading.Thread(target=run, args=(p,))
        mapper.start()
        time.sleep(0.8)  # both workers are busy by now
        os.kill(procs[0].pid, signal.SIGKILL)
        mapper.join(JOIN)
        assert not mapper.is_alive()
    finally:
        p.close()
    assert "exited with code -9" in str(outcome["error"])
    _assert_reaped(procs)


def _recording_pools(monkeypatch, cpus):
    """Patch the CPU count and keep the processes of every pool started."""
    started = []

    class Recording(parallel.Pool):
        def __init__(self, processes):
            super().__init__(processes)
            started.extend(self.processes)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(parallel, "Pool", Recording)
    return started


def test_numeric_error_in_worker_exits_3(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "data")
    assert cli.main(["gen-data", "--config", SMOKE, "--out", data]) == 0
    started = _recording_pools(monkeypatch, 2)
    assert cli.main(["selftrain", "--config", SMOKE, "--data", data,
                     "--out", str(tmp_path / "run"), "--base_lr", "1e308"]) == 3
    assert "numeric error" in capsys.readouterr().err
    assert len(started) == 2
    _assert_reaped(started)


def test_history_bytes_do_not_depend_on_cpu_count(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "data")
    assert cli.main(["gen-data", "--config", SMOKE, "--out", data]) == 0
    history = {}
    for cpus in (1, 2, 3):  # 3 workers split batch 4 as 2, 1, 1
        started = _recording_pools(monkeypatch, cpus)
        run = tmp_path / f"run{cpus}"
        assert cli.main(["selftrain", "--config", SMOKE, "--data", data,
                         "--out", str(run)]) == 0
        assert len(started) == (0 if cpus == 1 else cpus)
        _assert_reaped(started)
        history[cpus] = (run / "history.csv").read_bytes()
        monkeypatch.undo()
    assert history[1] == history[2] == history[3]
    capsys.readouterr()


def _counting(n, drawn, fail_at=None):
    """Items ``{"x": i}``, counting each one drawn; raises at ``fail_at``."""
    for i in range(n):
        if i == fail_at:
            raise FormatError(f"item {i}")
        drawn.append(i)
        yield {"x": i, "seconds": 0}


def test_map_draws_a_generator_lazily(pool):
    """On the pool at most one chunk per worker is in flight, plus the chunk
    being handed out; in-process each item is drawn when its turn comes."""
    limit = (len(pool.processes) + 1) * parallel.MAX_CHUNK
    drawn = []
    for consumed, x in enumerate(pool.map(_slow_echo, _counting(40, drawn)), 1):
        assert x == consumed - 1
        assert len(drawn) - consumed < limit
    assert len(drawn) == 40

    drawn = []
    for consumed, x in enumerate(parallel.map_items(None, _slow_echo, _counting(9, drawn)), 1):
        assert len(drawn) == consumed
    with parallel.Pool(1) as here:
        drawn = []
        for consumed, x in enumerate(here.map(_slow_echo, _counting(9, drawn)), 1):
            assert len(drawn) == consumed


@pytest.mark.parametrize("fail_at", [0, 3, 4, 9])
def test_generator_error_raised_in_item_order(fail_at):
    """An error drawing item k is raised after the results of items 0..k-1
    and before any later item is drawn; the pool stays usable, and every
    worker is reaped when it closes."""
    with parallel.Pool(2) as p:
        procs = p.processes
        drawn, got = [], []
        with pytest.raises(FormatError, match=f"item {fail_at}"):
            for x in p.map(_slow_echo, _counting(20, drawn, fail_at)):
                got.append(x)
        assert got == drawn == list(range(fail_at))
        assert list(p.map(_slow_echo, _counting(6, []))) == list(range(6))
    _assert_reaped(procs)
    got = []
    with pytest.raises(FormatError, match=f"item {fail_at}"):
        for x in parallel.map_items(None, _slow_echo, _counting(20, [], fail_at)):
            got.append(x)
    assert got == list(range(fail_at))


def test_map_tagged_pairs_tags_with_results(pool):
    pairs = ((f"tag{i}", {"x": i, "seconds": 0}) for i in range(11))
    assert list(parallel.map_tagged(pool, _slow_echo, pairs)) == [
        (f"tag{i}", i) for i in range(11)]


def _reference_train(params, samples, pseudo, table, space, cfg, iters, rng):
    """The training loop as one process would write it: each batch's
    per-image gradients summed in batch order, then one SGD step."""
    params = params.copy()
    state = init_optimizer(params, iters, cfg)
    layers = len(params.weights)
    for batch in st._batch_indices(len(samples), cfg.batch_size, iters, rng):
        sums = [np.zeros_like(p) for p in params.weights + params.biases]
        pixels = 0
        for i in batch:
            res = backward(samples[i].image, params, table, space, samples[i].train_mask,
                           pseudo[i].labels, cfg.lam)
            for a, g in zip(sums, res.grad_weights + res.grad_biases):
                a += g
            pixels += res.contributing_pixels
        if pixels == 0:
            state.iteration += 1
            continue
        steps = [g / pixels for g in sums]
        sgd_step(params, steps[:layers], steps[layers:], state)
    return params


def test_train_loop_bitwise_equal_on_every_chain(tiny):
    """In-process and on chains of 2 and 3 ranks, with batches that split
    unevenly (5 as 3+2 and 2+2+1, 8 as 3+3+2, 9 as 5+4), the weights equal
    the one-process loop's byte for byte."""
    params = init_backbone(6, 4, (5,), 3, np.random.default_rng(0))
    specs = aug.parse_spec_list("identity,mirror,scale=3/2")
    pseudo = [generate("strict", params, s.image, s.train_mask, specs, tiny.table, tiny.space)
              for s in tiny.train]
    with parallel.Pool(2) as two, parallel.Pool(3) as three:
        for batch_size in (5, 8, 9):
            cfg = TrainConfig(lam=2.0, batch_size=batch_size, base_lr=0.3, hidden=(5,), window=3)
            want = _reference_train(params, tiny.train, pseudo, tiny.table, tiny.space, cfg, 7,
                                    np.random.default_rng(batch_size))
            for pool in (None, two, three):
                got = st._train_loop(params, tiny.train, pseudo, tiny.table, tiny.space, cfg, 7,
                                     np.random.default_rng(batch_size), pool)
                for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                    assert a.tobytes() == b.tobytes(), (batch_size, pool and pool.size)


def test_numeric_error_on_rank_1_exits_3_and_releases_rank_0(tmp_path, capsys, monkeypatch):
    """A NaN in the image that rank 1 of 2 meets first, at the second step
    of train-base: rank 1 raises, the error goes along the chain, and both
    workers exit on their own rather than being terminated."""
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", SMOKE, "--out", str(data)]) == 0
    tc = cli._build(TrainConfig, cli.load_config(SMOKE, []))
    ds = sd.load_dataset(str(data), splits=("train",))
    rng = np.random.default_rng([tc.seed, st.TAG_BASE])
    init_backbone(ds.train[0].image.shape[0], ds.table.dim, tc.hidden, tc.window, rng)
    batches = list(st._batch_indices(len(ds.train), tc.batch_size, 2, rng))
    bad = int(batches[1][st._share(tc.batch_size, 1, 2)][0])
    assert bad not in batches[0]
    image = ds.train[bad].image.copy()
    image[0, 0, 0] = np.nan
    sd.write_feat(image, str(data / "train" / f"img_{bad:04d}.feat"))

    started = _recording_pools(monkeypatch, 2)
    assert cli.main(["train-base", "--config", SMOKE, "--data", str(data),
                     "--out", str(tmp_path / "base.ckpt")]) == 3
    assert "numeric error: non-finite gradient" in capsys.readouterr().err
    assert len(started) == 2
    _assert_reaped(started)
    assert [p.exitcode for p in started] == [0, 0]


@pytest.mark.parametrize("lost", [0, 1, 2])
def test_fold_releases_the_live_ranks_of_a_lost_one(lost):
    """The ranks of a chain of 3 as threads, with the pipes of one rank
    closed as if it had died: every live rank's fold raises WorkerError
    rather than waiting for a sum that never comes."""
    pipes = [multiprocessing.Pipe() for _ in range(2)]
    links = [parallel.Link(r, 3, pipes[r - 1][1] if r else None, pipes[r][0] if r < 2 else None)
             for r in range(3)]
    for conn in (links[lost].prev, links[lost].next):
        if conn is not None:
            conn.close()
    errors = {}

    def run(r):
        try:
            links[r].fold(lambda: r, operator.add, 0)
        except parallel.WorkerError as exc:
            errors[r] = str(exc)

    live = [threading.Thread(target=run, args=(r,), daemon=True) for r in range(3) if r != lost]
    for t in live:
        t.start()
    for t in live:
        t.join(JOIN)
    assert not any(t.is_alive() for t in live)
    assert sorted(errors) == [r for r in range(3) if r != lost]
    assert all("lost a neighbour" in e for e in errors.values())


@pytest.mark.parametrize("victim", [0, 1, 2])
def test_killed_rank_raises_worker_error(tiny, victim):
    """A rank of 3 SIGKILLed mid-loop, at either end or in the middle:
    WorkerError, no hang, and the other ranks exit on their own."""
    params = init_backbone(6, 4, (5,), 3, np.random.default_rng(0))
    cfg = TrainConfig(batch_size=4, hidden=(5,), window=3)
    outcome = {}

    def run(p):
        try:
            st._train_loop(params, tiny.train, None, tiny.table, tiny.space, cfg, 20000,
                           np.random.default_rng(0), p)
        except parallel.WorkerError as exc:
            outcome["error"] = exc

    p = parallel.Pool(3)
    procs = p.processes
    try:
        trainer = threading.Thread(target=run, args=(p,))
        trainer.start()
        time.sleep(1.5)  # every rank is in the loop by now
        os.kill(procs[victim].pid, signal.SIGKILL)
        trainer.join(JOIN)
        assert not trainer.is_alive()
    finally:
        p.close()
    assert "exited with code -9" in str(outcome["error"])
    _assert_reaped(procs)
    assert [q.exitcode for q in procs] == [-9 if r == victim else 0 for r in range(3)]


def test_workers_hold_only_images_masks_pseudo_and_eval(tiny):
    """After a run, each worker was sent, to keep, the images, masks,
    pseudo masks and eval images, and nothing of the training tasks."""
    cfg = TrainConfig(base_iters=4, cycle_iters=4, cycles=1, batch_size=4, hidden=(5,),
                      window=3)
    with parallel.Pool(2) as p:
        st.strict_train(tiny, cfg, aug.parse_spec_list("identity,mirror"), pool=p)
        assert [sorted({key[0] for key in w.sent}) for w in p._workers] == [
            ["eval", "image", "mask", "pseudo"]] * 2

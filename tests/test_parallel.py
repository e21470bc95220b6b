"""The worker pool: same bytes as in-process, errors raised, workers reaped."""

import os
import signal
import threading
import time
from functools import partial

import numpy as np
import pytest

from gzlss import augmentation as aug
from gzlss import cli, parallel
from gzlss import synthetic_data as sd
from gzlss.errors import FormatError, NumericError
from gzlss.model import backward, infer_gzs, init_backbone
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


def test_chunks_cover_items_in_order():
    for n in range(0, 30):
        for workers in (2, 3, 5):
            chunks = parallel._chunks(list(range(n)), workers)
            assert [x for c in chunks for x in c] == list(range(n))
            sizes = [len(c) for c in chunks]
            assert all(1 <= s <= parallel.MAX_CHUNK for s in sizes)
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
            assert len(chunks) >= min(workers, n)
    assert [len(c) for c in parallel._chunks(list(range(4)), 3)] == [2, 1, 1]


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
    for cpus in (1, 3):  # 3 workers split batch 4 as 2, 1, 1
        started = _recording_pools(monkeypatch, cpus)
        run = tmp_path / f"run{cpus}"
        assert cli.main(["selftrain", "--config", SMOKE, "--data", data,
                         "--out", str(run)]) == 0
        assert len(started) == (0 if cpus == 1 else 3)
        _assert_reaped(started)
        history[cpus] = (run / "history.csv").read_bytes()
        monkeypatch.undo()
    assert history[1] == history[3]
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

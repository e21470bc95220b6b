"""Per-image work on a pool of spawned worker processes, results in item order.

Pseudo-labelling, evaluation and the per-image gradients of a training
batch are independent until the caller reduces them.  ``Pool`` runs such
items on worker processes whose BLAS is single-threaded, since the workers
already occupy the CPUs.  ``map`` returns one result per item, in item
order, and a worker never combines two results, so the caller reduces in
the same order as a loop would: the bytes do not depend on the number of
workers.  A pool of one process starts nothing and runs the items here.

An item is a dict of keyword arguments.  Items may come from a generator:
``map`` draws them as workers become free, so a pass over a split read
lazily holds a few images at a time.  A plain argument is sent with its
item and dropped by the worker once the item is done.  A
``Cached(key, value)`` argument crosses the pipe only the first time a
worker needs it, or again when the parent sends another object under the
same key, and the worker keeps it until the pool closes: that pays only
for images used again, as in training.  A sent value must not be changed
in place afterwards.
"""

from __future__ import annotations

import collections
import itertools
import os
import pickle
import signal
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

# set while the workers start, so that NumPy loads with one BLAS thread
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAX_CHUNK = 4  # items per message
# a worker polls this long for its next chunk before it blocks: a CPU that
# goes idle between two training iterations is slow to get back on a VM
SPIN_SECONDS = 0.002
JOIN_TIMEOUT = 5.0  # seconds a worker gets to exit before it is terminated
_NOT_SENT = object()


class WorkerError(RuntimeError):
    """A worker process died or its pipe broke; the pool is closed."""


class Cached(NamedTuple):
    """An argument each worker keeps under ``key`` once it has received it."""

    key: Hashable
    value: object


class _Held(NamedTuple):
    """Stands for a ``Cached`` value the worker already holds."""

    key: Hashable


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a worker, as text."""


def usable_cpus() -> int:
    """CPUs in this process's affinity mask (``taskset`` limits them)."""
    return len(os.sched_getaffinity(0))


def _chunks(items: list, workers: int) -> list[list]:
    """Consecutive chunks of at most ``MAX_CHUNK`` items, at least one per
    worker while items last; sizes differ by at most one."""
    if not items:
        return []
    count = max(min(workers, len(items)), -(-len(items) // MAX_CHUNK))
    q, r = divmod(len(items), count)
    bounds = [i * q + min(i, r) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _drawn_chunks(items: Iterator) -> Iterator[list]:
    """Chunks of ``MAX_CHUNK`` items, each drawn only when it is asked for.

    When ``items`` raises, the items drawn before it still form a last
    chunk, and the exception is raised when the next chunk is asked for."""
    while True:
        chunk = []
        try:
            for item in itertools.islice(items, MAX_CHUNK):
                chunk.append(item)
        except Exception:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _serve(conn) -> None:
    """Worker loop: compute chunks until the parent sends None or goes away."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C and closes the pool
    cache = {}
    func_bytes = func = None
    while True:
        deadline = time.monotonic() + SPIN_SECONDS
        while not conn.poll(0) and time.monotonic() < deadline:
            os.sched_yield()
        try:
            head = conn.recv()
            if head is None:
                return
            task = pickle.loads(head[0], buffers=[conn.recv_bytes() for _ in range(head[1])])
        except EOFError:
            return
        if task[0] != func_bytes:  # a map's chunks share one function
            func_bytes, func = task[0], pickle.loads(task[0])
        items = task[1]
        # store every new value first: after a failing item the parent still
        # counts the rest of the chunk as delivered
        for item in items:
            cache.update((v.key, v.value) for v in item.values() if isinstance(v, Cached))
        try:
            reply = (True, [
                func(**{k: cache[v.key] if isinstance(v, (Cached, _Held)) else v
                        for k, v in item.items()})
                for item in items
            ])
        except Exception as exc:  # returned to the parent, which raises it
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:  # the parent closed the pipe
            return


@contextmanager
def _environ(values: dict[str, str]):
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


class _Worker:
    def __init__(self, ctx):
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child_end,), daemon=True)
        self.process.start()
        child_end.close()  # so that the worker's death reads as EOF here
        self.sent: dict = {}  # key -> the object it last sent under that key

    def send(self, func_bytes: bytes, chunk: list[dict]) -> None:
        new = {}
        items = []
        for item in chunk:
            out = {}
            for k, v in item.items():
                if isinstance(v, Cached):
                    if v.value is new.get(v.key, self.sent.get(v.key, _NOT_SENT)):
                        v = _Held(v.key)
                    else:
                        new[v.key] = v.value
                out[k] = v
            items.append(out)
        # arrays go out of band, written straight from their own memory: a
        # pickled copy of a few images costs more than the pool saves
        arrays = []
        head = pickle.dumps((func_bytes, items), 5, buffer_callback=arrays.append)
        self.conn.send((head, len(arrays)))
        for a in arrays:
            self.conn.send_bytes(a.raw())
        self.sent.update(new)  # only once the message has gone


class Pool:
    """``processes`` spawned workers; fewer than two means none, in-process.

    Use it as a context manager, or call ``close``: every worker is then
    joined, and terminated if it does not exit within ``JOIN_TIMEOUT``.
    """

    def __init__(self, processes: int):
        self._workers: list[_Worker] = []
        if processes < 2:
            return
        import multiprocessing  # here: a command that starts no worker skips its import

        self._ctx = multiprocessing.get_context("spawn")
        try:
            with _environ(_WORKER_ENV):
                for _ in range(processes):
                    self._workers.append(_Worker(self._ctx))
        except BaseException:
            self.close()
            raise

    @property
    def processes(self) -> list:
        """The worker processes; empty when items run in-process."""
        return [w.process for w in self._workers]

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        workers, self._workers = self._workers, []
        for w in workers:
            try:
                w.conn.send(None)
            except OSError:
                pass
            w.conn.close()  # a worker blocked on sending a result gets EPIPE
        for w in workers:
            w.process.join(JOIN_TIMEOUT)
            if w.process.is_alive():
                w.process.terminate()
                w.process.join()
        if workers and not self._ctx.active_children():
            _stop_resource_tracker()

    def _lost(self, w: _Worker, exc: Exception) -> WorkerError:
        pid = w.process.pid
        self.close()
        return WorkerError(f"worker process {pid} exited with code {w.process.exitcode} "
                           f"({type(exc).__name__})")

    def _receive(self, w: _Worker):
        try:
            return w.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost(w, exc) from exc

    def map(self, func: Callable, items: Iterable[dict]) -> Iterator:
        """Yield ``func(**item)`` for every item, in item order.

        A list is cut into ``_chunks``, balanced over the workers; any
        other iterable is drawn ``MAX_CHUNK`` items at a time, each chunk
        just before a worker is free for it, so at most n + 1 chunks are
        drawn and not yet yielded.  Chunk j goes to worker j mod n, so a
        worker sees the same items on every pass over the same list, and
        each worker has one chunk in flight.  An exception
        raised by ``func``, or by ``items`` while it is drawn, is raised in
        its item's turn, as a loop would raise it, after the chunks in
        flight are back; the pool stays usable.  A worker that dies closes
        the pool and raises ``WorkerError``.
        """
        if not self._workers:
            yield from _run_here(func, items)
            return
        workers = self._workers
        chunks = (iter(_chunks(items, len(workers))) if isinstance(items, list)
                  else _drawn_chunks(iter(items)))
        func_bytes = pickle.dumps(func, pickle.HIGHEST_PROTOCOL)  # once, not per chunk
        sent = received = 0
        failure = None  # what drawing a chunk raised, kept for its turn

        def draw():
            nonlocal failure
            if failure is None:
                try:
                    return next(chunks, None)
                except Exception as exc:
                    failure = exc
            return None

        def send(chunk):
            nonlocal sent
            w = workers[sent % len(workers)]
            try:
                w.send(func_bytes, chunk)
            except OSError as exc:
                raise self._lost(w, exc) from exc
            sent += 1

        try:
            while sent < len(workers) and (chunk := draw()) is not None:
                send(chunk)
            while received < sent:
                # draw the next chunk while the workers compute, so that
                # reading it does not keep the worker it goes to waiting
                chunk = draw()
                ok, value = self._receive(workers[received % len(workers)])
                received += 1
                if not ok:
                    exc, text = value
                    raise exc from _RemoteTraceback(text)
                if chunk is not None:
                    send(chunk)
                yield from value
            if failure is not None:
                raise failure
        finally:
            # after an error or an early exit, discard the replies in flight
            while received < sent and self._workers:
                self._receive(workers[received % len(workers)])
                received += 1


def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process that spawning starts.

    It would outlive the command; it is stopped only when no spawned
    process is left to hold its pipe open, and the next spawn restarts it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_here(func: Callable, items: Iterable[dict]) -> Iterator:
    for item in items:
        yield func(**{k: v.value if isinstance(v, Cached) else v for k, v in item.items()})


def map_items(pool: Pool | None, func: Callable, items: Iterable[dict]) -> Iterator:
    """``pool.map``, or the same loop in-process when there is no pool."""
    return _run_here(func, items) if pool is None else pool.map(func, items)


def map_tagged(pool: Pool | None, func: Callable, pairs: Iterable[tuple]) -> Iterator[tuple]:
    """``map_items`` over the items of ``(tag, item)`` pairs, yielding
    ``(tag, result)`` in item order.  A tag stays in this process, held
    only while its item is drawn and not yet done."""
    tags = collections.deque()

    def items():
        for tag, item in pairs:
            tags.append(tag)
            yield item

    for result in map_items(pool, func, items()):
        yield tags.popleft(), result

"""Per-image work on a pool of spawned worker processes, results in item order.

Pseudo-labelling and evaluation are independent per image until the
caller reduces them.  ``Pool`` runs such items on worker processes whose
BLAS is single-threaded, since the workers already occupy the CPUs.
``map`` returns one result per item, in item order, and a worker never
combines two results, so the caller reduces in the same order as a loop
would: the bytes do not depend on the number of workers.  A pool of one
process starts nothing and runs the items here.

Training reduces after every step, so it runs as a chain instead.
``Pool.chain`` gives each worker one task and its ``Link``, the pipes to
the workers ranked just before and after it.  ``Link.fold`` passes a
running sum from rank to rank, so the additions are the same, in the same
order, as in one loop, and it hands the total back to every rank without
a round trip through this process.

An item is a dict of keyword arguments.  Items may come from a generator:
``map`` draws them as workers become free, so a pass over a split read
lazily holds a few images at a time.  A plain argument is sent with its
item and dropped by the worker once the item is done.  A
``Cached(key, value)`` argument, or such an element of a list argument,
crosses the pipe only the first time a worker needs it, or again when the
parent sends another object under the same key, and the worker keeps it
until the pool closes: that pays only for images used again, as in
training.  A sent value must not be changed in place afterwards.
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
# a worker polls this long for its next chunk, or for a neighbour's sum,
# before it blocks: a CPU that goes idle for a moment is slow to get back
# on a VM
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


class _Failed(NamedTuple):
    """Passed along a chain in place of a sum: an exception and its traceback."""

    exc: Exception
    text: str


def _attempt(func: Callable, *args):
    """``func(*args)``, or the ``_Failed`` of what it raised."""
    try:
        return func(*args)
    except Exception as exc:  # passed along the chain, and raised by every rank
        return _Failed(exc, traceback.format_exc())


def _wait(conn) -> None:
    """Poll ``conn`` for ``SPIN_SECONDS``; the caller then blocks on it."""
    deadline = time.monotonic() + SPIN_SECONDS
    while not conn.poll(0) and time.monotonic() < deadline:
        os.sched_yield()


class Link:
    """A worker's place in the pool's chain: ``rank`` of ``size``, with
    duplex pipes to rank - 1 (``prev``) and rank + 1 (``next``), None at
    the ends.  ``Link()`` is the one rank of a loop run in-process."""

    def __init__(self, rank: int = 0, size: int = 1, prev=None, next=None):
        self.rank, self.size, self.prev, self.next = rank, size, prev, next

    def _recv(self, conn):
        """The next value from a neighbour, or the ``_Failed`` of its death."""
        _wait(conn)
        try:
            return conn.recv()
        except (EOFError, OSError) as exc:
            lost = WorkerError(f"rank {self.rank} lost a neighbour ({type(exc).__name__})")
            return _Failed(lost, traceback.format_exc())

    @staticmethod
    def _send(conn, value) -> None:
        try:
            conn.send(value)
        except OSError:  # a dead neighbour: the receive from it fails instead
            pass

    def fold(self, compute: Callable, add: Callable, start):
        """``add(acc, compute())`` on each rank in rank order: rank 0 adds
        to ``start``, rank r to the sum rank r - 1 passes it.  The last
        rank's sum is returned on every rank.

        ``compute`` runs before the rank waits for its predecessor, so the
        ranks compute at once and only the additions take turns.  When
        ``compute`` or ``add`` raises, or a neighbour dies, the exception
        (``WorkerError`` for a death) goes along the chain in place of the
        sum, on both sides of a dead rank, and every live rank raises the
        one that reached it, so no rank waits for a sum that never comes.
        """
        if self.size == 1:
            return add(start, compute())
        mine = _attempt(compute)
        acc = start if self.prev is None else self._recv(self.prev)
        if not isinstance(acc, _Failed):
            acc = mine if isinstance(mine, _Failed) else _attempt(add, acc, mine)
        if self.next is not None:
            self._send(self.next, acc)
            acc = self._recv(self.next)
        if self.prev is not None:
            self._send(self.prev, acc)
        if isinstance(acc, _Failed):
            raise acc.exc from _RemoteTraceback(acc.text)
        return acc


def _swap(value, fn: Callable):
    """``value`` with ``fn`` applied if it is ``Cached`` or ``_Held``, or
    applied to each such element if it is a list."""
    if isinstance(value, list):
        return [fn(v) if isinstance(v, (Cached, _Held)) else v for v in value]
    return fn(value) if isinstance(value, (Cached, _Held)) else value


def usable_cpus() -> int:
    """CPUs in this process's affinity mask (``taskset`` limits them)."""
    return len(os.sched_getaffinity(0))


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


def _serve(conn, link: Link) -> None:
    """Worker loop: compute chunks until the parent sends None or goes away.
    A chained task's function also gets this worker's ``link``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C and closes the pool
    func_bytes = func = None
    held = {}  # Cached values by key, kept until the pool closes

    def keep(c):
        if isinstance(c, Cached):
            held[c.key] = c.value

    while True:
        _wait(conn)
        try:
            head = conn.recv()
            if head is None:
                return
            task = pickle.loads(head[0], buffers=[conn.recv_bytes() for _ in range(head[1])])
        except EOFError:
            return
        if task[0] != func_bytes:  # a map's chunks share one function
            func_bytes, func = task[0], pickle.loads(task[0])
        items, extra = task[1], {"link": link} if task[2] else {}
        # store every new value first: after a failing item the parent still
        # counts the rest of the chunk as delivered
        for item in items:
            for v in item.values():
                _swap(v, keep)
        try:
            reply = (True, [
                func(**{k: _swap(v, lambda c: held[c.key]) for k, v in item.items()}, **extra)
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
    def __init__(self, ctx, link: Link):
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child_end, link), daemon=True)
        self.process.start()
        child_end.close()  # so that the worker's death reads as EOF here
        self.sent: dict = {}  # key -> the object it last sent under that key

    def send(self, func_bytes: bytes, chunk: list[dict], chained: bool = False) -> None:
        new = {}

        def hold(c: Cached):
            if c.value is new.get(c.key, self.sent.get(c.key, _NOT_SENT)):
                return _Held(c.key)
            new[c.key] = c.value
            return c

        items = [{k: _swap(v, hold) for k, v in item.items()} for item in chunk]
        # arrays go out of band, written straight from their own memory: a
        # pickled copy of a few images costs more than the pool saves
        arrays = []
        head = pickle.dumps((func_bytes, items, chained), 5, buffer_callback=arrays.append)
        self.conn.send((head, len(arrays)))
        for a in arrays:
            self.conn.send_bytes(a.raw())
        self.sent.update(new)  # only once the message has gone


class Pool:
    """``processes`` spawned workers; fewer than two means none, in-process.

    Worker r is rank r of the chain, with a pipe to each neighbour.  Use it
    as a context manager, or call ``close``: every worker is then joined,
    and terminated if it does not exit within ``JOIN_TIMEOUT``.
    """

    def __init__(self, processes: int):
        self._workers: list[_Worker] = []
        if processes < 2:
            return
        import multiprocessing  # here: a command that starts no worker skips its import

        self._ctx = multiprocessing.get_context("spawn")
        pipes = [self._ctx.Pipe() for _ in range(processes - 1)]  # (rank r end, rank r + 1 end)
        try:
            with _environ(_WORKER_ENV):
                for r in range(processes):
                    link = Link(r, processes, pipes[r - 1][1] if r else None,
                                pipes[r][0] if r < processes - 1 else None)
                    self._workers.append(_Worker(self._ctx, link))
        except BaseException:
            self.close()
            raise
        finally:
            for end in itertools.chain.from_iterable(pipes):
                end.close()  # so that a worker's death reads as EOF to its neighbours

    @property
    def processes(self) -> list:
        """The worker processes; empty when items run in-process."""
        return [w.process for w in self._workers]

    @property
    def size(self) -> int:
        """The number of ranks of the chain: 1 when items run in-process."""
        return max(1, len(self._workers))

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

    def _lost(self, w: _Worker, why: str) -> WorkerError:
        pid = w.process.pid
        self.close()
        return WorkerError(f"worker process {pid} exited with code {w.process.exitcode} ({why})")

    def _receive(self, w: _Worker):
        try:
            return w.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost(w, type(exc).__name__) from exc

    def map(self, func: Callable, items: Iterable[dict]) -> Iterator:
        """Yield ``func(**item)`` for every item, in item order.

        ``items`` are drawn ``MAX_CHUNK`` at a time, each chunk just before
        a worker is free for it, so at most n + 1 chunks are drawn and not
        yet yielded.  Chunk j goes to worker j mod n, so a worker sees the
        same items on every pass over the same list, and each worker has
        one chunk in flight.  An exception
        raised by ``func``, or by ``items`` while it is drawn, is raised in
        its item's turn, as a loop would raise it, after the chunks in
        flight are back; the pool stays usable.  A worker that dies closes
        the pool and raises ``WorkerError``.
        """
        if not self._workers:
            yield from _run_here(func, items)
            return
        workers = self._workers
        chunks = _drawn_chunks(iter(items))
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
                raise self._lost(w, type(exc).__name__) from exc
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

    def chain(self, func: Callable, items: list[dict]) -> list:
        """``func(link=..., **items[r])`` on worker r, every worker at once,
        for one item per rank; the results in rank order.

        The workers pass sums along the chain with ``Link.fold``.  When one
        raises, every rank raises the same exception, which is raised here
        once every reply is back.  A worker that dies closes the pool and
        raises ``WorkerError`` as soon as it is seen, whichever rank it is.
        """
        if not self._workers:
            return [_call(func, items[0], link=Link())]
        from multiprocessing.connection import wait

        workers = self._workers
        if len(items) != len(workers):
            raise ValueError(f"a chain of {len(workers)} ranks needs as many items, "
                             f"got {len(items)}")
        func_bytes = pickle.dumps(func, pickle.HIGHEST_PROTOCOL)
        for w, item in zip(workers, items):
            try:
                w.send(func_bytes, [item], chained=True)
            except OSError as exc:
                raise self._lost(w, type(exc).__name__) from exc
        # wait on every worker at once: a dead rank is seen whichever it is
        replies = [None] * len(workers)
        while None in replies:
            ready = wait([w.conn for w, reply in zip(workers, replies) if reply is None]
                         + [w.process.sentinel for w in workers])
            for r, w in enumerate(workers):
                if w.conn in ready:
                    replies[r] = self._receive(w)
                elif w.process.sentinel in ready:
                    raise self._lost(w, "exited")
        for ok, value in replies:
            if not ok:
                exc, text = value
                raise exc from _RemoteTraceback(text)
        return [value[0] for _, value in replies]


def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process that spawning starts.

    It would outlive the command; it is stopped only when no spawned
    process is left to hold its pipe open, and the next spawn restarts it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _call(func: Callable, item: dict, **extra):
    """``func(**item, **extra)`` here, with every ``Cached`` value unwrapped."""
    return func(**{k: _swap(v, lambda c: c.value) for k, v in item.items()}, **extra)


def _run_here(func: Callable, items: Iterable[dict]) -> Iterator:
    for item in items:
        yield _call(func, item)


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

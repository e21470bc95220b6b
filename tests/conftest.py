"""Shared fixtures: a small label space and matching embedding table.

The test process runs its GEMMs on one OpenBLAS thread, as ``cli.main``
and the pool workers do, so in-process runs (the acceptance benchmark's
selftrains) do not spin a second thread on these small matrices.

Also a hang guard: a test whose setup, call and teardown together take
longer than ``HANG_SECONDS`` (module fixtures included) dumps the stack of
every thread and ends the run, rather than stalling it.
"""

import faulthandler
import os
import sys

import numpy as np
import pytest

from gzlss.cli import _one_blas_thread
from gzlss.label_space import build_label_space, make_embedding_table

HANG_SECONDS = 900  # the slowest test, with the acceptance runs, takes ~220 s
_stderr = []  # a copy of the terminal's stderr, which test output capture leaves alone


def pytest_configure(config):
    _one_blas_thread()
    _stderr.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    os.close(_stderr.pop())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=_stderr[0])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def space():
    # 3 seen + 2 unseen, background ignored
    return build_label_space([1, 2, 3], [4, 5])


@pytest.fixture
def table(space):
    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((space.num_classes, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return make_embedding_table({c: vecs[i] for i, c in enumerate(space.all_ids)})

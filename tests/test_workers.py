"""The shared worker supervisor: CPU sizing and the child message loop.

Pool-level behaviour (crash recovery, respawn, stalls) is covered by
``tests/parallel/test_pool.py`` and ``tests/ingest/test_ingest_pool.py``,
which both run through :class:`repro.workers.Supervisor`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.browse.sharding import ShardPool
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid import Grid
from repro.parallel.pool import ProcessShardPool
from repro.workers import Supervisor, usable_cpu_count

from tests.conftest import random_dataset


@pytest.fixture
def one_cpu(monkeypatch):
    """Pretend the process is pinned to CPU 0 (as under ``taskset -c 0``)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def test_usable_cpu_count_honours_affinity(one_cpu):
    assert usable_cpu_count() == 1


def test_usable_cpu_count_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpu_count() == (os.cpu_count() or 1)


def test_thread_pool_is_sized_by_affinity(one_cpu):
    assert ShardPool(4).workers == 1


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shared memory not available")
def test_process_pool_is_sized_by_affinity(one_cpu):
    grid = Grid.world_1deg()
    dataset = random_dataset(np.random.default_rng(3), grid, 50, max_size_cells=10.0)
    estimator = SEulerApprox(EulerHistogram.from_dataset(dataset, grid))
    with ProcessShardPool(estimator, num_shards=4, start_method="fork") as pool:
        assert pool.workers == 1


def _echo_setup(stack, label):
    # Fork-only (inherited, never pickled).
    def echo(tag, value):
        if value is None:
            raise ValueError("no value")
        return ("echo", tag, label, value)

    return {"echo": echo}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork start method not available")
def test_child_loop_replies_errors_and_keeps_serving():
    lost = []
    supervisor = Supervisor(
        _echo_setup,
        (),
        count=1,
        start_method="fork",
        name="echo",
        on_loss=lambda worker, reason: lost.append(reason),
    )
    try:
        assert supervisor.ensure_ready(20.0) == 1
        (worker,) = supervisor.workers
        assert worker.label == "echo-w0i1"

        def ask(message):
            assert supervisor.send(worker, message)
            ((who, reply),) = supervisor.wait([worker], 20.0)
            assert who is worker
            return reply

        assert ask(("echo", 7, "x")) == ("echo", 7, "echo-w0i1", "x")
        kind, tag, error = ask(("echo", 8, None))
        assert (kind, tag) == ("error", 8) and "no value" in error
        kind, tag, error = ask(("bogus", 9))
        assert (kind, tag) == ("error", None) and "unknown message" in error
        # An error reply is not a loss: the worker keeps serving.
        assert ask(("echo", 10, "y"))[3] == "y"
        assert lost == []
    finally:
        supervisor.close()
    assert not worker.process.is_alive()

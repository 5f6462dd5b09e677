"""The process-pool worker: attach once, answer offset messages.

Each worker runs :func:`repro.workers.run_worker` with :func:`setup`,
which:

1. attaches the summary segments named in the manifest (refusing a stale
   generation) and ``spec.build``\\ s the estimator over the shared views;
2. attaches the pool's shared *query* buffer (four int64 corner rows) and
   *result* buffer (four float64 count rows);
3. registers one handler:

   - ``("task", task_id, lo, hi, generation)`` -- zero-copy a
     :class:`TileQueryBatch` out of the query-buffer columns
     ``[lo, hi)``, run ``estimate_batch``, write the four count rows
     into the result buffer at the same columns, reply
     ``("done", task_id, lo, hi)``.  A generation mismatch replies
     ``("stale", task_id, ...)`` instead -- a stale worker must refuse
     to answer, never guess.

The handshake, ``stop`` and ``error`` replies are the shared
supervisor's.  Per-task traffic is a handful of integers each way; the
queries and results themselves never cross the pipe.  The parent owns
both buffers and slices results out *after* the ``done`` reply, so a
worker that dies mid-write can never corrupt an acknowledged result.

This module must stay importable with no side effects: ``spawn``
workers re-import it by qualified name.
"""

from __future__ import annotations

from contextlib import ExitStack
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from repro.euler.base import as_batch_estimator
from repro.grid.tiles_math import TileQueryBatch
from repro.parallel.shm import attach_store

__all__ = ["setup"]

#: Rows of the shared query buffer, in order.
QUERY_ROWS = ("qx_lo", "qx_hi", "qy_lo", "qy_hi")
#: Rows of the shared result buffer, in order.
RESULT_ROWS = ("n_d", "n_cs", "n_cd", "n_o")


def _attach_plain(stack: ExitStack, name: str, dtype: type, rows: int, capacity: int):
    """Attach one of the pool's plain (headerless) I/O buffers."""
    shm = shared_memory.SharedMemory(name=name)
    stack.callback(shm.close)
    return np.ndarray((rows, capacity), dtype=dtype, buffer=shm.buf)


def setup(
    stack: ExitStack,
    _label: str,
    manifest: Mapping[str, str],
    spec: object,
    generation: int,
    query_name: str,
    result_name: str,
    capacity: int,
) -> dict:
    """Attach everything once and return the ``task`` handler."""
    attached = attach_store(dict(manifest), expected_generation=generation)
    stack.callback(attached.close)
    estimator = as_batch_estimator(spec.build(attached.arrays))
    queries = _attach_plain(stack, query_name, np.int64, len(QUERY_ROWS), capacity)
    results = _attach_plain(stack, result_name, np.float64, len(RESULT_ROWS), capacity)

    def task(task_id: int, lo: int, hi: int, task_generation: int) -> tuple:
        if task_generation != attached.generation:
            return (
                "stale",
                task_id,
                f"worker holds generation {attached.generation}, "
                f"task expects {task_generation}",
            )
        batch = TileQueryBatch(
            queries[0, lo:hi], queries[1, lo:hi], queries[2, lo:hi], queries[3, lo:hi]
        )
        counts = estimator.estimate_batch(batch)
        results[0, lo:hi] = counts.n_d
        results[1, lo:hi] = counts.n_cs
        results[2, lo:hi] = counts.n_cd
        results[3, lo:hi] = counts.n_o
        return ("done", task_id, lo, hi)

    return {"task": task}

"""Sharded execution of raster estimate batches.

A browse raster is one long :class:`~repro.grid.tiles_math.TileQueryBatch`
in row-major order; splitting it into contiguous *row-band shards* and
estimating each shard separately wins twice:

- **Parallelism.**  The estimators' batch kernels are numpy gathers and
  elementwise arithmetic, which release the GIL for their inner loops,
  so shards dispatched onto a :class:`~concurrent.futures.ThreadPoolExecutor`
  overlap on multi-core hosts.
- **Locality.**  Even on one core, a shard's intermediate arrays fit the
  CPU caches where a monolithic 360x180 raster's do not; band-blocked
  execution measures ~1.3x faster single-threaded on the full world grid
  (``BENCH_browse_cache.json``).

:class:`ShardPool` sizes its worker pool to ``min(shards, usable CPUs)``
(the scheduler affinity set, see :func:`~repro.workers.usable_cpu_count`)
and bypasses the pool entirely when only one worker is useful -- the
single-core case keeps the blocking win without paying thread dispatch.
Because every shard is answered by a pure batch-estimator call and the
results are concatenated in order, a sharded raster is bit-identical to
the monolithic one.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from repro.grid.tiles_math import TileQueryBatch
from repro.workers import usable_cpu_count

__all__ = ["ShardPool", "band_slices", "batch_subset"]

T = TypeVar("T")
R = TypeVar("R")


def band_slices(n: int, num_shards: int, *, min_shard: int) -> list[slice]:
    """Split ``n`` row-major items into up to ``num_shards`` contiguous
    bands of near-equal size, none smaller than ``min_shard`` (so tiny
    inputs are not shredded into overhead; each caller states the
    minimum its dispatch cost justifies).  Always returns at least one
    slice covering everything."""
    if n <= 0:
        return [slice(0, 0)]
    shards = max(1, min(num_shards, n // max(min_shard, 1) or 1))
    # Integer bounds: this runs on every raster, where numpy's linspace
    # costs more than the rest of a one-band call.
    bounds = [n * i // shards for i in range(shards + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def batch_subset(batch: TileQueryBatch, index) -> TileQueryBatch:
    """The sub-batch selected by a slice, an index array or a boolean
    mask, preserving order (so shard results concatenate back in place)."""
    return TileQueryBatch(
        batch.qx_lo[index], batch.qx_hi[index], batch.qy_lo[index], batch.qy_hi[index]
    )


class ShardPool:
    """A lazily-created thread pool for shard execution.

    ``num_shards`` is the requested fan-out; the actual worker count is
    capped at the CPUs this process may run on, and a one-worker pool degenerates to
    inline sequential execution (same results, no thread overhead).  The
    underlying executor is created on first parallel use and shut down by
    :meth:`close` (also a context manager exit).
    """

    def __init__(self, num_shards: int, *, max_workers: int | None = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = num_shards
        if max_workers is None:
            max_workers = usable_cpu_count()
        self._workers = max(1, min(num_shards, max_workers))
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    @property
    def workers(self) -> int:
        """Concurrent workers this pool will actually use."""
        return self._workers

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Run ``fn`` over ``items``, in order, using the pool when it
        helps.

        On failure the *first* exception (in submission order) is
        re-raised as soon as it is observed: still-pending shards are
        cancelled rather than run to completion, and shards already
        executing are awaited so no work is in flight when this returns.

        Safe to race with :meth:`close`: shards the executor refuses to
        accept mid-shutdown (and every ``map`` after close) run inline
        on the calling thread, so callers always get their results.
        """
        if self._workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        executor = self._get_executor()
        if executor is None:  # closed: degrade to inline execution
            return [fn(item) for item in items]
        futures = []
        submitted = len(items)
        for i, item in enumerate(items):
            try:
                futures.append(executor.submit(fn, item))
            except RuntimeError:
                # close() won the race and shut the executor down after
                # we fetched it; whatever did not get in runs inline.
                submitted = i
                break
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        first_exc: BaseException | None = None
        for future in futures:
            if future in done and (exc := future.exception()) is not None:
                first_exc = exc
                break
        if first_exc is not None:
            for future in not_done:
                future.cancel()
            wait(not_done)  # let already-running shards settle
            raise first_exc
        results: list[R] = [future.result() for future in futures]
        results.extend(fn(item) for item in items[submitted:])
        return results

    def _get_executor(self) -> ThreadPoolExecutor | None:
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="repro-shard"
                )
            return self._executor

    def close(self) -> None:
        """Shut the pool down (idempotent).  Shards already submitted
        finish first; ``map`` calls racing or following the close fall
        back to inline execution instead of erroring."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

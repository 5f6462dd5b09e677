"""A persistent pool of estimator worker processes.

:class:`ProcessShardPool` is the process counterpart of the threaded
:class:`~repro.browse.sharding.ShardPool`.  Construction exports the
estimator's summary arrays once (:func:`~repro.parallel.spec.export_estimator`
into a :class:`~repro.parallel.shm.SharedSummaryStore`), allocates two
plain shared buffers -- query corners in, count rows out -- and spawns
workers that attach everything at startup.  Each raster dispatch then
costs only:

1. one vectorised write of the corner arrays into the query buffer,
2. one tiny ``(task, lo, hi, generation)`` pipe message per band,
3. one ``done`` reply per band and one vectorised copy out of the
   result buffer.

No query or result data ever crosses a pipe, so the per-dispatch
overhead is microseconds and a long-lived pool amortises worker startup
across every raster of a browsing session.  Spawning, the ready
handshake, loss and respawn and shutdown are the shared
:class:`~repro.workers.Supervisor`'s; this module keeps only band
dispatch over the shared buffers and its loss policy.

Failure model (exercised by the fault harness, ``testing/faults.py``):

- **crash** -- a worker process dying mid-task is detected via its
  process sentinel; its band is recomputed inline by the parent, the
  crash counter (and ``repro_parallel_worker_crashes_total``) increments
  and a replacement worker is spawned in the background.  The raster
  always completes.
- **timeout** -- a dispatch that exceeds its budget terminates the
  stragglers (a late write into a reused result buffer must never
  survive), respawns them and recomputes their bands inline.
- **staleness** -- a worker whose attached generation does not match a
  task's refuses with a ``stale`` reply; the parent answers that band
  inline.  Wrong answers are structurally impossible, not just unlikely.
- **estimator error** -- an ``error`` reply propagates as
  :class:`WorkerEstimateError`, but first the round's other in-flight
  workers are terminated (and respawned) exactly like timed-out
  stragglers, so no abandoned task can write into a reused buffer.

Results concatenate in band order from the same elementwise kernels the
inline path runs, so process-sharded rasters are bit-identical to
inline ones.
"""

from __future__ import annotations

import threading
import time
import weakref
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from repro.browse.sharding import band_slices, batch_subset
from repro.cache.keys import backing_summary, summary_generation
from repro.euler.base import as_batch_estimator
from repro.euler.estimates import Level2CountsBatch
from repro.grid.tiles_math import TileQueryBatch
from repro.obs.instruments import BrowseInstrumentation
from repro.parallel.shm import SharedSummaryStore
from repro.parallel.spec import EstimatorSpec, export_estimator
from repro.parallel.worker import QUERY_ROWS, RESULT_ROWS, setup
from repro.workers import Supervisor, Worker, usable_cpu_count

__all__ = ["PoolUnavailableError", "ProcessShardPool", "WorkerEstimateError"]

#: Default capacity (tiles) of the shared query/result buffers; larger
#: rasters are dispatched in capacity-sized rounds.
DEFAULT_CAPACITY = 1 << 17


class PoolUnavailableError(RuntimeError):
    """The pool cannot serve: it is closed, or no worker became ready
    within the allowed time."""


class WorkerEstimateError(RuntimeError):
    """A worker's estimator raised; carries the worker-side repr.  This
    is an *estimator* bug surfacing, not an infrastructure failure, so it
    propagates instead of triggering inline fallback -- the inline path
    would hit the same bug."""


def _cleanup_buffers(buffers: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink the pool's I/O buffers (finalizer-safe)."""
    for shm in buffers:
        try:
            shm.close()
        except OSError:  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover
            pass
    buffers.clear()


class ProcessShardPool:
    """Process-parallel ``estimate_batch`` over shared summary arrays.

    Parameters
    ----------
    estimator:
        Any of the exportable batch estimators (S-EulerApprox,
        EulerApprox, M-EulerApprox, Exact).  Raises
        :class:`~repro.parallel.spec.UnsupportedEstimatorError` for
        anything else.
    num_shards:
        Requested raster fan-out; the worker count is
        ``min(num_shards, max_workers or usable CPUs)`` (the scheduler
        affinity set, see :func:`~repro.workers.usable_cpu_count`).
    start_method:
        ``"spawn"`` (default; portable, slower startup) or ``"fork"``.
    capacity:
        Tiles per shared-buffer round; rasters beyond it loop.
    min_shard:
        Bands are never smaller than this (tiny bands are all dispatch
        overhead).
    dispatch_timeout:
        Per-round budget; overruns degrade to inline recomputation.
    spec_transform:
        Test hook: rewrites the exported spec before workers receive it
        (the fault harness wraps specs in crashing ones).
    instruments, service:
        Optional :class:`~repro.obs.instruments.BrowseInstrumentation`
        plus the ``service`` label value for its pool metric families.
    """

    def __init__(
        self,
        estimator: object,
        *,
        num_shards: int,
        max_workers: int | None = None,
        start_method: str = "spawn",
        capacity: int = DEFAULT_CAPACITY,
        min_shard: int = 2048,
        dispatch_timeout: float = 30.0,
        instruments: BrowseInstrumentation | None = None,
        service: str = "plain",
        spec_transform: Callable[[EstimatorSpec], EstimatorSpec] | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.num_shards = num_shards
        self._capacity = int(capacity)
        self._min_shard = int(min_shard)
        self._dispatch_timeout = float(dispatch_timeout)
        self._obs = instruments
        self._service = service
        self._inline = as_batch_estimator(estimator)
        self._generation = summary_generation(backing_summary(estimator))
        self._crashes = 0
        self._task_counter = 0
        self._closed = False
        self._lock = threading.Lock()

        # Export the summary arrays once; every worker attaches these.
        self._store = SharedSummaryStore(generation=self._generation)
        try:
            spec = export_estimator(estimator, self._store)
        except BaseException:
            self._store.close()
            raise
        if spec_transform is not None:
            spec = spec_transform(spec)

        # Plain (headerless) I/O buffers, owned and unlinked by the pool.
        self._buffers: list[shared_memory.SharedMemory] = []
        self._buffer_finalizer = weakref.finalize(self, _cleanup_buffers, self._buffers)
        try:
            qbytes = 8 * len(QUERY_ROWS) * self._capacity
            rbytes = 8 * len(RESULT_ROWS) * self._capacity
            self._query_shm = shared_memory.SharedMemory(create=True, size=qbytes)
            self._buffers.append(self._query_shm)
            self._result_shm = shared_memory.SharedMemory(create=True, size=rbytes)
            self._buffers.append(self._result_shm)
        except BaseException:
            _cleanup_buffers(self._buffers)
            self._store.close()
            raise
        self._qbuf = np.ndarray(
            (len(QUERY_ROWS), self._capacity), dtype=np.int64, buffer=self._query_shm.buf
        )
        self._rbuf = np.ndarray(
            (len(RESULT_ROWS), self._capacity), dtype=np.float64, buffer=self._result_shm.buf
        )

        n_workers = max_workers if max_workers is not None else usable_cpu_count()
        self._num_workers = max(1, min(num_shards, n_workers))
        self._supervisor = Supervisor(
            setup,
            (
                self._store.manifest,
                spec,
                self._generation,
                self._query_shm.name,
                self._result_shm.name,
                self._capacity,
            ),
            count=self._num_workers,
            start_method=start_method,
            name="shard",
            on_loss=self._on_loss,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _on_loss(self, worker: Worker, reason: str) -> None:
        """Count a lost worker (its band is recomputed by the caller)."""
        self._crashes += 1
        if self._obs is not None:
            self._obs.worker_crashes.labels(service=self._service, reason=reason).inc()

    def ensure_ready(self, timeout: float = 10.0) -> int:
        """Wait up to ``timeout`` for starting workers to report ready;
        returns the number currently ready.  A ``timeout`` of zero still
        performs one non-blocking poll, so pending ``ready`` messages
        (fresh startup or post-crash respawns) are always drained -- the
        auto routing policy relies on this.  A worker whose startup
        failed (``init_error``) or died before reporting is counted as a
        crash and respawned; persistent failures leave it not-ready."""
        with self._lock:
            return self._supervisor.ensure_ready(timeout)

    def ready_count(self) -> int:
        """Workers currently ready, without waiting."""
        return len(self._supervisor.ready())

    @property
    def workers(self) -> int:
        """Configured worker count (alive or respawning)."""
        return self._num_workers

    @property
    def crashes(self) -> int:
        """Workers lost so far (crash, init failure or timeout kill)."""
        return self._crashes

    @property
    def generation(self) -> int:
        """The exported summary generation every task is stamped with."""
        return self._generation

    def worker_pids(self) -> list[int]:
        """PIDs of the ready workers (the fault harness kills these)."""
        return self._supervisor.worker_pids()

    def close(self) -> None:
        """Stop the workers and release every shared segment
        (idempotent, safe to race with in-flight dispatches -- the
        dispatch lock serialises them)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._supervisor.close()
            _cleanup_buffers(self._buffers)
            self._buffer_finalizer.detach()
            self._store.close()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def estimate_batch(self, batch: TileQueryBatch) -> Level2CountsBatch:
        """Process-sharded counts for ``batch``; bit-identical to the
        inline ``estimate_batch``.  Each dispatch round is bounded by
        ``dispatch_timeout`` -- overruns degrade to inline recomputation
        of the late bands, never to a hang or a partial answer."""
        n = len(batch)
        out = np.empty((len(RESULT_ROWS), n), dtype=np.float64)
        started = time.monotonic() if self._obs is not None else 0.0
        with self._lock:
            if self._closed:
                raise PoolUnavailableError("pool is closed")
            # Non-blocking drain of pending "ready" messages, so workers
            # respawned after a crash rejoin the fan-out instead of the
            # pool silently decaying to inline execution.
            self._supervisor.ensure_ready(0.0)
            for lo in range(0, max(n, 1), self._capacity):
                hi = min(lo + self._capacity, n)
                self._dispatch_round(batch, lo, hi, out)
        if self._obs is not None:
            self._obs.parallel_dispatch_seconds.labels(service=self._service).observe(
                time.monotonic() - started
            )
        return Level2CountsBatch(out[0], out[1], out[2], out[3])

    def estimate_field(self, batch: TileQueryBatch, field_name: str) -> np.ndarray:
        """One count field for ``batch`` (including the derived
        ``n_intersect``), as the browsing services consume it."""
        counts = self.estimate_batch(batch)
        return np.asarray(getattr(counts, field_name), dtype=np.float64)

    def _dispatch_round(
        self, batch: TileQueryBatch, lo: int, hi: int, out: np.ndarray
    ) -> None:
        """One capacity-bounded round: fan bands of ``batch[lo:hi)`` out
        to the ready workers, inline-compute whatever cannot be (no
        workers, crashes, timeouts, staleness)."""
        m = hi - lo
        if m == 0:
            return
        chunk = batch_subset(batch, slice(lo, hi))
        self._qbuf[0, :m] = chunk.qx_lo
        self._qbuf[1, :m] = chunk.qx_hi
        self._qbuf[2, :m] = chunk.qy_lo
        self._qbuf[3, :m] = chunk.qy_hi

        supervisor = self._supervisor
        ready = supervisor.ready()
        inline_slices: list[slice] = []
        if not ready:
            inline_slices.append(slice(0, m))
        else:
            slices = band_slices(m, min(self.num_shards, len(ready)), min_shard=self._min_shard)
            pending: dict[Worker, tuple[int, slice]] = {}
            for band, worker in zip(slices, ready):
                self._task_counter += 1
                task = ("task", self._task_counter, band.start, band.stop, self._generation)
                if supervisor.send(worker, task):
                    pending[worker] = (self._task_counter, band)
                else:
                    inline_slices.append(band)
            inline_slices.extend(slices[len(ready):])

            deadline = time.monotonic() + self._dispatch_timeout
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Budget exhausted: kill the stragglers so a late
                    # write can never land in a reused result buffer,
                    # then recompute their bands inline.
                    for worker, (_, band) in pending.items():
                        supervisor.lose(worker, "timeout")
                        inline_slices.append(band)
                    break
                for worker, message in supervisor.wait(list(pending), remaining):
                    task_id, band = pending[worker]
                    if message is None:
                        # The worker died mid-task (and was respawned);
                        # its band is recomputed inline.
                        del pending[worker]
                        inline_slices.append(band)
                        continue
                    if message[1] != task_id:
                        # A reply from a task abandoned by an earlier
                        # timeout/error; the band was already handled.
                        continue
                    del pending[worker]
                    if message[0] == "done":
                        out[:, lo + band.start : lo + band.stop] = self._rbuf[
                            :, band.start : band.stop
                        ]
                    elif message[0] == "stale":
                        inline_slices.append(band)
                    elif message[0] == "error":
                        # The error aborts the round, but other bands
                        # are still in flight: terminate those workers
                        # (as the timeout branch does) so a straggler's
                        # late write can never land in the reused result
                        # buffer of a subsequent dispatch.
                        for straggler in pending:
                            supervisor.lose(straggler, "abort")
                        raise WorkerEstimateError(
                            f"worker {worker.slot} failed on tiles "
                            f"[{lo + band.start}, {lo + band.stop}): {message[2]}"
                        )

        for band in inline_slices:
            counts = self._inline.estimate_batch(batch_subset(chunk, band))
            out[0, lo + band.start : lo + band.stop] = counts.n_d
            out[1, lo + band.start : lo + band.stop] = counts.n_cs
            out[2, lo + band.start : lo + band.stop] = counts.n_cd
            out[3, lo + band.start : lo + band.stop] = counts.n_o

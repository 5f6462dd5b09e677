"""Thread/process/auto routing between the two shard pools.

:class:`ParallelExecutor` is what the browsing services actually hold:
it owns a threaded :class:`~repro.browse.sharding.ShardPool` and --
when the mode and the estimator allow it -- a
:class:`~repro.parallel.pool.ProcessShardPool`, and routes each raster
to whichever executes it fastest:

- ``thread`` -- always the thread pool (the pre-existing behaviour:
  band-blocked locality plus GIL-released numpy overlap);
- ``process`` -- always the process pool; an estimator that cannot be
  exported to shared memory is a configuration error here;
- ``auto`` -- the process pool for big rasters (``n >=
  process_threshold`` tiles, the point where kernel time dwarfs the
  microseconds of dispatch), threads for mid-size ones, inline for
  tiny ones; estimators that cannot export (maintained histograms,
  custom estimators) silently stay on threads.

The auto policy never *blocks* on worker startup: a raster arriving
while workers are still attaching runs on threads and the pool picks up
the next one.  Staleness is checked on every process routing -- if the
backing summary's generation has moved past the pool's exported
snapshot, auto falls back to threads (forced ``process`` raises), and
the workers would refuse the task anyway (defence in depth; see
DESIGN.md section 14).  Only the plain service holds an executor: the
resilient service runs its chunk waves on a thread ``ShardPool``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.browse.sharding import ShardPool, band_slices, batch_subset
from repro.cache.keys import backing_summary, summary_generation
from repro.euler.base import Level2BatchEstimator, Level2Estimator, as_batch_estimator
from repro.grid.tiles_math import TileQueryBatch
from repro.obs.instruments import BrowseInstrumentation
from repro.parallel.pool import (
    DEFAULT_CAPACITY,
    PoolUnavailableError,
    ProcessShardPool,
)
from repro.parallel.shm import StaleSummaryError
from repro.parallel.spec import UnsupportedEstimatorError

__all__ = ["ParallelConfig", "ParallelExecutor"]

#: Valid ``ParallelConfig.mode`` values.
MODES = ("thread", "process", "auto")


@dataclass(frozen=True)
class ParallelConfig:
    """How a browsing service executes raster shards.

    ``mode`` is usually all a caller sets (the CLI's ``--parallel``
    maps straight onto it); the rest are tuning knobs with defaults
    measured on the world-grid benchmark
    (``benchmarks/bench_browse_parallel.py``).

    - ``process_threshold``: minimum raster tiles before ``auto`` routes
      to processes; below it thread/inline execution wins on dispatch
      overhead.
    - ``startup_timeout``: how long a *forced* ``process`` mode waits
      for the first worker to attach; ``auto`` never waits.
    - ``max_workers``, ``start_method``, ``capacity``,
      ``dispatch_timeout``, ``min_shard``: forwarded to the pools.
    """

    mode: str = "thread"
    max_workers: int | None = None
    start_method: str = "spawn"
    process_threshold: int = 8192
    capacity: int = DEFAULT_CAPACITY
    dispatch_timeout: float = 30.0
    min_shard: int = 2048
    startup_timeout: float = 15.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"parallel mode must be one of {MODES}, got {self.mode!r}")
        if self.process_threshold < 0:
            raise ValueError("process_threshold must be non-negative")

    @classmethod
    def coerce(cls, value: "ParallelConfig | str | None") -> "ParallelConfig":
        """``None`` -> thread default, a mode string -> that mode,
        a config -> itself."""
        if value is None:
            return cls()
        if isinstance(value, ParallelConfig):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"parallel must be a ParallelConfig, a mode string or None, "
            f"got {type(value).__name__}"
        )


class ParallelExecutor:
    """Routes raster batches across the thread and process pools.

    Owns both pools; :meth:`estimate_field` is the plain browsing
    service's shard-execution entry point, bit-identical to inline
    ``estimate_batch`` regardless of route.
    """

    def __init__(
        self,
        estimator: Level2Estimator,
        config: "ParallelConfig | str | None" = None,
        *,
        num_shards: int,
        instruments: BrowseInstrumentation | None = None,
        service: str = "plain",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.config = ParallelConfig.coerce(config)
        self.num_shards = num_shards
        self._estimator = estimator
        self._batch: Level2BatchEstimator = as_batch_estimator(estimator)
        self._summary = backing_summary(estimator)
        self._obs = instruments
        self._service = service
        self._thread_pool = ShardPool(num_shards, max_workers=self.config.max_workers)
        self._process_pool: ProcessShardPool | None = None
        self._process_awaited = False
        if self.config.mode in ("process", "auto") and num_shards > 1:
            try:
                self._process_pool = ProcessShardPool(
                    estimator,
                    num_shards=num_shards,
                    max_workers=self.config.max_workers,
                    start_method=self.config.start_method,
                    capacity=self.config.capacity,
                    min_shard=self.config.min_shard,
                    dispatch_timeout=self.config.dispatch_timeout,
                    instruments=instruments,
                    service=service,
                )
            except UnsupportedEstimatorError as exc:
                if self.config.mode == "process":
                    raise ValueError(
                        f"parallel mode 'process' cannot serve estimator "
                        f"{estimator.name!r}: {exc}"
                    ) from exc
                # auto: this estimator stays on threads.
        elif self.config.mode == "process" and num_shards <= 1:
            raise ValueError("parallel mode 'process' requires num_shards > 1")
        if instruments is not None:
            instruments.shard_pool_workers.labels(service=service).set(
                self._process_pool.workers if self._process_pool is not None else 0
            )

    @property
    def process_pool(self) -> ProcessShardPool | None:
        """The process pool, when one exists (tests and diagnostics)."""
        return self._process_pool

    @property
    def mode(self) -> str:
        """The configured routing mode."""
        return self.config.mode

    def close(self) -> None:
        """Release both pools (idempotent)."""
        self._thread_pool.close()
        if self._process_pool is not None:
            self._process_pool.close()
            if self._obs is not None:
                self._obs.shard_pool_workers.labels(service=self._service).set(0)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _route_to_process(self, n: int) -> bool:
        """Whether this ``n``-tile batch goes to the process pool."""
        pool = self._process_pool
        if pool is None:
            return False
        stale = summary_generation(self._summary) != pool.generation
        if self.config.mode == "process":
            if stale:
                raise StaleSummaryError(
                    f"summary moved to generation "
                    f"{summary_generation(self._summary)} but the pool "
                    f"exported generation {pool.generation}"
                )
            if not self._process_awaited:
                self._process_awaited = True
                pool.ensure_ready(self.config.startup_timeout)
            return True
        # auto: never block on startup, never serve stale.
        if stale or n < self.config.process_threshold:
            return False
        pool.ensure_ready(0.0)
        return pool.ready_count() > 0

    def estimate_field(self, batch: TileQueryBatch, field_name: str) -> np.ndarray:
        """One count field for ``batch``, routed per the mode (see the
        module docstring); always bit-identical to inline."""
        n = len(batch)
        if self._route_to_process(n):
            try:
                return self._process_pool.estimate_field(batch, field_name)
            except PoolUnavailableError:
                pass  # closed under us: degrade to threads
        return self._thread_estimate_field(batch, field_name)

    def _thread_estimate_field(self, batch: TileQueryBatch, field_name: str) -> np.ndarray:
        slices = band_slices(len(batch), self.num_shards)
        if len(slices) > 1:
            return np.concatenate(
                self._thread_pool.map(
                    lambda sl: self._estimate_shard(batch, sl, field_name), slices
                )
            )
        return self._estimate_shard(batch, slice(0, len(batch)), field_name)

    def _estimate_shard(self, batch: TileQueryBatch, sl: slice, field_name: str) -> np.ndarray:
        obs = self._obs
        started = obs.clock() if obs is not None else 0.0
        estimates = self._batch.estimate_batch(batch_subset(batch, sl))
        values = np.asarray(getattr(estimates, field_name), dtype=np.float64)
        if obs is not None:
            obs.shard_seconds.labels(service=self._service).observe(obs.clock() - started)
        return values


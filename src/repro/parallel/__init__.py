"""Process-parallel raster execution: shared-memory summaries plus a
persistent worker pool.

The threaded :class:`~repro.browse.sharding.ShardPool` overlaps only
where the numpy kernels release the GIL: on a 2-core host it measures
1.3-1.7x over inline on a 180x360 raster, against 1.1-1.9x for the
process pool (``BENCH_browse_parallel.json``).  This package moves the
read-only summary arrays (prefix-sum cubes, snapped object columns) into
``multiprocessing.shared_memory`` segments and fans raster bands out to
a pool of persistent worker *processes* that attach once at startup:

- :mod:`repro.parallel.shm` -- :class:`SharedSummaryStore`, the
  name-keyed segment store with header metadata (magic, generation,
  refcount, dtype, shape) and the attach/detach protocol;
- :mod:`repro.parallel.spec` -- picklable estimator *specs* that carry
  segment keys instead of arrays and rebuild the estimator on the
  worker side (:func:`export_estimator`);
- :mod:`repro.parallel.worker` -- the worker setup: attach, build,
  answer ``(task, lo, hi)`` offset messages against shared query and
  result buffers;
- :mod:`repro.parallel.pool` -- :class:`ProcessShardPool`, band
  dispatch with inline fallback over the shared
  :class:`~repro.workers.Supervisor` (crash detection, respawn);
- :mod:`repro.parallel.executor` -- :class:`ParallelExecutor` and
  :class:`ParallelConfig`, the thread/process/auto routing layer the
  plain browsing service plugs into.

Every parallel raster is bit-identical to inline execution: workers run
the same elementwise gathers over the same arrays and results
concatenate in band order (see DESIGN.md section 14).
"""

from repro.parallel.executor import ParallelConfig, ParallelExecutor
from repro.parallel.pool import PoolUnavailableError, ProcessShardPool, WorkerEstimateError
from repro.parallel.shm import (
    AttachedSummaryStore,
    SegmentFormatError,
    SharedSummaryStore,
    StaleSummaryError,
    attach_store,
)
from repro.parallel.spec import UnsupportedEstimatorError, export_estimator

__all__ = [
    "AttachedSummaryStore",
    "ParallelConfig",
    "ParallelExecutor",
    "PoolUnavailableError",
    "ProcessShardPool",
    "SegmentFormatError",
    "SharedSummaryStore",
    "StaleSummaryError",
    "UnsupportedEstimatorError",
    "WorkerEstimateError",
    "attach_store",
    "export_estimator",
]

"""Process parallelism wired through the plain browsing service.

These tests pin down the *service-level* contract of
:mod:`repro.parallel`: a ``parallel=`` policy must never change what a
raster contains -- only where the arithmetic runs -- and misconfigured
policies must fail loudly at construction, not degrade silently at
request time.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.browse.service import GeoBrowsingService
from repro.euler.histogram import EulerHistogram
from repro.euler.maintained import MaintainedEulerHistogram
from repro.euler.simple import SEulerApprox
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.obs.instruments import BrowseInstrumentation
from repro.parallel.executor import ParallelConfig

from tests.conftest import random_dataset

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not available"
)

@pytest.fixture(scope="module")
def grid():
    return Grid.world_1deg()


@pytest.fixture(scope="module")
def dataset(grid):
    return random_dataset(np.random.default_rng(7), grid, 400, max_size_cells=30.0)


@pytest.fixture(scope="module")
def estimator(grid, dataset):
    return SEulerApprox(EulerHistogram.from_dataset(dataset, grid))


@pytest.fixture(scope="module")
def baseline(grid, estimator):
    service = GeoBrowsingService(estimator, grid)
    try:
        return service.browse(TileQuery(0, grid.n1, 0, grid.n2), 90, 120, "overlap")
    finally:
        service.close()


def process_config(**overrides):
    overrides.setdefault("mode", "process")
    overrides.setdefault("max_workers", 2)
    overrides.setdefault("start_method", "fork")
    return ParallelConfig(**overrides)


class TestGeoBrowsingService:
    def test_forced_process_raster_matches_plain(self, grid, estimator, baseline):
        service = GeoBrowsingService(
            estimator, grid, num_shards=4, parallel=process_config()
        )
        try:
            assert service.parallel_executor.mode == "process"
            result = service.browse(
                TileQuery(0, grid.n1, 0, grid.n2), 90, 120, "overlap"
            )
            np.testing.assert_array_equal(result.counts, baseline.counts)
        finally:
            service.close()

    def test_auto_policy_routes_large_rasters_to_processes(
        self, grid, estimator, baseline
    ):
        service = GeoBrowsingService(
            estimator,
            grid,
            num_shards=4,
            parallel=process_config(mode="auto", process_threshold=1024),
        )
        try:
            pool = service.parallel_executor.process_pool
            assert pool is not None
            # Auto never blocks on startup: it polls with a zero-timeout
            # ensure_ready on each routing.  Wait the same way here (no
            # blocking ensure_ready) so this test exercises the exact
            # path that decides whether a raster reaches the processes.
            deadline = time.monotonic() + 20.0
            while pool.ensure_ready(0.0) == 0:
                assert time.monotonic() < deadline, "auto-mode poll never saw readiness"
                time.sleep(0.01)
            result = service.browse(
                TileQuery(0, grid.n1, 0, grid.n2), 90, 120, "overlap"
            )
            np.testing.assert_array_equal(result.counts, baseline.counts)
            assert pool.ready_count() > 0
        finally:
            service.close()

    def test_auto_with_unexportable_estimator_stays_on_threads(self, grid, dataset):
        # MaintainedEulerHistogram summaries are mutable and refuse
        # shared-memory export; auto mode must quietly keep threads.
        maintained = SEulerApprox(MaintainedEulerHistogram(grid, dataset))
        service = GeoBrowsingService(
            maintained, grid, num_shards=4, parallel="auto"
        )
        try:
            assert service.parallel_executor.process_pool is None
            result = service.browse(TileQuery(0, grid.n1, 0, grid.n2), 30, 40)
            assert result.counts.shape == (30, 40)
        finally:
            service.close()

    def test_forced_process_with_unexportable_estimator_raises(self, grid, dataset):
        maintained = SEulerApprox(MaintainedEulerHistogram(grid, dataset))
        with pytest.raises(ValueError, match="process"):
            GeoBrowsingService(
                maintained, grid, num_shards=4, parallel=process_config()
            )

    def test_worker_gauge_tracks_pool(self, grid, estimator):
        obs = BrowseInstrumentation()
        service = GeoBrowsingService(
            estimator,
            grid,
            num_shards=4,
            parallel=process_config(),
            instruments=obs,
        )
        try:
            assert obs.shard_pool_workers.labels(service="plain").value == 2
        finally:
            service.close()
        assert obs.shard_pool_workers.labels(service="plain").value == 0

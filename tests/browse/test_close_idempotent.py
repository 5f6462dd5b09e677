"""Service shutdown hardening: ``close()`` is idempotent and race-safe.

The gateway closes services from the event loop while executor threads
may still be inside ``browse()``, and a crashing request handler may
close a service the catalog later closes again.  Neither may raise.
"""

import threading

import numpy as np
import pytest

from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import GeoBrowsingService
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 12.0, 0.0, 8.0), 12, 8)
REGION = TileQuery(0, 12, 0, 8)


@pytest.fixture(scope="module")
def estimator():
    data = random_dataset(np.random.default_rng(21), GRID, 200)
    return SEulerApprox(EulerHistogram.from_dataset(data, GRID))


def test_double_close_without_pools(estimator):
    service = ResilientBrowsingService([estimator], GRID)
    assert not service.closed
    service.close()
    assert service.closed
    service.close()  # second close is a no-op, not an error
    assert service.closed


def test_double_close_with_shard_pool(estimator):
    service = GeoBrowsingService(estimator, GRID, num_shards=3)
    service.browse(REGION, 4, 4)
    service.close()
    service.close()
    assert service.closed


def test_concurrent_closes_race_safely(estimator):
    service = GeoBrowsingService(estimator, GRID, num_shards=2)
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def closer():
        try:
            barrier.wait()
            service.close()
        except BaseException as exc:  # noqa: BLE001 - the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert service.closed


def test_closes_racing_inflight_browses(estimator):
    """Gateway shutdown shape: browse() calls in flight on executor
    threads while close() runs concurrently (single-shard fast path, so
    the raster work itself never depends on the closed pool)."""
    service = ResilientBrowsingService([estimator], GRID)
    reference = service.browse(REGION, 4, 4).counts
    errors: list[BaseException] = []
    barrier = threading.Barrier(6)

    def browser():
        try:
            barrier.wait()
            for _ in range(10):
                result = service.browse(REGION, 4, 4)
                if not np.array_equal(result.counts, reference):
                    raise AssertionError("raster diverged during shutdown race")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def closer():
        try:
            barrier.wait()
            service.close()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=browser) for _ in range(4)] + [
        threading.Thread(target=closer) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    assert service.closed

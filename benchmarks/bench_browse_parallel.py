"""Parallel raster sweep: inline vs thread vs process, plain vs resilient.

Times one full-grid browse raster over an Euler-family summary for every
point of the sweep

- raster size: 45x90, 90x180, 180x360 tiles;
- estimator: S-EulerApprox, EulerApprox (left), M-EulerApprox (m=3);
- configuration:

  - ``plain_inline`` -- :class:`~repro.browse.service.GeoBrowsingService`,
    one batch;
  - ``plain_thread`` -- the same with ``num_shards`` row bands on the
    thread :class:`~repro.browse.sharding.ShardPool`;
  - ``plain_process`` -- the same on a fork-started
    :class:`~repro.parallel.pool.ProcessShardPool` over shared-memory
    summaries;
  - ``resilient_inline`` --
    :class:`~repro.browse.resilience.ResilientBrowsingService` with the
    default ``chunk_rows`` and one shard (chunks run one after another);
  - ``resilient_thread`` -- the same with ``num_shards`` chunks per
    thread wave.

Every configuration's raster is asserted bit-identical to
``plain_inline`` before any timing is believed.  The timing rounds
interleave the configurations, so drift on the host hits them all
equally; each point reports the median and quartiles of the rounds.
Both pools size themselves to the CPUs the process may run on
(:func:`~repro.workers.usable_cpu_count`), which the JSON records with
the host.  The script also checks that no shared-memory segment
outlives the run.

Results go to ``BENCH_browse_parallel.json`` at the repository root.
Run directly::

    PYTHONPATH=src python benchmarks/bench_browse_parallel.py          # full
    PYTHONPATH=src python benchmarks/bench_browse_parallel.py --quick  # CI smoke

``--quick`` is a parity-only smoke run on a small summary.  The >= 3x
process-over-inline floor at 180x360 is gated only when at least 4 CPUs
are usable; smaller hosts record the gate as skipped rather than
publishing a vacuous pass.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.browse.resilience import ResilientBrowsingService
from repro.browse.service import GeoBrowsingService
from repro.experiments.config import ExperimentConfig, Workbench
from repro.grid.tiles_math import TileQuery
from repro.parallel.executor import ParallelConfig
from repro.workers import usable_cpu_count

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_browse_parallel.json"

#: Requested fan-out of the sharded configurations (pools cap it at the
#: usable CPU count) and the CPU count below which the gate is skipped.
WORKERS = 4

#: Minimum process-vs-inline speedup at the largest raster, gated on
#: hosts with >= ``WORKERS`` usable CPUs.
SPEEDUP_FLOOR = 3.0

RASTERS = ((45, 90), (90, 180), (180, 360))
CONFIGS = (
    "plain_inline",
    "plain_thread",
    "plain_process",
    "resilient_inline",
    "resilient_thread",
)


def _shm_segments() -> set[str]:
    # repro-sum-*: the summary store's named segments; psm_*: the pool's
    # anonymous query/result buffers.
    return set(glob.glob("/dev/shm/repro-sum*")) | set(glob.glob("/dev/shm/psm_*"))


def _services(estimator, grid) -> dict:
    return {
        "plain_inline": GeoBrowsingService(estimator, grid),
        "plain_thread": GeoBrowsingService(estimator, grid, num_shards=WORKERS),
        "plain_process": GeoBrowsingService(
            estimator,
            grid,
            num_shards=WORKERS,
            parallel=ParallelConfig(mode="process", start_method="fork"),
        ),
        "resilient_inline": ResilientBrowsingService(estimator, grid),
        "resilient_thread": ResilientBrowsingService(estimator, grid, num_shards=WORKERS),
    }


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(median * 1000, 3), "q1": round(q1 * 1000, 3), "q3": round(q3 * 1000, 3)}


def run_estimator(label: str, estimator, grid, *, rasters, rounds: int) -> list[dict]:
    """Check parity, then time every configuration at every raster size."""
    region = TileQuery(0, grid.n1, 0, grid.n2)
    services = _services(estimator, grid)
    entries = []
    try:
        pool = services["plain_process"].parallel_executor.process_pool
        startup = time.perf_counter()
        if pool.ensure_ready(60.0) < 1:
            raise AssertionError("no process worker became ready")
        startup_s = time.perf_counter() - startup
        for rows, cols in rasters:
            reference = services["plain_inline"].browse(region, rows, cols).counts
            for name, service in services.items():
                raster = service.browse(region, rows, cols).counts
                if not np.array_equal(raster, reference):
                    raise AssertionError(
                        f"{name} raster diverged from plain_inline: {label} {rows}x{cols}"
                    )
            samples = {name: [] for name in services}
            for _ in range(rounds):
                for name, service in services.items():
                    start = time.perf_counter()
                    service.browse(region, rows, cols)
                    samples[name].append(time.perf_counter() - start)
            ms = {name: _quartiles(s) for name, s in samples.items()}
            entry = {
                "estimator": label,
                "raster": f"{rows}x{cols}",
                "tiles": rows * cols,
                "parity": "bit-identical",
                "ms": ms,
                "speedup_vs_plain_inline": {
                    name: round(ms["plain_inline"]["median"] / ms[name]["median"], 2)
                    for name in CONFIGS
                },
            }
            entries.append(entry)
            print(
                f"{label:>8} {rows:>3}x{cols:<3} "
                + "  ".join(f"{name} {ms[name]['median']:8.2f}" for name in CONFIGS)
                + " ms"
            )
        for entry in entries:
            entry["process_workers"] = pool.workers
            entry["pool_startup_seconds"] = round(startup_s, 6)
            entry["worker_crashes"] = pool.crashes
    finally:
        for service in services.values():
            service.close()
    return entries


def run(*, dataset: str, scale: float | None, rasters, rounds: int) -> dict:
    """Run the sweep and return the result document."""
    config = ExperimentConfig() if scale is None else ExperimentConfig(scale=scale)
    workbench = Workbench(config)
    estimators = {
        "S-Euler": workbench.s_euler(dataset),
        "Euler": workbench.euler(dataset),
        "M-Euler": workbench.multi_euler(dataset, 3),
    }
    usable = usable_cpu_count()
    before = _shm_segments()
    points = []
    for label, estimator in estimators.items():
        points.extend(
            run_estimator(label, estimator, workbench.grid, rasters=rasters, rounds=rounds)
        )
    leaked = sorted(_shm_segments() - before)
    if leaked:
        raise AssertionError(f"shared-memory segments leaked: {leaked}")
    return {
        "benchmark": "bench_browse_parallel",
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable,
        },
        "dataset": dataset,
        "num_objects": len(workbench.dataset(dataset)),
        "grid": f"{workbench.grid.n1}x{workbench.grid.n2}",
        "requested_shards": WORKERS,
        "workers": min(WORKERS, usable),
        "start_method": "fork",
        "rounds": rounds,
        "units": "ms per raster (median and quartiles of the rounds)",
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_gate": (
            "enforced" if usable >= WORKERS else f"skipped (usable_cpus={usable})"
        ),
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: reduced scale and rasters, parity only",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    if args.quick:
        document = run(dataset="adl", scale=0.02, rasters=((18, 36), (60, 120)), rounds=1)
        document["speedup_gate"] = "skipped (quick mode)"
    else:
        document = run(dataset="adl", scale=None, rasters=RASTERS, rounds=9)

    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    # Parity raised inside run_estimator if violated; the speedup floor
    # is only meaningful where the hardware can express it.
    if document["speedup_gate"] == "enforced":
        largest = f"{RASTERS[-1][0]}x{RASTERS[-1][1]}"
        slow = [
            point["estimator"]
            for point in document["points"]
            if point["raster"] == largest
            and point["speedup_vs_plain_inline"]["plain_process"] < SPEEDUP_FLOOR
        ]
        if slow:
            print(f"FAIL: process speedup below the {SPEEDUP_FLOOR:g}x floor on {', '.join(slow)}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

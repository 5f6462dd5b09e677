"""Streamed out-of-core construction benchmark.

Builds one Euler histogram from a synthetic stream four ways:

- ``direct`` -- ``EulerHistogram.from_dataset`` over the materialised
  stream;
- ``streamed_inline`` -- ``build_zoned`` in this process: one builder
  fed chunk by chunk;
- ``streamed_pool`` -- ``build_zoned`` on fork-started worker
  processes: one builder per worker plus this process's, merged at the
  end;
- ``zone_summaries_inline`` -- ``build_zoned(keep_zone_summaries=True)``:
  zone routing, the budgeted zone accumulator, its spills and the
  per-zone merge, under a budget below what every zone's builder needs,
  so the spill path keeps a number.

It gates three claims:

1. **bit-parity** (always): every streamed build must be bit-identical
   to the direct build of the same stream;
2. **memory** (always): every build's live builders must stay within
   its ``--memory-mb`` budget, and a streamed build must hold exactly
   one builder per participant and never spill;
3. **throughput** (cpu-gated): the streamed pool build must reach >= 3x
   the direct build's objects/second at the 10M-object scale.  A host
   with fewer than 4 usable CPUs (:func:`~repro.workers.usable_cpu_count`)
   cannot demonstrate that, so it records the gate as skipped in the
   JSON rather than publishing a vacuous pass.

Results go to ``BENCH_construction_zoned.json`` at the repository root.
Run directly::

    PYTHONPATH=src python benchmarks/bench_construction_zoned.py          # full, 10M objects
    PYTHONPATH=src python benchmarks/bench_construction_zoned.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.euler.histogram import EulerHistogram
from repro.grid.grid import Grid
from repro.ingest import SyntheticChunkSource, build_zoned
from repro.workers import usable_cpu_count

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_construction_zoned.json"

#: Worker count for the pool configuration and the speedup gate.
WORKERS = 4

#: Minimum pool-vs-direct throughput ratio gated on >= 4 usable CPUs.
SPEEDUP_FLOOR = 3.0

#: Budget of the zone-summary build: half of what 64 whole-lattice zone
#: builders need on 360x180, so zones spill and merge.
SUMMARY_MEMORY_MB = 64


def run_stream(
    name: str,
    num_objects: int,
    *,
    chunk_size: int,
    zones: int,
    memory_mb: int,
    cells: tuple[int, int],
    workers: int,
) -> dict:
    """Build one stream four ways; assert parity and the memory budget."""
    source = SyntheticChunkSource(name, num_objects, chunk_size, seed=29)
    grid = Grid(source.extent, cells[0], cells[1])
    shape = grid.lattice_shape
    builder_nbytes = (shape[0] + 1) * (shape[1] + 1) * 8

    start = time.perf_counter()
    materialized = source.materialize()
    materialize_s = time.perf_counter() - start
    start = time.perf_counter()
    direct = EulerHistogram.from_dataset(materialized, grid)
    direct_s = time.perf_counter() - start
    direct_ops = num_objects / direct_s if direct_s > 0 else 0.0
    del materialized

    configs = {
        "streamed_inline": dict(workers=0, memory_mb=memory_mb),
        "streamed_pool": dict(workers=workers, start_method="fork", memory_mb=memory_mb),
        "zone_summaries_inline": dict(
            keep_zone_summaries=True, zones=zones, memory_mb=SUMMARY_MEMORY_MB
        ),
    }
    entries = {}
    for label, kwargs in configs.items():
        result = build_zoned(source, grid, **kwargs)
        report = result.report
        if not np.array_equal(result.histogram.buckets(), direct.buckets()):
            raise AssertionError(f"{label} diverged from the direct build on {name}")
        if report.peak_accumulator_bytes > report.budget_bytes:
            raise AssertionError(
                f"{label} exceeded its builder budget on {name}: "
                f"{report.peak_accumulator_bytes} > {report.budget_bytes} B"
            )
        if not kwargs.get("keep_zone_summaries"):
            participants = report.workers + 1
            if report.spills or report.peak_accumulator_bytes != participants * builder_nbytes:
                raise AssertionError(
                    f"{label} held {report.peak_accumulator_bytes} B and spilled "
                    f"{report.spills} times on {name}; expected one "
                    f"{builder_nbytes} B builder for each of {participants} "
                    "participants and no spills"
                )
        entries[label] = {
            "seconds": round(report.elapsed_seconds, 6),
            "objects_per_second": round(report.objects_per_second),
            "speedup_vs_direct": round(report.objects_per_second / direct_ops, 2)
            if direct_ops
            else None,
            "workers": report.workers,
            "zones": report.zones,
            "chunks": report.chunks,
            "spills": report.spills,
            "crashes": report.crashes,
            "peak_accumulator_bytes": report.peak_accumulator_bytes,
            "budget_bytes": report.budget_bytes,
        }

    entry = {
        "dataset": name,
        "objects": num_objects,
        "grid": f"{cells[0]}x{cells[1]}",
        "chunk_size": chunk_size,
        "builder_bytes": builder_nbytes,
        "materialize_seconds": round(materialize_s, 6),
        "direct_seconds": round(direct_s, 6),
        "direct_objects_per_second": round(direct_ops),
        "builds": entries,
        "parity": "bit-identical",
        "memory_budget": "respected",
    }
    print(
        f"{name:>8} {num_objects:>12,} objects: direct {direct_ops:>12,.0f} obj/s  "
        + "  ".join(
            f"{label} {e['objects_per_second']:>12,.0f} obj/s "
            f"({e['speedup_vs_direct']}x, {e['spills']} spills)"
            for label, e in entries.items()
        )
    )
    return entry


def run(*, quick: bool) -> dict:
    """Run the benchmark and return the result document."""
    usable = usable_cpu_count()
    if quick:
        streams = [
            run_stream(
                "sp_skew",
                200_000,
                chunk_size=50_000,
                zones=64,
                memory_mb=64,
                cells=(360, 180),
                workers=2,
            )
        ]
    else:
        streams = [
            run_stream(
                name,
                10_000_000,
                chunk_size=250_000,
                zones=64,
                memory_mb=256,
                cells=(360, 180),
                workers=WORKERS,
            )
            for name in ("sp_skew", "sz_skew")
        ]
    return {
        "benchmark": "bench_construction_zoned",
        "mode": "quick" if quick else "full",
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable,
        },
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_gate": (
            "skipped (quick mode)"
            if quick
            else "enforced"
            if usable >= WORKERS
            else f"skipped (usable_cpus={usable})"
        ),
        "streams": streams,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 200k objects, parity and memory gates only",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    document = run(quick=args.quick)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")

    # Parity and the memory budget raised inside run_stream if violated;
    # the speedup floor is only meaningful where the hardware can
    # express it.
    if document["speedup_gate"] == "enforced":
        slow = [
            entry
            for entry in document["streams"]
            if (entry["builds"]["streamed_pool"]["speedup_vs_direct"] or 0.0) < SPEEDUP_FLOOR
        ]
        if slow:
            print(
                f"FAIL: streamed pool throughput below the {SPEEDUP_FLOOR:g}x "
                "floor on " + ", ".join(entry["dataset"] for entry in slow)
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The ``zoned-build`` workload, run as a fresh child process per run.

``build_zoned`` (inline, 64 zones, its defaults) streams a ``.npy``
object file through a memory budget below what 64 whole-lattice zone
builders need, so zones spill and merge.  Three small builds of one
chunk follow each full build: their latency is the workload's small
operation.

Run by ``run.py``; argv[1] is a JSON object of arguments.  Prints one
JSON result line last.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Span, Tracer, child_phase_done, median, percentile, tails  # noqa: E402

from repro.datasets import by_name  # noqa: E402
from repro.datasets.base import RectDataset  # noqa: E402
from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder  # noqa: E402
from repro.grid.grid import Grid  # noqa: E402
from repro.ingest import NpyChunkSource, ZoneAccumulator, ZoneMap, build_zoned  # noqa: E402
from repro.ingest.accumulator import load_zone_partial  # noqa: E402
from repro.ingest.pipeline import DEFAULT_CHUNK_SIZE  # noqa: E402
from repro.ingest.worker import snap_columns  # noqa: E402

OBJECTS = 2_000_000
SMALL_OBJECTS = DEFAULT_CHUNK_SIZE
#: Small builds per full build.  Each takes ~0.25 s against ~2.7 s for a
#: full build; with one per full build a run held 7 of them, and their
#: 75th percentile spread 17% of its median over five seeds.
SMALL_PER_FULL = 3
DATASET = "sp_skew"
GRID_CELLS = (360, 180)
ZONES = 64
#: 64 whole-lattice zone builders on 360x180 need ~127 MiB; half of
#: that forces spills.
MEMORY_MB = 64
SETUP_REPEATS = 9

SPAN_PARENTS = {
    "read": "build",
    "snap": "build",
    "route": "build",
    "add": "build",
    "merge": "build",
}


def make_inputs(workdir: str, seed: int) -> dict:
    """Write the full and small ``.npy`` streams; return their paths."""
    data = by_name(DATASET, OBJECTS, seed=seed)
    columns = np.column_stack([data.x_lo, data.x_hi, data.y_lo, data.y_hi])
    paths = {"stream": os.path.join(workdir, "stream.npy"), "small": os.path.join(workdir, "small.npy")}
    np.save(paths["stream"], columns)
    np.save(paths["small"], columns[:SMALL_OBJECTS])
    return paths


def direct_build(path: str, grid: Grid) -> tuple[EulerHistogram, float]:
    """``EulerHistogram.from_dataset`` over the whole stream at once."""
    columns = np.load(path)
    dataset = RectDataset(columns[:, 0], columns[:, 1], columns[:, 2], columns[:, 3], grid.extent)
    start = time.perf_counter()
    histogram = EulerHistogram.from_dataset(dataset, grid)
    return histogram, time.perf_counter() - start


def traced_build(source: NpyChunkSource, grid: Grid, spill_dir: str, tracer: Tracer | None):
    """The inline pipeline's steps, through the same public functions
    ``build_zoned`` calls, with a span around each."""
    rid = 0
    with Span(tracer, rid, "build"):
        zone_map = ZoneMap.for_grid(grid, ZONES)
        acc = ZoneAccumulator(grid, MEMORY_MB << 20, spill_dir, label="trace")
        chunks = iter(source)
        while True:
            with Span(tracer, rid, "read"):
                item = next(chunks, None)
            if item is None:
                break
            chunk = item[1]
            with Span(tracer, rid, "snap"):
                a_lo, a_hi, b_lo, b_hi = snap_columns(grid, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi)
            with Span(tracer, rid, "route"):
                zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
            with Span(tracer, rid, "add"):
                acc.add_spans(zones, a_lo, a_hi, b_lo, b_hi)
        with Span(tracer, rid, "merge"):
            partials = acc.finish()
            partials.extend(load_zone_partial(p, grid) for p in acc.spill_paths)
            builder = EulerHistogramBuilder(grid)
            for partial in sorted(partials, key=lambda p: p.zone):
                builder.add_partial(partial.a_lo, partial.b_lo, partial.patch, partial.num_objects)
            histogram = builder.build()
    for path in acc.spill_paths:
        os.unlink(path)
    return histogram, acc


def main() -> int:
    args = json.loads(sys.argv[1])
    seconds, trace, spill_dir = args["seconds"], args["trace"], args["spill_dir"]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        source = NpyChunkSource(args["stream"], DEFAULT_CHUNK_SIZE)
        setups.append(time.perf_counter() - start)
    small_source = NpyChunkSource(args["small"], DEFAULT_CHUNK_SIZE)
    grid = Grid(source.extent, *GRID_CELLS)

    # One unmeasured build of each kind: the first full build of a
    # process ran up to 20% slower than the ones after it.
    for src in (source, small_source):
        build_zoned(src, grid, zones=ZONES, memory_mb=MEMORY_MB, spill_dir=spill_dir)

    builds, small_builds, reports = [], [], []
    failed = attempted = 0
    last = small = None
    cpu_start = time.process_time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for src, times in [(source, builds)] + [(small_source, small_builds)] * SMALL_PER_FULL:
            attempted += 1
            start = time.perf_counter()
            try:
                result = build_zoned(src, grid, zones=ZONES, memory_mb=MEMORY_MB, spill_dir=spill_dir)
            except Exception as exc:  # a failed build counts, the run goes on
                print(f"build failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            times.append(time.perf_counter() - start)
            if src is source:
                last = result
                reports.append(result.report.to_dict())
            else:
                small = result
    cpu_s = time.process_time() - cpu_start
    child_phase_done()

    # ---- correctness: zoned buckets == direct build of the stream ---- #
    direct, direct_s = direct_build(args["stream"], grid)
    direct_small, _ = direct_build(args["small"], grid)
    correct = (
        last is not None
        and small is not None
        and np.array_equal(last.histogram.buckets(), direct.buckets())
        and np.array_equal(small.histogram.buckets(), direct_small.buckets())
    )
    objects_built = sum(r["objects"] for r in reports)
    build_wall = sum(builds)
    out = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "ok_frac": 1.0 - failed / attempted,
            "full_answer_frac": (last.histogram.num_objects / source.num_objects) if last else 0.0,
            "op_p50_ms": median(builds) * 1e3,
            "small_op_p75_ms": percentile(small_builds, 75) * 1e3,
            "ops_per_s": (len(builds) + len(small_builds)) / (build_wall + sum(small_builds)),
            "items_per_s": objects_built / build_wall,
        },
        "details": {
            "dataset": f"{DATASET} x {OBJECTS} as .npy",
            "small_objects": SMALL_OBJECTS,
            "grid": f"{GRID_CELLS[0]}x{GRID_CELLS[1]}",
            "zones": ZONES,
            "memory_mb": MEMORY_MB,
            "workers": 0,
            "chunk_size": DEFAULT_CHUNK_SIZE,
            "setup_samples_s": setups,
            "build_samples_s": builds,
            "small_build_samples_s": small_builds,
            "tails_ms": tails([b * 1e3 for b in builds], [b * 1e3 for b in small_builds]),
            "spills_per_build": [r["spills"] for r in reports],
            "direct_build_s": direct_s,
            "cpu_ms_per_op": cpu_s * 1e3 / attempted,
        },
    }
    if trace:
        tracer = Tracer(SPAN_PARENTS, "build")
        histogram, acc = traced_build(source, grid, spill_dir, tracer)
        if not np.array_equal(histogram.buckets(), direct.buckets()):
            out["correct"] = False
        sums = tracer.layer_sums()
        reconcile = tracer.reconcile()

        def self_ms(name: str) -> float:
            return sums.get(name, (0.0, 0.0))[1] * 1e3

        untraced = median(builds)
        out["layers"] = {
            "ingest.chunks.read_ms": self_ms("read"),
            "ingest.worker.snap_ms": self_ms("snap"),
            "ingest.zones.route_ms": self_ms("route"),
            "ingest.accumulator.add_ms": self_ms("add"),
            "ingest.accumulator.spills": acc.spills,
            "ingest.accumulator.peak_bytes": acc.peak_bytes,
            "ingest.pipeline.merge_ms": self_ms("merge"),
            "euler.histogram.direct_build_ms": direct_s * 1e3,
            "bench.trace.overhead_frac": (sums["build"][0] - untraced) / untraced,
            "bench.trace.unattributed_frac": reconcile["worst_gap_frac"],
        }
        out["details"]["trace"] = {"reconcile": reconcile, "traced_build_s": sums["build"][0]}
        out["correct"] = out["correct"] and reconcile["violations"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

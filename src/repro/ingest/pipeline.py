"""The streamed out-of-core construction pipeline.

:func:`build_zoned` streams a chunk source through bounded memory into
an :class:`~repro.euler.histogram.EulerHistogram` that is bit-identical
to a direct ``add_dataset`` build of the same stream.  The paper's
histogram is one fixed lattice-sized bucket array, so a plain build
needs one lattice-sized builder per participant and nothing more:

1. chunks are dealt round-robin to a :class:`~repro.ingest.pool.ZoneBuildPool`
   of worker processes (or added inline when ``workers <= 1`` or no
   worker comes up);
2. each participant -- this process and every worker -- snaps its
   chunks to lattice spans and adds them into its one
   :class:`~repro.euler.histogram.EulerHistogramBuilder`;
3. chunks lost to worker crashes are re-read from the (replayable)
   source and added inline -- the build completes bit-identically no
   matter how many workers died;
4. the workers' builders are merged into this process's builder.

Zones exist only for per-zone summaries (``keep_zone_summaries=True``,
the scatter-gather serving path): that build routes every span to a
zone of a :class:`~repro.ingest.zones.ZoneMap`, scatters it into a
budgeted :class:`~repro.ingest.accumulator.ZoneAccumulator` that spills
cold zones to checksummed disk partials, and merges the partials zone
by zone.

Bit-parity is structural, not statistical: snapping is deterministic,
difference-domain accumulation is int64-exact and order-independent, and
zone routing only decides *which* accumulator a span lands in, so any
partitioning of the stream across zones, workers and spills merges to
the same histogram.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.euler.histogram import EulerHistogram, EulerHistogramBuilder
from repro.grid.grid import Grid
from repro.ingest.accumulator import ZoneAccumulator, ZonePartial, load_zone_partial
from repro.ingest.chunks import ChunkSource
from repro.ingest.pool import ZoneBuildPool
from repro.ingest.worker import add_columns, snap_columns
from repro.ingest.zones import CURVES, ZoneMap
from repro.obs.instruments import IngestInstrumentation

__all__ = ["IngestReport", "ZonedBuildResult", "build_zoned"]

#: Default chunk size: large enough to amortise per-chunk overhead,
#: small enough that a chunk's columns stay a few MB.
DEFAULT_CHUNK_SIZE = 250_000


@dataclass(frozen=True)
class IngestReport:
    """What one streamed build did, for metrics, benchmarks and the CLI.

    ``zones`` and ``curve`` describe the zone map of a zone-summary
    build; a plain build uses none and reports ``0`` and ``None``.
    """

    source: str
    objects: int
    chunks: int
    chunks_pool: int
    chunks_inline: int
    chunks_replayed: int
    zones: int
    curve: str | None
    chunk_size: int
    workers: int
    crashes: int
    spills: int
    peak_accumulator_bytes: int
    budget_bytes: int
    elapsed_seconds: float
    objects_per_second: float

    def to_dict(self) -> dict[str, object]:
        """JSON-ready view (benchmark documents embed this)."""
        return {
            "source": self.source,
            "objects": self.objects,
            "chunks": self.chunks,
            "chunks_pool": self.chunks_pool,
            "chunks_inline": self.chunks_inline,
            "chunks_replayed": self.chunks_replayed,
            "zones": self.zones,
            "curve": self.curve,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "crashes": self.crashes,
            "spills": self.spills,
            "peak_accumulator_bytes": self.peak_accumulator_bytes,
            "budget_bytes": self.budget_bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "objects_per_second": self.objects_per_second,
        }


@dataclass
class ZonedBuildResult:
    """A streamed build's outputs.

    ``zone_map`` and ``zone_histograms`` are populated only when the
    build was asked to keep per-zone summaries (the scatter-gather
    serving path); ``zone_histograms`` maps zone index to that zone's
    own :class:`EulerHistogram` (zones that received no objects are
    omitted).
    """

    histogram: EulerHistogram
    zone_map: ZoneMap | None
    report: IngestReport
    zone_histograms: dict[int, EulerHistogram] | None = field(default=None)


def _build_zone_summaries(
    source: ChunkSource,
    zone_map: ZoneMap,
    budget_bytes: int,
    spill_dir: str | os.PathLike | None,
) -> tuple[EulerHistogramBuilder, dict[int, EulerHistogram], int, ZoneAccumulator]:
    """Route every chunk's spans to zones through a budgeted, spilling
    accumulator; merge the partials zone by zone.  Returns the global
    builder, the per-zone histograms, the chunk count and the
    accumulator (for its spill and peak figures)."""
    grid = zone_map.grid
    own_spill_dir = spill_dir is None
    spill_root = (
        tempfile.mkdtemp(prefix="repro-ingest-") if own_spill_dir else os.fspath(spill_dir)
    )
    accumulator = ZoneAccumulator(grid, budget_bytes, spill_root, label=f"{source.name}-inline")
    chunks = 0
    try:
        for _, chunk in source:
            if len(chunk) == 0:
                continue
            a_lo, a_hi, b_lo, b_hi = snap_columns(
                grid, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi
            )
            zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
            accumulator.add_spans(zones, a_lo, a_hi, b_lo, b_hi)
            chunks += 1

        by_zone: dict[int, list[ZonePartial]] = {}
        for partial in accumulator.finish():
            by_zone.setdefault(partial.zone, []).append(partial)
        for path in accumulator.spill_paths:
            partial = load_zone_partial(path, grid)
            by_zone.setdefault(partial.zone, []).append(partial)

        global_builder = EulerHistogramBuilder(grid)
        zone_histograms: dict[int, EulerHistogram] = {}
        for zone in sorted(by_zone):
            zone_builder = EulerHistogramBuilder(grid)
            for partial in by_zone[zone]:
                zone_builder.add_partial(
                    partial.a_lo, partial.b_lo, partial.patch, partial.num_objects
                )
            zone_histograms[zone] = zone_builder.build()
            global_builder.merge(zone_builder)
    finally:
        if own_spill_dir:
            shutil.rmtree(spill_root, ignore_errors=True)
        else:
            for path in accumulator.spill_paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
    return global_builder, zone_histograms, chunks, accumulator


def build_zoned(
    source: ChunkSource,
    grid: Grid,
    *,
    zones: int = 64,
    curve: str = "morton",
    memory_mb: int = 256,
    workers: int = 0,
    start_method: str = "spawn",
    spill_dir: str | os.PathLike | None = None,
    keep_zone_summaries: bool = False,
    dispatch_timeout: float = 60.0,
    instruments: IngestInstrumentation | None = None,
) -> ZonedBuildResult:
    """Stream ``source`` into an Euler histogram over ``grid`` through
    bounded memory (see module docstring).

    Parameters
    ----------
    source:
        A replayable chunk source; its ``chunk_size`` sets the streaming
        granularity.  Replayability (``reread``) is exercised only when
        a worker crashes.
    zones, curve:
        Zone count and space-filling curve of the :class:`ZoneMap`.
        Always validated; used only by a ``keep_zone_summaries`` build.
    memory_mb:
        Global builder budget, charged for every live lattice-sized
        builder.  A plain build holds one builder per participant, so
        the worker count is clamped to ``budget // builder_nbytes - 1``
        (this process keeps one builder too).
    workers:
        Worker processes; ``0`` or ``1`` builds inline in this process.
    spill_dir:
        Where a zone-summary build's partials spill.  Defaults to a
        temporary directory removed when the build finishes; a
        caller-provided directory is left in place (only the build's own
        files are deleted).  A plain build never spills.
    keep_zone_summaries:
        Also build one histogram per non-empty zone, for scatter-gather
        serving (:class:`repro.browse.catalog.ZoneScatterGatherSummary`).
        Such a build always runs inline, whatever ``workers`` says; no
        caller combines the two.
    instruments:
        Optional :class:`~repro.obs.instruments.IngestInstrumentation`
        to record the ``repro_ingest_*`` families into.
    """
    if memory_mb < 1:
        raise ValueError(f"memory_mb must be positive, got {memory_mb}")
    if zones < 1:
        raise ValueError(f"num_zones must be positive, got {zones}")
    if curve not in CURVES:
        raise ValueError(f"curve must be one of {CURVES}, got {curve!r}")
    budget_bytes = int(memory_mb) * (1 << 20)
    shape = grid.lattice_shape
    builder_nbytes = (shape[0] + 1) * (shape[1] + 1) * 8
    if budget_bytes < builder_nbytes:
        raise ValueError(
            f"--memory-mb {memory_mb} cannot hold even one histogram builder "
            f"({builder_nbytes} B for a {shape[0]}x{shape[1]} lattice)"
        )

    started = time.monotonic()
    chunks_pool = chunks_inline = chunks_replayed = 0
    crashes = spills = 0
    zone_map: ZoneMap | None = None
    zone_histograms: dict[int, EulerHistogram] | None = None
    num_workers = 0

    if keep_zone_summaries:
        zone_map = ZoneMap.for_grid(grid, zones, curve)
        builder, zone_histograms, chunks_inline, accumulator = _build_zone_summaries(
            source, zone_map, budget_bytes, spill_dir
        )
        spills = accumulator.spills
        peak_bytes = accumulator.peak_bytes
    else:
        # Every worker and this process hold one builder each.
        num_workers = min(int(workers), budget_bytes // builder_nbytes - 1)
        builder = EulerHistogramBuilder(grid)
        pool: ZoneBuildPool | None = None
        if num_workers > 1:
            pool = ZoneBuildPool(
                grid,
                workers=num_workers,
                start_method=start_method,
                dispatch_timeout=dispatch_timeout,
                label=source.name,
            )
            if pool.ensure_ready() == 0:
                # No worker came up: degrade to inline construction.
                pool.close()
                pool = None
        if pool is None:
            num_workers = 0
        peak_bytes = builder_nbytes * (num_workers + 1)

        result = None
        try:
            for index, chunk in source:
                if len(chunk) == 0:
                    continue
                if pool is not None and pool.dispatch(index, chunk):
                    chunks_pool += 1
                else:
                    add_columns(builder, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi)
                    chunks_inline += 1
            if pool is not None:
                result = pool.drain()
        finally:
            if pool is not None:
                pool.close()
        if result is not None:
            for patch, num_objects in result.partials:
                builder.add_partial(0, 0, patch, num_objects)
            crashes = result.crashes
            # A lost chunk was dispatched, but its pool-side work died
            # with the worker -- count it once, under replay.
            lost = sorted(set(result.lost_chunks))
            chunks_pool -= len(lost)
            for index in lost:
                chunk = source.reread(index)
                add_columns(builder, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi)
                chunks_replayed += 1
    histogram = builder.build()

    elapsed = time.monotonic() - started
    report = IngestReport(
        source=source.name,
        objects=histogram.num_objects,
        chunks=chunks_pool + chunks_inline + chunks_replayed,
        chunks_pool=chunks_pool,
        chunks_inline=chunks_inline,
        chunks_replayed=chunks_replayed,
        zones=zone_map.num_zones if zone_map is not None else 0,
        curve=zone_map.curve if zone_map is not None else None,
        chunk_size=source.chunk_size,
        workers=num_workers,
        crashes=crashes,
        spills=spills,
        peak_accumulator_bytes=peak_bytes,
        budget_bytes=budget_bytes,
        elapsed_seconds=elapsed,
        objects_per_second=histogram.num_objects / elapsed if elapsed > 0 else 0.0,
    )
    if instruments is not None:
        obs = instruments
        obs.objects.labels(source=report.source).inc(report.objects)
        obs.chunks.labels(source=report.source, path="pool").inc(report.chunks_pool)
        obs.chunks.labels(source=report.source, path="inline").inc(report.chunks_inline)
        obs.chunks.labels(source=report.source, path="replay").inc(report.chunks_replayed)
        obs.spills.labels(source=report.source).inc(report.spills)
        obs.worker_crashes.labels(source=report.source).inc(report.crashes)
        obs.peak_accumulator_bytes.labels(source=report.source).set(
            report.peak_accumulator_bytes
        )
        obs.objects_per_second.labels(source=report.source).set(report.objects_per_second)
        obs.build_seconds.labels(source=report.source).observe(report.elapsed_seconds)
    return ZonedBuildResult(
        histogram=histogram, zone_map=zone_map, report=report, zone_histograms=zone_histograms
    )

"""``repro.ingest``: streamed out-of-core histogram construction.

Streams arbitrarily large object sets through bounded memory into Euler
histograms bit-identical to an in-memory build: replayable chunk sources
(:mod:`~repro.ingest.chunks`), a crash-tolerant worker pool in which
every participant holds one histogram builder
(:mod:`~repro.ingest.pool`, :mod:`~repro.ingest.worker`) and the
orchestrating :func:`~repro.ingest.pipeline.build_zoned`.  Per-zone
summaries for scatter-gather serving add space-filling-curve zoning
(:mod:`~repro.ingest.zones`) and budgeted spill-to-disk accumulation
(:mod:`~repro.ingest.accumulator`).  See DESIGN.md section 17.
"""

from repro.ingest.accumulator import ZoneAccumulator, ZonePartial, load_zone_partial
from repro.ingest.chunks import (
    ChunkSource,
    DatasetChunkSource,
    NdjsonChunkSource,
    NpyChunkSource,
    SyntheticChunkSource,
    open_chunk_source,
)
from repro.ingest.pipeline import IngestReport, ZonedBuildResult, build_zoned
from repro.ingest.pool import IngestWorkerError, ZoneBuildPool, ZonePoolResult
from repro.ingest.zones import CURVES, ZoneMap, hilbert_keys, morton_keys

__all__ = [
    "CURVES",
    "ChunkSource",
    "DatasetChunkSource",
    "IngestReport",
    "IngestWorkerError",
    "NdjsonChunkSource",
    "NpyChunkSource",
    "SyntheticChunkSource",
    "ZoneAccumulator",
    "ZoneBuildPool",
    "ZoneMap",
    "ZonePartial",
    "ZonePoolResult",
    "ZonedBuildResult",
    "build_zoned",
    "hilbert_keys",
    "load_zone_partial",
    "morton_keys",
    "open_chunk_source",
]

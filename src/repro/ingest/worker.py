"""The zone-build worker: snap, route, accumulate, hand back partials.

Each build worker runs :func:`repro.workers.run_worker` with
:func:`setup`, which constructs a
:class:`~repro.ingest.accumulator.ZoneAccumulator` over the shipped
:class:`~repro.ingest.zones.ZoneMap`'s grid (its spill files are
namespaced by the worker's incarnation label) and registers two
handlers:

- ``("chunk", chunk_index, x_lo, x_hi, y_lo, y_hi)`` -- snap the raw
  world-coordinate columns to lattice spans, route them to zones and
  scatter into the accumulator; reply ``("done", chunk_index, n)``.  A
  failure becomes the supervisor's ``("error", chunk_index, repr)`` -- a
  data or accumulator error is a build-aborting bug, not a crash to
  mask.
- ``("finish",)`` -- export the live zones as in-memory partials and
  reply ``("result", label, partials, spill_paths, stats)``.

The handshake and ``stop`` are the shared supervisor's.  Each worker
owns builders for **every** zone it happens to see: the parent
round-robins raw chunks instead of routing by zone, which keeps the
parent's per-chunk work at one pipe send and parallelises the dominant
snap+scatter cost.  Difference-domain accumulation is exact and
order-independent, so per-zone partials from different workers merge
bit-identically to a single-builder build no matter how chunks were
dealt.

This module must stay importable with no side effects: ``spawn`` workers
re-import it by qualified name.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid
from repro.ingest.accumulator import ZoneAccumulator
from repro.ingest.zones import ZoneMap

__all__ = ["setup", "snap_columns"]


def snap_columns(
    grid: Grid,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Snap raw world-coordinate MBR columns to lattice spans on ``grid``
    (the column counterpart of what ``add_dataset`` does internally)."""
    return snap_rects(
        grid.to_cell_units_x(np.asarray(x_lo, dtype=np.float64)),
        grid.to_cell_units_x(np.asarray(x_hi, dtype=np.float64)),
        grid.to_cell_units_y(np.asarray(y_lo, dtype=np.float64)),
        grid.to_cell_units_y(np.asarray(y_hi, dtype=np.float64)),
        grid.n1,
        grid.n2,
    )


def setup(
    _stack: ExitStack, label: str, zone_map: ZoneMap, budget_bytes: int, spill_dir: str
) -> dict:
    """Build the worker's accumulator and return its handlers."""
    accumulator = ZoneAccumulator(zone_map.grid, budget_bytes, spill_dir, label=label)

    def chunk(chunk_index: int, x_lo, x_hi, y_lo, y_hi) -> tuple:
        a_lo, a_hi, b_lo, b_hi = snap_columns(zone_map.grid, x_lo, x_hi, y_lo, y_hi)
        zones = zone_map.zone_of_spans(a_lo, a_hi, b_lo, b_hi)
        accumulator.add_spans(zones, a_lo, a_hi, b_lo, b_hi)
        return ("done", chunk_index, int(np.asarray(x_lo).size))

    def finish() -> tuple:
        partials = accumulator.finish()
        stats = {
            "objects": accumulator.objects,
            "spills": accumulator.spills,
            "peak_bytes": accumulator.peak_bytes,
        }
        return ("result", label, partials, list(accumulator.spill_paths), stats)

    return {"chunk": chunk, "finish": finish}

"""The streamed-build worker: snap each chunk into one builder.

Each build worker runs :func:`repro.workers.run_worker` with
:func:`setup`, which allocates one
:class:`~repro.euler.histogram.EulerHistogramBuilder` over the shipped
grid and registers two handlers:

- ``("chunk", chunk_index, x_lo, x_hi, y_lo, y_hi)`` -- snap the raw
  world-coordinate columns to lattice spans and add them to the
  builder; reply ``("done", chunk_index, n)``.  A failure becomes the
  supervisor's ``("error", chunk_index, repr)`` -- a data error is a
  build-aborting bug, not a crash to mask.
- ``("finish",)`` -- export the builder's whole lattice and reply
  ``("result", label, patch, num_objects)``.

The handshake and ``stop`` are the shared supervisor's.  The parent
deals raw chunks round-robin, so its per-chunk work is one pipe send
and the snap+add cost runs in parallel.  Difference-domain accumulation
is exact and order-independent, so the workers' builders merge into the
parent's bit-identically to a single-builder build no matter how chunks
were dealt.

This module must stay importable with no side effects: ``spawn`` workers
re-import it by qualified name.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from repro.euler.histogram import EulerHistogramBuilder
from repro.geometry.snapping import snap_rects
from repro.grid.grid import Grid

__all__ = ["add_columns", "setup", "snap_columns"]


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


def add_columns(
    builder: EulerHistogramBuilder,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
) -> int:
    """Snap raw MBR columns onto ``builder``'s grid and add them; returns
    the number of objects added."""
    spans = snap_columns(builder.grid, x_lo, x_hi, y_lo, y_hi)
    count = int(spans[0].size)
    builder.add_spans(*spans, np.ones(count, dtype=np.int64))
    return count


def setup(_stack: ExitStack, label: str, grid: Grid) -> dict:
    """Allocate the worker's builder and return its handlers."""
    builder = EulerHistogramBuilder(grid)

    def chunk(chunk_index: int, x_lo, x_hi, y_lo, y_hi) -> tuple:
        return ("done", chunk_index, add_columns(builder, x_lo, x_hi, y_lo, y_hi))

    def finish() -> tuple:
        a_max, b_max = grid.lattice_shape
        patch, num_objects = builder.export_partial(0, a_max - 1, 0, b_max - 1)
        return ("result", label, patch, num_objects)

    return {"chunk": chunk, "finish": finish}

"""Budgeted per-zone accumulation with checksummed disk spills.

The zone-summary path of streamed construction
(``build_zoned(keep_zone_summaries=True)``; a plain build holds one
builder per participant and never comes here): a
:class:`ZoneAccumulator` owns one
:class:`~repro.euler.histogram.EulerHistogramBuilder` per zone it has
seen spans for, charges their difference-array footprints against a
byte budget, and when the budget is exceeded spills the
least-recently-touched zones to disk as :class:`ZonePartial` files.

A spilled partial is the builder's scratch clipped to the bounding box
of the spans it actually received (plus the difference array's
past-the-end row/column), wrapped in the repo's CRC-32 ``.npz`` envelope
(:mod:`repro.persistence`) with the grid identity embedded -- so a
corrupt or mismatched spill fails loudly at merge time instead of
silently skewing counts.  Difference-domain addition is linear and
int64-exact, so pasting every partial of a zone back into a fresh
builder reproduces the zone's state bit-for-bit no matter how many times
it was spilled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import SummaryCorruptError
from repro.euler.histogram import EulerHistogramBuilder
from repro.grid.grid import Grid
from repro.persistence import load_verified_npz, save_verified_npz

__all__ = ["ZoneAccumulator", "ZonePartial", "load_zone_partial"]

#: ``kind`` stamped into spill files' persistence envelope.
SPILL_KIND = "zone partial"


@dataclass(frozen=True)
class ZonePartial:
    """One zone's accumulated state, clipped to its span bounding box.

    ``patch`` is a difference-domain scratch patch (see
    :meth:`repro.cube.difference.DifferenceArray2D.patch`); pasting it at
    lattice offset ``(a_lo, b_lo)`` via
    :meth:`EulerHistogramBuilder.add_partial` replays the zone's updates
    exactly.  Partials are additive: any number of them, from any mix of
    workers and spill generations, sum to the zone's true state.
    """

    zone: int
    a_lo: int
    b_lo: int
    patch: np.ndarray
    num_objects: int

    @property
    def nbytes(self) -> int:
        return int(self.patch.nbytes)

    def save(self, path: str | os.PathLike, grid: Grid) -> None:
        """Persist with the CRC-32 envelope plus the grid identity, so a
        merge against the wrong grid is caught at load."""
        save_verified_npz(
            path,
            {
                "zone": np.int64(self.zone),
                "offset": np.array([self.a_lo, self.b_lo], dtype=np.int64),
                "patch": self.patch,
                "num_objects": np.int64(self.num_objects),
                "cells": np.array([grid.n1, grid.n2], dtype=np.int64),
                "extent": np.array(grid.extent.as_tuple(), dtype=np.float64),
            },
            kind=SPILL_KIND,
        )


def load_zone_partial(path: str | os.PathLike, grid: Grid) -> ZonePartial:
    """Load a spilled partial, verifying checksum and grid identity."""
    payload = load_verified_npz(
        path,
        kind=SPILL_KIND,
        required=("zone", "offset", "patch", "num_objects", "cells", "extent"),
    )
    cells = np.asarray(payload["cells"], dtype=np.int64).reshape(-1)
    extent = np.asarray(payload["extent"], dtype=np.float64).reshape(-1)
    if (
        cells.shape != (2,)
        or extent.shape != (4,)
        or (int(cells[0]), int(cells[1])) != (grid.n1, grid.n2)
        or tuple(float(v) for v in extent) != grid.extent.as_tuple()
    ):
        raise SummaryCorruptError(
            f"zone partial {path!s} was built for a different grid "
            f"(cells {cells.tolist()}, extent {extent.tolist()}); refusing to merge"
        )
    offset = np.asarray(payload["offset"], dtype=np.int64).reshape(-1)
    num_objects = int(payload["num_objects"])
    if offset.shape != (2,) or offset.min() < 0 or num_objects < 0:
        raise SummaryCorruptError(f"zone partial {path!s} holds a malformed offset or count")
    patch = np.asarray(payload["patch"])
    if patch.ndim != 2 or not np.issubdtype(patch.dtype, np.integer):
        raise SummaryCorruptError(f"zone partial {path!s} holds a malformed patch")
    return ZonePartial(
        zone=int(payload["zone"]),
        a_lo=int(offset[0]),
        b_lo=int(offset[1]),
        patch=patch,
        num_objects=num_objects,
    )


class ZoneAccumulator:
    """Routes snapped spans to per-zone builders under a byte budget.

    ``budget_bytes`` bounds the *sum* of live builders' accumulator
    footprints -- an invariant, not a soft target: builders over the
    whole lattice cost a fixed ``builder_nbytes`` each, and before a new
    zone's builder is allocated, least-recently-touched zones are
    spilled (and their builders freed) until the newcomer fits.  The
    budget must admit at least one builder.

    The accumulator tracks the bounding box of every zone's spans so
    spills clip to the smallest patch that carries the zone's state.
    """

    def __init__(
        self,
        grid: Grid,
        budget_bytes: int,
        spill_dir: str | os.PathLike,
        *,
        label: str = "ingest",
    ) -> None:
        self._grid = grid
        shape = grid.lattice_shape
        self.builder_nbytes = (shape[0] + 1) * (shape[1] + 1) * np.dtype(np.int64).itemsize
        if budget_bytes < self.builder_nbytes:
            raise ValueError(
                f"memory budget {budget_bytes} B cannot hold even one zone "
                f"accumulator ({self.builder_nbytes} B for a "
                f"{shape[0]}x{shape[1]} lattice); raise --memory-mb"
            )
        self._budget_bytes = int(budget_bytes)
        self._spill_dir = os.fspath(spill_dir)
        self._label = label
        self._builders: dict[int, EulerHistogramBuilder] = {}
        self._bboxes: dict[int, list[int]] = {}
        self._lru: dict[int, int] = {}
        self._clock = 0
        self._spill_seq = 0
        self.spill_paths: list[str] = []
        self.objects = 0
        self.spills = 0
        self.peak_bytes = 0

    @property
    def live_bytes(self) -> int:
        return len(self._builders) * self.builder_nbytes

    @property
    def live_zones(self) -> int:
        return len(self._builders)

    def add_spans(
        self,
        zones: np.ndarray,
        a_lo: np.ndarray,
        a_hi: np.ndarray,
        b_lo: np.ndarray,
        b_hi: np.ndarray,
    ) -> None:
        """Scatter a batch of snapped spans into their zones' builders.

        Rows are grouped by zone (one stable sort), each group lands in
        its zone's builder via one vectorised ``add_spans`` call, and
        the budget is enforced after the batch.
        """
        zones = np.asarray(zones, dtype=np.int64)
        if zones.size == 0:
            return
        order = np.argsort(zones, kind="stable")
        sorted_zones = zones[order]
        group_starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_zones)) + 1, [sorted_zones.size]]
        )
        for start, end in zip(group_starts[:-1], group_starts[1:]):
            zone = int(sorted_zones[start])
            rows = order[start:end]
            za_lo, za_hi = a_lo[rows], a_hi[rows]
            zb_lo, zb_hi = b_lo[rows], b_hi[rows]
            builder = self._builders.get(zone)
            if builder is None:
                self._make_room()
                builder = EulerHistogramBuilder(self._grid)
                self._builders[zone] = builder
                shape = self._grid.lattice_shape
                self._bboxes.setdefault(zone, [shape[0], -1, shape[1], -1])
            builder.add_spans(za_lo, za_hi, zb_lo, zb_hi, np.ones(rows.size, dtype=np.int64))
            bbox = self._bboxes[zone]
            bbox[0] = min(bbox[0], int(za_lo.min()))
            bbox[1] = max(bbox[1], int(za_hi.max()))
            bbox[2] = min(bbox[2], int(zb_lo.min()))
            bbox[3] = max(bbox[3], int(zb_hi.max()))
            self._clock += 1
            self._lru[zone] = self._clock
            self.objects += int(rows.size)
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)

    def _make_room(self) -> None:
        """Spill least-recently-touched zones until one more builder fits
        inside the budget (the budget-as-invariant step)."""
        while (
            self.live_bytes + self.builder_nbytes > self._budget_bytes and self._builders
        ):
            victim = min(self._builders, key=self._lru.__getitem__)
            self._spill(victim)

    def _spill(self, zone: int) -> None:
        builder = self._builders.pop(zone)
        self._lru.pop(zone, None)
        bbox = self._bboxes.pop(zone)
        patch, num_objects = builder.export_partial(*bbox)
        partial = ZonePartial(
            zone=zone, a_lo=bbox[0], b_lo=bbox[2], patch=patch, num_objects=num_objects
        )
        path = os.path.join(
            self._spill_dir, f"{self._label}-zone{zone:06d}-{self._spill_seq:05d}.npz"
        )
        self._spill_seq += 1
        partial.save(path, self._grid)
        self.spill_paths.append(path)
        self.spills += 1

    def finish(self) -> list[ZonePartial]:
        """Export every still-live zone as an in-memory partial and
        release the builders.  Spilled files stay on disk
        (:attr:`spill_paths`); the merge pass consumes both."""
        partials = []
        for zone in sorted(self._builders):
            builder = self._builders[zone]
            bbox = self._bboxes[zone]
            patch, num_objects = builder.export_partial(*bbox)
            partials.append(
                ZonePartial(
                    zone=zone, a_lo=bbox[0], b_lo=bbox[2], patch=patch, num_objects=num_objects
                )
            )
        self._builders.clear()
        self._bboxes.clear()
        self._lru.clear()
        return partials

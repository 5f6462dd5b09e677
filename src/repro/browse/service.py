"""The browse pipeline and its plain configuration.

The paper's motivating application (Section 1): a user selects a region,
grids it into rows x columns of tiles, picks a spatial relation
(*contains*, *contained* or *overlap*), and gets back per-tile counts to
render as a choropleth -- hundreds of trial queries in one interaction.

:class:`BrowsePipeline` answers one interaction in five stages, written
once: **resolve** (region, relation and tiling, or
:class:`~repro.errors.InvalidRegionError`), **delta** (copy the tiles a
tile-compatible previous raster of the session already answered, see
:mod:`repro.browse.delta`), **cache** (one vectorised
:class:`~repro.cache.TileResultCache` probe over the rest, keyed by the
summary's identity *and generation*), **answer** (the miss set) and
**store and assemble** (cache the authoritative answers, annotate the
:class:`BrowseResult`, record metrics, feed the accuracy probe, remember
the session's raster).  The two browsing services are configurations of
it that differ only in the answer stage:

- :class:`GeoBrowsingService` answers the miss set with one
  ``estimate`` span through the estimator's vectorised
  ``estimate_batch`` (adapted by
  :func:`~repro.euler.base.as_batch_estimator` when needed), split into
  row bands through a :class:`~repro.parallel.executor.ParallelExecutor`
  when ``num_shards > 1`` or ``parallel=`` is given -- threads by
  default, shared-memory processes via ``"process"``/``"auto"``.  The
  per-tile scalar loop behind ``use_batch=False`` is the parity
  reference.
- :class:`~repro.browse.resilience.ResilientBrowsingService` answers it
  with pyramid prefill and deadline-checked row chunks through a
  fallback chain.

Cached, sharded, delta-assembled and plain rasters are bit-identical.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.browse.delta import DeltaPlan, DeltaSource, DeltaTracker, plan_delta
from repro.browse.sharding import batch_subset
from repro.cache import CacheKey, TileResultCache, backing_summary, summary_generation, summary_token
from repro.errors import InvalidRegionError
from repro.euler.base import Level2BatchEstimator, Level2Estimator, as_batch_estimator
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery, TileQueryBatch, aligned_query_cells
from repro.obs.instruments import BrowseInstrumentation
from repro.obs.trace import RequestTrace
from repro.parallel.executor import ParallelConfig, ParallelExecutor
from repro.workloads.tiles import (
    browsing_tile_batch,
    browsing_tile_batch_subset,
    browsing_tiles,
    validate_browsing_tiling,
)

__all__ = ["GeoBrowsingService", "BrowseResult", "RELATION_FIELDS"]

#: Browsable relation name -> Level2Counts field.
RELATION_FIELDS: dict[str, str] = {
    "contains": "n_cs",
    "contained": "n_cd",
    "overlap": "n_o",
    "disjoint": "n_d",
    "intersect": "n_intersect",
}


@dataclass(frozen=True)
class BrowseResult:
    """One browsing interaction's result raster.

    ``counts[r, c]`` is the (possibly estimated) number of objects in the
    requested relation with tile ``(r, c)``; row 0 is the bottom row of the
    region.

    ``valid`` is the per-tile validity mask: ``None`` (the common case)
    means every tile was answered; a boolean array of the raster's shape
    marks tiles the resilient serving path could not answer before its
    deadline -- those ``counts`` entries are NaN.

    ``telemetry`` is the request's span trace when the answering service
    was instrumented (``None`` otherwise): per-stage timings, per-chunk
    estimator attempts and outcomes, readable via
    ``result.telemetry.render()``.  It is excluded from equality so
    result comparison stays about the raster.

    ``delta`` records the scope this raster was answered under (summary
    identity and generation, estimator, relation field) plus which tiles
    are safe to copy, enabling :mod:`repro.browse.delta` reuse when the
    result is passed back as the ``previous=`` hint of a later browse.
    Like ``telemetry`` it is excluded from equality.

    ``levels`` and ``error_bound`` are the pyramid-refinement annotation
    (:mod:`repro.browse.refine`): per tile, the pyramid level that
    answered it (``-1`` = authoritative full-resolution answer) and an
    upper bound on how far the broadcast coarse count can sit from the
    tile's full-resolution estimate.  ``None`` -- the common case -- means
    no tile was pyramid-served.  Excluded from equality like the other
    serving metadata.
    """

    region: TileQuery
    relation: str
    counts: np.ndarray
    valid: np.ndarray | None = field(default=None)
    telemetry: RequestTrace | None = field(default=None, compare=False, repr=False)
    delta: DeltaSource | None = field(default=None, compare=False, repr=False)
    levels: np.ndarray | None = field(default=None, compare=False, repr=False)
    error_bound: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def rows(self) -> int:
        """Number of tile rows in the raster."""
        return self.counts.shape[0]

    @property
    def cols(self) -> int:
        """Number of tile columns in the raster."""
        return self.counts.shape[1]

    @cached_property
    def tiles(self) -> list[list[TileQuery]]:
        """The per-tile queries behind the raster, ``tiles[r][c]``
        matching ``counts[r, c]``.  Derived lazily from the region and the
        raster shape so the batch serving path never pays for building
        ``rows x cols`` Python objects unless a client drills down."""
        return browsing_tiles(self.region, self.rows, self.cols)

    @property
    def total(self) -> float:
        """Sum of the raster's counts."""
        return float(self.counts.sum())

    @property
    def is_complete(self) -> bool:
        """Whether every tile of the raster was answered."""
        return self.valid is None or bool(self.valid.all())

    @property
    def full_resolution(self) -> bool:
        """Whether every answered tile carries its full-resolution count
        (``True`` for rasters untouched by pyramid refinement).  A
        complete raster can still be coarse: under a tight deadline the
        resilient service answers every tile from a coarse pyramid level,
        giving ``is_complete`` without ``full_resolution``."""
        return self.levels is None or bool((self.levels < 0).all())

    @property
    def valid_fraction(self) -> float:
        """Fraction of tiles answered (1.0 for a complete raster)."""
        if self.valid is None:
            return 1.0
        return float(self.valid.mean()) if self.valid.size else 1.0

    def render_ascii(self, *, width: int = 4) -> str:
        """A terminal-friendly rendering of the raster (top row first),
        for the examples: rounded counts, right-aligned columns.  Tiles
        whose count is non-finite (NaN from a missed deadline, or
        corruption upstream) render as ``"?"`` instead of crashing
        ``int(round())``.

        ``width`` is a *minimum* column width: when any rendered count
        needs more characters, every column expands to the widest cell,
        so the raster always stays grid-aligned (a too-small ``width``
        used to misalign only the wide columns).
        """
        cells = [
            ["?" if not math.isfinite(v) else str(int(round(v))) for v in self.counts[r]]
            for r in range(self.rows - 1, -1, -1)
        ]
        cell_width = max(
            [width] + [len(cell) for row in cells for cell in row]
        )
        return "\n".join(
            " ".join(cell.rjust(cell_width) for cell in row) for row in cells
        )


def resolve_browse_request(
    grid: Grid, region: Rect | TileQuery, relation: str
) -> tuple[TileQuery, str]:
    """Validate one browse request against ``grid``.

    Returns the region as a cell span plus the
    :class:`~repro.euler.estimates.Level2Counts` field backing
    ``relation``.  Every way the request can be malformed -- unknown
    relation, misaligned or out-of-space world rectangle, span exceeding
    the grid -- raises :class:`~repro.errors.InvalidRegionError` (a
    ``ValueError`` subclass, so pre-taxonomy callers keep working).
    """
    if relation not in RELATION_FIELDS:
        raise InvalidRegionError(
            f"unknown relation {relation!r}; expected one of {sorted(RELATION_FIELDS)}"
        )
    if isinstance(region, Rect):
        try:
            region = aligned_query_cells(grid, region)
        except ValueError as exc:
            raise InvalidRegionError(str(exc)) from exc
    try:
        region.validate_against(grid)
    except ValueError as exc:
        raise InvalidRegionError(str(exc)) from exc
    return region, RELATION_FIELDS[relation]


#: Spans recorded as ``repro_browse_stage_seconds`` samples.
PIPELINE_STAGES = ("resolve", "delta_fill", "build_batch", "cache_probe", "estimate")


def _no_span(name: str, **attrs):
    return nullcontext()


class RasterState:
    """One request's raster on its way through the browse pipeline.

    Every array is flat (row-major) over the ``rows x cols`` tiles:
    ``counts`` (NaN until answered), ``valid`` (answered at all) and
    ``authoritative`` (answered at full resolution by the primary
    estimator, directly or through a delta copy or cache hit -- the only
    tiles the cache stores and later deltas copy).  ``levels`` and
    ``bounds`` appear once a pyramid level serves a tile.  ``pending``
    holds, strictly ascending, the positions the delta and cache stages
    left to the answer stage; :meth:`batch` builds their tile queries on
    first need, so a request answered without them never pays for them.
    """

    def __init__(
        self,
        region: TileQuery,
        rows: int,
        cols: int,
        field_name: str,
        scope: CacheKey,
        trace: RequestTrace | None,
        *,
        started: float,
        deadline: float | None,
    ) -> None:
        n = rows * cols
        self.region = region
        self.rows = rows
        self.cols = cols
        self.field_name = field_name
        self.scope = scope
        self.trace = trace
        self.span = trace.span if trace is not None else _no_span
        self.started = started
        self.deadline = deadline
        self.expired = False
        self.counts = np.full(n, np.nan, dtype=np.float64)
        self.valid = np.zeros(n, dtype=bool)
        self.authoritative = np.zeros(n, dtype=bool)
        self.levels: np.ndarray | None = None
        self.bounds: np.ndarray | None = None
        self.pending = np.arange(n, dtype=np.intp)
        self._batch: TileQueryBatch | None = None

    def batch(self) -> TileQueryBatch:
        """The pending tiles' queries, aligned with ``pending``."""
        if self._batch is None:
            with self.span("build_batch"):
                if self.pending.size == self.counts.size:
                    self._batch = browsing_tile_batch(self.region, self.rows, self.cols)
                else:
                    self._batch = browsing_tile_batch_subset(
                        self.region, self.rows, self.cols, self.pending
                    )
        return self._batch

    def narrow(self, keep: np.ndarray) -> None:
        """Keep only the pending tiles where the boolean ``keep`` is set."""
        self.pending = self.pending[keep]
        if self._batch is not None:
            self._batch = batch_subset(self._batch, keep)

    def positions(self, lo: int = 0, hi: int | None = None) -> slice | np.ndarray:
        """The flat positions of ``pending[lo:hi]``, as a slice when they
        are contiguous (``pending`` is strictly ascending, so the two
        endpoints decide) -- whole rows then write without a scatter."""
        idx = self.pending[lo:hi]
        if idx.size and idx[-1] - idx[0] == idx.size - 1:
            return slice(int(idx[0]), int(idx[-1]) + 1)
        return idx

    def answer(self, index, values, *, authoritative: bool = True) -> None:
        """Record full-resolution counts for the tiles at ``index``."""
        self.counts[index] = values
        self.valid[index] = True
        self.authoritative[index] = authoritative
        if self.levels is not None:
            self.levels[index] = -1
            self.bounds[index] = 0.0

    def coarse(self, index, values, level: int, bounds) -> None:
        """Record pyramid-level counts for the tiles at ``index``; they
        are valid but never authoritative."""
        if self.levels is None:
            self.levels = np.full(self.counts.size, -1, dtype=np.int64)
            self.bounds = np.zeros(self.counts.size, dtype=np.float64)
        self.counts[index] = values
        self.valid[index] = True
        self.levels[index] = level
        self.bounds[index] = bounds


class BrowsePipeline:
    """The one browse pipeline: resolve → delta → cache → answer → store
    and assemble (see the module docstring).  A configuration overrides
    only :meth:`_answer`, which settles the tiles the delta and cache
    stages left pending, and ``service_label``.
    """

    #: The ``service`` label of every metric the pipeline records.
    service_label: str

    def __init__(
        self,
        primary: Level2BatchEstimator,
        grid: Grid,
        *,
        instruments: BrowseInstrumentation | None,
        cache: TileResultCache | None,
        delta: DeltaTracker | None,
        parallel: ParallelExecutor | None,
        clock,
    ) -> None:
        self._primary = primary
        self._grid = grid
        self._obs = instruments
        self._cache = cache
        self._delta = delta
        self._parallel = parallel
        self._clock = clock
        self._summary = backing_summary(primary)
        self._summary_token = summary_token(self._summary)
        self._close_lock = threading.Lock()
        self._closed = False

    @property
    def grid(self) -> Grid:
        """The service's evaluation grid."""
        return self._grid

    @property
    def estimator_name(self) -> str:
        """The primary estimator's label."""
        return self._primary.name

    @property
    def cache(self) -> TileResultCache | None:
        """The tile-result cache, when one was configured."""
        return self._cache

    @property
    def delta(self) -> DeltaTracker | None:
        """The viewport-delta tracker, when one was configured."""
        return self._delta

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or is running)."""
        with self._close_lock:
            return self._closed

    def cache_key(self, field_name: str) -> CacheKey:
        """The cache key scoping this service's authoritative answers for
        one relation field: the primary summary's identity token and
        *current* generation plus the primary estimator's label."""
        return CacheKey(
            summary_id=self._summary_token,
            generation=summary_generation(self._summary),
            estimator_key=self._primary.name,
            field=field_name,
        )

    def close(self) -> None:
        """Release the plain service's
        :class:`~repro.parallel.executor.ParallelExecutor` (threads, plus
        worker processes and their shared segments under process
        parallelism; no-op when unsharded and for the resilient service,
        which owns no pool).  Idempotent and safe to race with in-flight
        :meth:`browse` calls, as gateway shutdown does: the first caller
        tears down and later ones return at once, while in-flight work
        completes because :class:`~repro.browse.sharding.ShardPool`
        degrades to inline execution after close and the process pool
        drains its dispatch lock before releasing segments.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._parallel is not None:
            self._parallel.close()

    # ------------------------------------------------------------------ #
    # the stages
    # ------------------------------------------------------------------ #

    def _browse(
        self,
        region: Rect | TileQuery,
        rows: int,
        cols: int,
        relation: str,
        *,
        previous: BrowseResult | None,
        session: str,
        deadline: float | None = None,
        reuse: bool = True,
        **options,
    ) -> BrowseResult:
        """Run the stages for one request; ``options`` go to the answer
        stage.  ``reuse=False`` skips the delta, cache and store stages."""
        obs = self._obs
        trace = obs.new_trace() if obs is not None else None
        span = trace.span if trace is not None else _no_span
        started = self._clock()
        with span("browse", relation=relation, rows=rows, cols=cols, deadline=deadline):
            with span("resolve"):
                region, field_name = resolve_browse_request(self._grid, region, relation)
                try:
                    validate_browsing_tiling(region, rows, cols)
                except ValueError as exc:
                    raise InvalidRegionError(str(exc)) from exc
            raster = RasterState(
                region, rows, cols, field_name, self.cache_key(field_name), trace,
                started=started, deadline=deadline,
            )
            if reuse:
                self._reuse_previous(raster, previous, session)
                self._probe_cache(raster)
            self._answer(raster, **options)
            if reuse:
                self._store(raster)
        return self._assemble(raster, relation, session, trace)

    def _reuse_previous(
        self, raster: RasterState, previous: BrowseResult | None, session: str
    ) -> None:
        """Delta stage: copy the tiles a tile-compatible previous raster
        (the explicit hint, else the session's last) already answered."""
        candidate = previous
        if candidate is None and self._delta is not None:
            candidate = self._delta.lookup(session)
        plan: DeltaPlan | None = None
        if candidate is not None:
            plan = plan_delta(candidate, raster.region, raster.rows, raster.cols, raster.scope)
        if plan is not None:
            with raster.span("delta_fill", tiles=plan.n_reused):
                plan.fill(raster.counts, candidate.counts)
                raster.valid[plan.reused] = True
                raster.authoritative[plan.reused] = True
            raster.narrow(~plan.reused)
        obs = self._obs
        if obs is not None and (previous is not None or self._delta is not None):
            if plan is not None:
                outcome = "reused"
                obs.delta_tiles_reused.labels(service=self.service_label).inc(plan.n_reused)
            else:
                outcome = "incompatible" if candidate is not None else "cold"
            obs.delta_rasters.labels(service=self.service_label, outcome=outcome).inc()

    def _probe_cache(self, raster: RasterState) -> None:
        """Cache stage: one vectorised probe answers every previously
        seen pending tile."""
        cache = self._cache
        if cache is None or not raster.pending.size:
            return
        batch = raster.batch()
        with raster.span("cache_probe"):
            values, hit = cache.probe(raster.scope, batch)
        n_hit = int(np.count_nonzero(hit))
        obs = self._obs
        if obs is not None:
            obs.cache_hits.labels(service=self.service_label).inc(n_hit)
            obs.cache_misses.labels(service=self.service_label).inc(len(batch) - n_hit)
        if n_hit:
            raster.answer(raster.pending[hit], values[hit])
            raster.narrow(~hit)

    def _answer(self, raster: RasterState, **options) -> None:
        """Answer stage: settle ``raster.pending`` (configurations
        override this)."""
        raise NotImplementedError

    def _store(self, raster: RasterState) -> None:
        """Store stage: cache the pending tiles the answer stage settled
        authoritatively -- degraded and coarse answers never enter."""
        if self._cache is None or not raster.pending.size:
            return
        keep = raster.authoritative[raster.pending]
        if keep.any():
            self._cache.store(
                raster.scope, raster.batch(), raster.counts[raster.pending], mask=keep
            )

    def _assemble(
        self,
        raster: RasterState,
        relation: str,
        session: str,
        trace: RequestTrace | None,
    ) -> BrowseResult:
        """Assembly: the result, its annotations and metrics, the accuracy
        probe and the session memory."""
        obs = self._obs
        rows, cols = raster.rows, raster.cols
        answered = int(np.count_nonzero(raster.valid))
        total = rows * cols
        if obs is not None:
            label = self.service_label
            elapsed = self._clock() - raster.started
            obs.requests.labels(service=label, relation=relation).inc()
            obs.request_seconds.labels(service=label).observe(elapsed)
            for stage_span in trace.spans:
                if stage_span.name in PIPELINE_STAGES:
                    obs.stage_seconds.labels(service=label, stage=stage_span.name).observe(
                        stage_span.seconds
                    )
            obs.tiles.labels(service=label, outcome="answered").inc(answered)
            obs.tiles.labels(service=label, outcome="nan").inc(total - answered)
            if raster.deadline is not None:
                obs.deadline_margin.labels(service=label).set(raster.deadline - elapsed)
            root = trace.spans[0].attrs
            root["valid_fraction"] = answered / total
            root["deadline_expired"] = raster.expired
        # The refinement annotation rides the result only when a pyramid
        # level answered a tile the fine path never overwrote.
        levels = error_bound = None
        if raster.levels is not None and bool((raster.levels >= 0).any()):
            levels = raster.levels.reshape(rows, cols)
            error_bound = raster.bounds.reshape(rows, cols)
        reusable = raster.authoritative.reshape(rows, cols)
        result = BrowseResult(
            region=raster.region,
            relation=relation,
            counts=raster.counts.reshape(rows, cols),
            valid=None if answered == total else raster.valid.reshape(rows, cols),
            telemetry=trace,
            delta=DeltaSource(
                scope=raster.scope, reusable=None if bool(reusable.all()) else reusable
            ),
            levels=levels,
            error_bound=error_bound,
        )
        if self._delta is not None:
            self._delta.remember(session, result)
        if obs is not None and obs.accuracy is not None:
            obs.accuracy.observe(result, trace=trace)
        return result


class GeoBrowsingService(BrowsePipeline):
    """Browse a dataset summary with tiled relation queries.

    The plain configuration of :class:`BrowsePipeline`: its answer stage
    is one ``estimate`` span over every pending tile, through the
    estimator's vectorised ``estimate_batch`` (or, when sharding is
    configured, a :class:`~repro.parallel.executor.ParallelExecutor`).

    Pass a :class:`~repro.obs.instruments.BrowseInstrumentation` as
    ``instruments`` to record request counts, per-stage timings and tile
    outcomes, to get a span trace on every result's ``telemetry``, and
    to let its accuracy probe (if any) sample each raster; the default
    ``None`` keeps the fast path uninstrumented.

    Pass a :class:`~repro.cache.TileResultCache` as ``cache`` to reuse
    tile counts across requests (hit/miss counts are recorded when
    instrumented), ``num_shards > 1`` to execute large rasters as
    row-band shards on a thread pool, and a
    :class:`~repro.browse.delta.DeltaTracker` as ``delta`` to answer each
    session's overlapping tiles by copying them from the session's
    previous raster.  All default off, leaving the single-batch fast path
    untouched; all are exact -- cached, sharded, delta-assembled and
    plain rasters are bit-identical.
    """

    service_label = "plain"

    def __init__(
        self,
        estimator: Level2Estimator,
        grid: Grid,
        *,
        instruments: BrowseInstrumentation | None = None,
        cache: TileResultCache | None = None,
        num_shards: int = 1,
        delta: DeltaTracker | None = None,
        parallel: ParallelConfig | str | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        # ``parallel`` selects the shard execution strategy ("thread",
        # "process", "auto" or a full ParallelConfig); the default thread
        # mode reproduces the pre-executor behaviour exactly.
        executor = None
        if num_shards > 1 or parallel is not None:
            executor = ParallelExecutor(
                estimator,
                parallel,
                num_shards=num_shards,
                instruments=instruments,
                service="plain",
            )
        super().__init__(
            as_batch_estimator(estimator),
            grid,
            instruments=instruments,
            cache=cache,
            delta=delta,
            parallel=executor,
            clock=instruments.clock if instruments is not None else time.monotonic,
        )
        self._estimator = estimator
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """Requested raster fan-out (1 = no sharding)."""
        return self._num_shards

    @property
    def parallel_executor(self) -> ParallelExecutor | None:
        """The shard-execution router, when sharding is configured."""
        return self._parallel

    def browse(
        self,
        region: Rect | TileQuery,
        rows: int,
        cols: int,
        relation: str = "overlap",
        *,
        use_batch: bool = True,
        previous: BrowseResult | None = None,
        session: str = "default",
    ) -> BrowseResult:
        """Run one browsing interaction.

        Parameters
        ----------
        region:
            The selected region, either as a world rectangle (must be
            grid-aligned) or directly as a cell span.
        rows, cols:
            The tile partitioning the user requested.
        relation:
            One of ``contains``, ``contained``, ``overlap``, ``disjoint``,
            ``intersect``.
        use_batch:
            ``True`` (default) answers the whole raster through the
            vectorised ``estimate_batch`` path; ``False`` forces the
            legacy per-tile scalar loop.  Both produce bit-identical
            rasters -- the flag exists for parity tests and benchmarks.
        previous:
            An explicit viewport-delta hint: a result whose overlapping
            tiles are copied when it is tile-compatible with this request
            (see :mod:`repro.browse.delta`).  Overrides the tracker.
        session:
            The session key under the service's
            :class:`~repro.browse.delta.DeltaTracker` (when one is
            configured): the session's last raster is the implicit
            ``previous``, and this result replaces it.  Delta reuse and
            the cache ride the batch path only; ``use_batch=False``
            always recomputes.

        Malformed requests raise :class:`~repro.errors.InvalidRegionError`.
        """
        return self._browse(
            region, rows, cols, relation,
            previous=previous, session=session, reuse=use_batch, scalar=not use_batch,
        )

    def _answer(self, raster: RasterState, *, scalar: bool) -> None:
        """One ``estimate`` span over every pending tile; ``scalar`` runs
        the per-tile loop that is the batch path's parity reference."""
        if scalar:
            with raster.span("estimate", tier=self._estimator.name, path="scalar"):
                field_name = raster.field_name
                values = [
                    getattr(self._estimator.estimate(tile), field_name)
                    for row in browsing_tiles(raster.region, raster.rows, raster.cols)
                    for tile in row
                ]
            raster.answer(slice(None), values)
            return
        if not raster.pending.size:
            return
        batch = raster.batch()
        with raster.span("estimate", tier=self._primary.name, tiles=len(batch)):
            if self._parallel is not None:
                values = self._parallel.estimate_field(batch, raster.field_name)
            else:
                values = getattr(self._primary.estimate_batch(batch), raster.field_name)
        raster.answer(raster.positions(), values)

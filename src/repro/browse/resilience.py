"""The resilient configuration of the browse pipeline.

:class:`~repro.browse.service.GeoBrowsingService` answers a raster's miss
set with one vectorised batch, nothing between an estimator exception
and the client.  In a production GeoBrowsing deployment (hundreds of
trial queries per interaction, Section 1) that is not acceptable: one
flaky estimator, one pathologically large raster or one corrupt summary
must degrade the answer, not kill the session.
:class:`ResilientBrowsingService` runs the same
:class:`~repro.browse.service.BrowsePipeline` -- resolve, delta, cache,
store and assemble are shared -- and replaces only the answer stage, with
this failure story:

- **Deadlines.**  A raster is answered in *row chunks* with a deadline
  check between chunks.  When the budget runs out, the remaining chunks
  are left NaN and the returned :class:`~repro.browse.service.BrowseResult`
  carries a validity mask -- a partial choropleth beats a timeout page.
- **Fallback chain.**  Estimators are tried in order per chunk (e.g. the
  exact evaluator first, S-EulerApprox as the cheap degradation; append
  ``ScalarBatchFallback(primary)`` to degrade the batch path to the
  scalar loop).  A chunk answer containing non-finite counts is treated
  as a failure, so NaN corruption falls through to the next tier instead
  of reaching the client.
- **Circuit breaker.**  Each tier trips open after ``failure_threshold``
  consecutive failures and is skipped while open; after ``cooldown``
  seconds (on the injected clock) a half-open probe is allowed, and a
  success closes the breaker again.
- **Retries.**  Transient faults are retried per tier with deterministic
  exponential backoff before falling through the chain.
- **Pyramid.**  Under a deadline, a coarse pyramid raster prefills the
  miss set before any chunk runs, and rescues chunks whose chain is
  exhausted.

All failures surface through the structured taxonomy of
:mod:`repro.errors`; if every tier fails a chunk the service raises
:class:`~repro.errors.EstimatorFailedError` carrying the per-tier causes
-- never a bare ``ValueError``.  The clock and sleep functions are
injectable so the whole layer is deterministic under test (see
:mod:`repro.testing.faults`).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.browse.delta import DeltaTracker
from repro.browse.refine import PyramidSource, RefinementStep
from repro.browse.service import BrowsePipeline, BrowseResult, RasterState
from repro.browse.sharding import ShardPool, batch_subset
from repro.cache import TileResultCache
from repro.errors import DeadlineExceededError, EstimatorFailedError
from repro.euler.base import Level2BatchEstimator, Level2Estimator, as_batch_estimator
from repro.euler.pyramid import HistogramPyramid
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery, TileQueryBatch
from repro.obs.instruments import BrowseInstrumentation, classify_failure
from repro.obs.trace import RequestTrace

__all__ = [
    "CircuitBreaker",
    "EstimatorTier",
    "FallbackChain",
    "ResilientBrowsingService",
    "RetryPolicy",
]

#: ``clock()`` -> seconds; monotonic in production, fake under test.
Clock = Callable[[], float]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-tier retry discipline: ``attempts`` total tries per chunk,
    with deterministic exponential backoff between them.

    The delay before retry ``i`` (0-based) is
    ``backoff_base * backoff_multiplier ** i`` seconds -- deterministic
    by design so fault-injection tests can assert the exact schedule.
    """

    attempts: int = 2
    backoff_base: float = 0.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")

    def delay(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry, in seconds."""
        return self.backoff_base * self.backoff_multiplier**retry_index


class CircuitBreaker:
    """A per-estimator circuit breaker with half-open recovery probes.

    States: ``closed`` (normal), ``open`` (skipped after
    ``failure_threshold`` consecutive failures), ``half_open`` (one probe
    allowed once ``cooldown`` seconds have elapsed on ``clock``).  A
    successful probe closes the breaker; a failed probe re-opens it with
    a fresh ``opened_at``, restarting the cooldown.

    The breaker trips on exactly the K-th consecutive failure (K =
    ``failure_threshold``), and while half-open admits exactly one
    probe: ``allows()`` returns ``True`` at the open-to-half-open
    transition and ``False`` until the probe's outcome is recorded, so
    concurrent callers cannot pile onto a recovering tier.  All state is
    lock-guarded; ``on_transition(old, new)`` fires on every state
    change (the observability layer wires it to a transition counter).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        clock: Clock = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self._failure_threshold = failure_threshold
        self._cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Optional ``(old_state, new_state)`` observer; assignable after
        #: construction so chains can wire instrumentation to named tiers.
        self.on_transition = on_transition

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures recorded since the last success."""
        with self._lock:
            return self._consecutive_failures

    def _set_state(self, new_state: str) -> None:
        """Transition (callers hold the lock) and notify the observer."""
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        if self.on_transition is not None:
            self.on_transition(old_state, new_state)

    def allows(self) -> bool:
        """Whether a call may be attempted now.

        In the open state this is where the cooldown expiry transitions
        the breaker to half-open, admitting one recovery probe; while
        that probe is outstanding (state half-open), further calls are
        rejected until :meth:`record_success` or :meth:`record_failure`
        resolves it.
        """
        with self._lock:
            if self._state == "open":
                if self._clock() - self._opened_at >= self._cooldown:
                    self._set_state("half_open")
                    return True
                return False
            if self._state == "half_open":
                return False
            return True

    def record_success(self) -> None:
        """Note a successful call: closes the breaker, resets the count."""
        with self._lock:
            self._set_state("closed")
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Note a failed call: a failed half-open probe or the K-th
        consecutive failure trips the breaker open with a fresh
        ``opened_at``."""
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == "half_open"
                or self._consecutive_failures >= self._failure_threshold
            ):
                self._opened_at = self._clock()
                self._set_state("open")


class EstimatorTier:
    """One estimator in a fallback chain, with its breaker and stats.

    Stat updates go through :meth:`note_attempt`/:meth:`note_failure`/
    :meth:`note_success`, which are lock-guarded so chunks executing on
    shard threads never lose increments; the counters themselves stay
    plain ints for cheap reads.
    """

    def __init__(self, estimator: Level2Estimator, breaker: CircuitBreaker) -> None:
        self._batch: Level2BatchEstimator = as_batch_estimator(estimator)
        self.breaker = breaker
        self._stats_lock = threading.Lock()
        #: Chunk attempts routed to this tier (including retries).
        self.attempts = 0
        #: Attempts that failed (exception, timeout overrun, or NaN).
        self.failures = 0
        #: Chunks this tier answered.
        self.successes = 0

    def note_attempt(self) -> None:
        """Count one attempt (thread-safe)."""
        with self._stats_lock:
            self.attempts += 1

    def note_failure(self) -> None:
        """Count one failed attempt (thread-safe)."""
        with self._stats_lock:
            self.failures += 1

    def note_success(self) -> None:
        """Count one answered chunk (thread-safe)."""
        with self._stats_lock:
            self.successes += 1

    @property
    def name(self) -> str:
        """The wrapped estimator's label."""
        return self._batch.name

    @property
    def estimator(self) -> Level2BatchEstimator:
        """The wrapped (batch-adapted) estimator."""
        return self._batch


class FallbackChain:
    """Answers tile-batch chunks through an ordered estimator chain.

    Each chunk walks the tiers in order: closed (or half-open) breakers
    are attempted up to ``retry.attempts`` times with deterministic
    backoff; an exception, a non-finite count, or an attempt overrunning
    ``attempt_timeout`` counts as a failure and eventually falls through
    to the next tier.  When every tier fails, the chunk raises
    :class:`~repro.errors.EstimatorFailedError` with the per-tier causes.
    """

    def __init__(
        self,
        estimators: Sequence[Level2Estimator],
        *,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        retry: RetryPolicy | None = None,
        attempt_timeout: float | None = None,
        clock: Clock = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        instruments: BrowseInstrumentation | None = None,
    ) -> None:
        if not estimators:
            raise ValueError("a fallback chain needs at least one estimator")
        if attempt_timeout is not None and attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive when given")
        self._retry = retry if retry is not None else RetryPolicy()
        self._attempt_timeout = attempt_timeout
        self._clock = clock
        self._sleep = sleep
        self._obs = instruments
        self.tiers = tuple(
            EstimatorTier(
                estimator,
                CircuitBreaker(
                    failure_threshold=failure_threshold, cooldown=cooldown, clock=clock
                ),
            )
            for estimator in estimators
        )
        if instruments is not None:
            for tier in self.tiers:
                tier.breaker.on_transition = instruments.breaker_hook(tier.name)

    @property
    def names(self) -> tuple[str, ...]:
        """Tier labels, primary first."""
        return tuple(tier.name for tier in self.tiers)

    def _attempt(
        self, tier: EstimatorTier, batch: TileQueryBatch, field_name: str
    ) -> np.ndarray:
        """One attempt on one tier; raises on any injected/real failure."""
        started = self._clock()
        estimates = tier.estimator.estimate_batch(batch)
        elapsed = self._clock() - started
        if self._attempt_timeout is not None and elapsed > self._attempt_timeout:
            raise TimeoutError(
                f"estimator {tier.name!r} took {elapsed:.3f}s for a "
                f"{len(batch)}-tile chunk (limit {self._attempt_timeout:.3f}s)"
            )
        values = np.asarray(getattr(estimates, field_name), dtype=np.float64)
        if values.shape != (len(batch),):
            raise ValueError(
                f"estimator {tier.name!r} returned shape {values.shape} "
                f"for a {len(batch)}-query chunk"
            )
        if not np.isfinite(values).all():
            bad = int(np.count_nonzero(~np.isfinite(values)))
            raise ValueError(
                f"estimator {tier.name!r} returned {bad} non-finite count(s)"
            )
        return values

    def estimate_chunk_tiered(
        self,
        batch: TileQueryBatch,
        field_name: str,
        *,
        trace: RequestTrace | None = None,
    ) -> tuple[np.ndarray, EstimatorTier]:
        """Answer one chunk of tile queries, falling through the chain.

        Returns the float64 counts for ``field_name``, one per query, and
        the tier that answered -- callers caching results need to know
        whether the answer is authoritative (primary tier) or degraded.
        Raises :class:`~repro.errors.EstimatorFailedError` when no tier
        can answer.  When a trace is given, every tier attempt is
        recorded as an ``attempt:<tier>`` span with its outcome.
        """
        causes: list[BaseException] = []
        obs = self._obs
        for depth, tier in enumerate(self.tiers):
            if not tier.breaker.allows():
                if obs is not None:
                    obs.tier_skips.labels(tier=tier.name).inc()
                causes.append(
                    RuntimeError(f"circuit open for estimator {tier.name!r}")
                )
                continue
            last_exc: BaseException | None = None
            for attempt in range(self._retry.attempts):
                tier.note_attempt()
                if obs is not None:
                    obs.tier_attempts.labels(tier=tier.name).inc()
                    if attempt:
                        obs.tier_retries.labels(tier=tier.name).inc()
                attempt_started = self._clock()
                span_cm = (
                    trace.span(f"attempt:{tier.name}", attempt=attempt)
                    if trace is not None
                    else nullcontext()
                )
                try:
                    with span_cm:
                        values = self._attempt(tier, batch, field_name)
                except Exception as exc:
                    tier.note_failure()
                    tier.breaker.record_failure()
                    if obs is not None:
                        obs.tier_seconds.labels(tier=tier.name).observe(
                            self._clock() - attempt_started
                        )
                        obs.tier_failures.labels(
                            tier=tier.name, reason=classify_failure(exc)
                        ).inc()
                    last_exc = exc
                    # A pure state read, on purpose: ``allows()`` has the
                    # side effect of admitting the half-open probe, so
                    # using it as a mid-retry check would burn the probe
                    # the moment a zero-cooldown breaker tripped.
                    if tier.breaker.state == "open":
                        break  # tripped open mid-chunk: stop retrying this tier
                    if attempt + 1 < self._retry.attempts:
                        delay = self._retry.delay(attempt)
                        if delay > 0:
                            self._sleep(delay)
                else:
                    tier.note_success()
                    tier.breaker.record_success()
                    if obs is not None:
                        obs.tier_seconds.labels(tier=tier.name).observe(
                            self._clock() - attempt_started
                        )
                        obs.tier_successes.labels(tier=tier.name).inc()
                        obs.fallback_depth.observe(depth)
                    return values, tier
            if last_exc is not None:
                causes.append(last_exc)
        raise EstimatorFailedError(
            f"all {len(self.tiers)} estimator tier(s) failed for a "
            f"{len(batch)}-tile chunk: "
            + "; ".join(f"{t.name}: {c}" for t, c in zip(self.tiers, causes)),
            causes=tuple(causes),
        )


class ResilientBrowsingService(BrowsePipeline):
    """A browsing service with deadlines, fallbacks and partial answers.

    The resilient configuration of
    :class:`~repro.browse.service.BrowsePipeline`: the ``browse``
    surface, stages and result of
    :class:`~repro.browse.service.GeoBrowsingService`, but the miss set
    is answered in row chunks through a :class:`FallbackChain` under a
    per-request deadline (see the module docstring).

    Parameters
    ----------
    estimators:
        The fallback chain, primary first (a single estimator works
        too); or pass a prebuilt :class:`FallbackChain` via ``chain``.
    grid:
        The service's evaluation grid.
    chunk_rows:
        Raster rows answered per chunk -- the deadline-check granularity.
    clock, sleep:
        Injectable time sources (monotonic seconds / backoff sleeper);
        tests substitute fakes for determinism.
    instruments:
        An optional :class:`~repro.obs.instruments.BrowseInstrumentation`;
        when given, every request is traced (the trace rides on
        ``BrowseResult.telemetry``), tier/breaker/tile outcomes are
        recorded, and its accuracy probe (if any) samples each answered
        raster.  ``None`` (the default) keeps the path uninstrumented.
    cache, delta:
        As for :class:`~repro.browse.service.GeoBrowsingService`: the
        pipeline's cache and delta stages run before any deadline check,
        so cache hits and a pan's overlap survive even a zero budget.
        Only *primary-tier* answers are stored or reused -- a degraded
        (fallback) answer must not keep serving after the primary
        recovers.
    num_shards:
        When > 1, up to this many row chunks are dispatched concurrently
        per *wave* on a :class:`~repro.browse.sharding.ShardPool`.  The
        deadline is checked between waves (a wave in flight is never
        abandoned), which generalises the sequential per-chunk check;
        with the default 1 the behaviour is exactly the sequential one.
    pyramid:
        An optional :class:`~repro.euler.pyramid.HistogramPyramid` (or a
        prebuilt :class:`~repro.browse.refine.PyramidSource`) whose
        finest grid must equal the service grid.  It becomes a new
        degradation tier: under a deadline, every tile not already
        answered by delta/cache is first served from the coarsest
        aligned pyramid level -- a complete, coarse-but-valid raster
        almost immediately -- then refined level-by-level while elapsed
        time stays under ``refine_fraction`` of the budget, and the fine
        chunk path overwrites whatever it reaches in time.  A chunk whose
        fallback chain is exhausted is likewise rescued from the coarsest
        level instead of failing the request.  Pyramid-served tiles carry
        their level and error bound on the result (``levels`` /
        ``error_bound``) and are *never* written to the tile cache or
        reused by viewport deltas.
    refine_fraction:
        Fraction of the deadline budget the refinement ladder may spend
        before yielding to the fine chunk path (default 0.35).
    """

    service_label = "resilient"

    def __init__(
        self,
        estimators: Level2Estimator | Sequence[Level2Estimator],
        grid: Grid,
        *,
        chunk_rows: int = 4,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        retry: RetryPolicy | None = None,
        attempt_timeout: float | None = None,
        clock: Clock = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        chain: FallbackChain | None = None,
        instruments: BrowseInstrumentation | None = None,
        cache: TileResultCache | None = None,
        num_shards: int = 1,
        delta: DeltaTracker | None = None,
        pyramid: HistogramPyramid | PyramidSource | None = None,
        refine_fraction: float = 0.35,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 0.0 < refine_fraction <= 1.0:
            raise ValueError("refine_fraction must be in (0, 1]")
        if pyramid is not None and not isinstance(pyramid, PyramidSource):
            pyramid = PyramidSource(pyramid, grid=grid)
        elif isinstance(pyramid, PyramidSource) and pyramid.grid != grid:
            raise ValueError(
                "the pyramid source's finest grid must equal the service grid"
            )
        if isinstance(estimators, Level2Estimator):
            estimators = [estimators]
        if chain is None:
            chain = FallbackChain(
                estimators,
                failure_threshold=failure_threshold,
                cooldown=cooldown,
                retry=retry,
                attempt_timeout=attempt_timeout,
                clock=clock,
                sleep=sleep,
                instruments=instruments,
            )
        super().__init__(
            chain.tiers[0].estimator,
            grid,
            num_shards=num_shards,
            instruments=instruments,
            cache=cache,
            delta=delta,
            parallel=None,
            pool=ShardPool(num_shards) if num_shards > 1 else None,
            clock=clock,
        )
        self._chain = chain
        self._chunk_rows = chunk_rows
        self._pyramid = pyramid
        self._refine_fraction = refine_fraction

    @property
    def chain(self) -> FallbackChain:
        """The fallback chain answering chunks (stats live on its tiers)."""
        return self._chain

    @property
    def pyramid(self) -> PyramidSource | None:
        """The pyramid refinement source, when one was configured."""
        return self._pyramid

    def browse(
        self,
        region: Rect | TileQuery,
        rows: int,
        cols: int,
        relation: str = "overlap",
        *,
        deadline: float | None = None,
        on_deadline: str = "partial",
        previous: BrowseResult | None = None,
        session: str = "default",
    ) -> BrowseResult:
        """Run one browsing interaction with resilience semantics.

        Parameters
        ----------
        region, rows, cols, relation:
            As in :meth:`GeoBrowsingService.browse
            <repro.browse.service.GeoBrowsingService.browse>`; malformed
            requests raise :class:`~repro.errors.InvalidRegionError`.
        deadline:
            Per-request budget in seconds on the service clock; ``None``
            means unbounded.  The budget is checked before each row
            chunk, so a chunk in flight is never abandoned.
        on_deadline:
            ``"partial"`` (default) returns whatever was answered, with
            unanswered tiles NaN and marked ``False`` in the result's
            validity mask; ``"raise"`` raises
            :class:`~repro.errors.DeadlineExceededError` instead.
        previous:
            An explicit viewport-delta hint (see
            :mod:`repro.browse.delta`); overrides the tracker.
        session:
            The session key under the service's
            :class:`~repro.browse.delta.DeltaTracker`, when configured.
        """
        if on_deadline not in ("partial", "raise"):
            raise ValueError(
                f"on_deadline must be 'partial' or 'raise', got {on_deadline!r}"
            )
        return self._browse(
            region, rows, cols, relation,
            previous=previous, session=session, deadline=deadline,
            on_deadline=on_deadline,
        )

    def _answer(self, raster: RasterState, *, on_deadline: str) -> None:
        """Pyramid prefill, then the pending tiles in row chunks through
        the fallback chain, in waves of up to ``num_shards`` concurrent
        chunks, with coarse rescue.  The deadline is checked before each
        wave, so work in flight is never abandoned; with one shard this
        is exactly the sequential per-chunk check."""
        steps: tuple[RefinementStep, ...] = (
            self._pyramid.plan(raster.region, raster.rows, raster.cols)
            if self._pyramid is not None
            else ()
        )
        if steps and raster.deadline is not None:
            self._prefill(raster, steps)
        obs = self._obs
        deadline = raster.deadline
        rows, cols = raster.rows, raster.cols
        pending = raster.pending
        chunk_rows = self._chunk_rows
        primary = self._chain.tiers[0]
        batch: TileQueryBatch | None = None
        # The coarsest step's raster, computed on the first exhausted chunk.
        rescue: tuple[int, np.ndarray, np.ndarray] | None = None

        def run_chunk(job: tuple[int, int, int]):
            row_lo, lo, hi = job
            chunk_started = self._clock()
            row_hi = min(row_lo + chunk_rows, rows)
            with raster.span(f"chunk[{row_lo}:{row_hi})", tiles=hi - lo):
                try:
                    values, tier = self._chain.estimate_chunk_tiered(
                        batch_subset(batch, slice(lo, hi)),
                        raster.field_name,
                        trace=raster.trace,
                    )
                except EstimatorFailedError:
                    # Exhausted chain: rescued below from the coarsest
                    # pyramid level when one aligns -- coarse-but-valid
                    # beats failing the request.
                    if not steps:
                        raise
                    values, tier = None, None
            return raster.positions(lo, hi), values, tier, self._clock() - chunk_started

        wave_size = self.num_shards
        position = 0
        chunks: list[tuple[int, int, int]] | None = None
        while True:
            # Chunk jobs are planned only when the deadline still has
            # room: an expired budget with a (coarse-)complete raster
            # exits before paying for the fine path's bookkeeping.
            if chunks is None and not pending.size:
                break
            if deadline is not None and self._clock() - raster.started >= deadline:
                raster.expired = True
                if obs is not None:
                    obs.deadline_expirations.labels(service=self.service_label).inc()
                # A pyramid-prefilled raster is complete (coarse but
                # valid everywhere), so even ``on_deadline="raise"``
                # degrades instead of raising.
                if on_deadline == "raise" and not raster.valid.all():
                    answered = int(raster.valid.reshape(rows, cols).all(axis=1).sum())
                    raise DeadlineExceededError(
                        f"deadline of {deadline:.3f}s expired after answering "
                        f"{answered} of {rows} raster rows",
                        answered_rows=answered,
                        total_rows=rows,
                    )
                break
            if chunks is None:
                # ``(first row, lo, hi)`` per chunk: the tiles
                # ``pending[lo:hi]`` share one band of ``chunk_rows`` rows.
                with raster.span("plan_chunks"):
                    blocks = pending // (cols * chunk_rows)
                    edges = [0, *(np.flatnonzero(np.diff(blocks)) + 1).tolist(), pending.size]
                    chunks = [
                        (int(blocks[lo]) * chunk_rows, lo, hi)
                        for lo, hi in zip(edges, edges[1:])
                    ]
            if position >= len(chunks):
                break
            # Built here, on the calling thread, so shard threads in the
            # wave below never race the lazy build.
            batch = raster.batch()
            wave = chunks[position : position + wave_size]
            position += len(wave)
            if self._pool is not None and len(wave) > 1:
                outcomes = self._pool.map(run_chunk, wave)
            else:
                outcomes = [run_chunk(job) for job in wave]
            for index, values, tier, chunk_seconds in outcomes:
                if obs is not None:
                    obs.stage_seconds.labels(
                        service=self.service_label, stage="chunk"
                    ).observe(chunk_seconds)
                if values is None:
                    if rescue is None:
                        step = steps[0]
                        counts, bounds = self._pyramid.raster(
                            step, rows, cols, raster.field_name
                        )
                        rescue = (step.level, counts.reshape(-1), bounds.reshape(-1))
                    level, counts, bounds = rescue
                    raster.coarse(index, counts[index], level, bounds[index])
                    if obs is not None:
                        obs.pyramid_rescues.labels(service=self.service_label).inc()
                else:
                    # Only the primary tier's answers are authoritative:
                    # a degraded tier's counts must not keep serving
                    # from the cache or a later delta once the primary
                    # recovers.
                    raster.answer(index, values, authoritative=tier is primary)

    def _prefill(self, raster: RasterState, steps: tuple[RefinementStep, ...]) -> None:
        """Serve every pending tile from the coarsest aligned pyramid
        level -- a complete, coarse-but-valid raster almost immediately
        -- then refine level by level while elapsed time stays inside the
        refinement budget.  The tiles stay pending, because the fine
        chunk path still owns them, and never become authoritative, so
        pyramid counts reach neither the tile cache nor a later delta."""
        obs = self._obs
        rounds = 0
        if raster.pending.size:
            index = raster.positions()
            for step in steps:
                if rounds and (
                    self._clock() - raster.started
                    >= raster.deadline * self._refine_fraction
                ):
                    break
                with raster.span(f"pyramid[level={step.level}]", tiles=step.tiles):
                    counts, bound = self._pyramid.raster(
                        step, raster.rows, raster.cols, raster.field_name
                    )
                raster.coarse(
                    index, counts.reshape(-1)[index], step.level, bound.reshape(-1)[index]
                )
                rounds += 1
                if obs is not None:
                    obs.pyramid_level_served.labels(
                        service=self.service_label, level=str(step.level)
                    ).inc()
                    if rounds == 1:
                        obs.pyramid_first_raster.labels(
                            service=self.service_label
                        ).observe(self._clock() - raster.started)
        if obs is not None:
            obs.pyramid_refine_rounds.labels(service=self.service_label).observe(rounds)

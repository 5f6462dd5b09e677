"""Crash-tolerant process pool for streamed-build workers.

:class:`ZoneBuildPool` deals raw coordinate chunks round-robin to build
workers (:func:`repro.ingest.worker.setup`) with bounded in-flight
depth, then drains one builder partial per worker in a finish pass.
Spawning, the ready handshake, waits, respawn and shutdown are the
shared :class:`~repro.workers.Supervisor`'s (the same one
:class:`repro.parallel.pool.ProcessShardPool` runs); this module keeps
chunk dealing and lost-chunk bookkeeping -- its loss policy, adapted to
*stateful* workers:

- **crash** -- a worker accumulates state across every chunk it was
  dealt, so losing it loses all of that state.  The pool therefore
  records every chunk index ever assigned to the worker as *lost* and
  respawns a fresh worker for future chunks.  The pipeline replays lost
  chunks inline from the replayable source -- the build always
  completes, bit-identical.
- **stall** -- a dispatch or drain that sees no progress within the
  timeout treats the busy workers as crashed (terminate, lose, replay):
  a hung worker must never hang the build.
- **worker error** -- an ``error`` reply is a data or builder bug that
  would equally fail inline, so it aborts the build as
  :class:`IngestWorkerError` rather than triggering replay.

Workers report ``("result", ...)`` exactly once, on ``finish``; the
builder's whole-lattice patch rides the pipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import RectDataset
from repro.grid.grid import Grid
from repro.ingest.worker import setup
from repro.workers import Supervisor, Worker

__all__ = ["IngestWorkerError", "ZoneBuildPool", "ZonePoolResult"]

#: Chunks a single worker may have queued before dispatch blocks.
MAX_INFLIGHT = 4


class IngestWorkerError(RuntimeError):
    """A worker's snap/add step raised; carries the worker-side
    repr.  This is a data or builder bug surfacing -- the inline
    path would hit the same bug -- so it aborts the build."""


@dataclass
class ZonePoolResult:
    """Everything the merge needs from a drained pool.

    ``partials`` holds one ``(patch, num_objects)`` pair per worker that
    finished: its builder's whole-lattice difference patch (see
    :meth:`~repro.euler.histogram.EulerHistogramBuilder.export_partial`).
    """

    partials: list[tuple[np.ndarray, int]] = field(default_factory=list)
    lost_chunks: list[int] = field(default_factory=list)
    crashes: int = 0


class _BuildWorker(Worker):
    """A build worker plus the chunks it was dealt."""

    __slots__ = ("assigned", "inflight")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.assigned: list[int] = []
        self.inflight = 0


class ZoneBuildPool:
    """Deal chunks to build workers; collect one partial per worker at
    the end.  Each worker holds one builder over ``grid``; the pipeline
    charges it against the ``--memory-mb`` budget."""

    def __init__(
        self,
        grid: Grid,
        *,
        workers: int,
        start_method: str = "spawn",
        dispatch_timeout: float = 60.0,
        label: str = "ingest",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._dispatch_timeout = float(dispatch_timeout)
        self.result = ZonePoolResult()
        self._supervisor = Supervisor(
            setup,
            (grid,),
            count=workers,
            start_method=start_method,
            name=label,
            on_loss=self._on_loss,
            handle=_BuildWorker,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def _workers(self) -> list[_BuildWorker]:
        return self._supervisor.workers

    def _on_loss(self, worker: _BuildWorker, reason: str) -> None:
        """A worker is dead or condemned: all chunks it ever saw are
        lost (the pipeline replays them)."""
        self.result.crashes += 1
        self.result.lost_chunks.extend(worker.assigned)
        worker.assigned.clear()
        worker.inflight = 0

    def ensure_ready(self, timeout: float = 10.0) -> int:
        """Wait up to ``timeout`` for workers to report ready; returns
        the number ready.  Init failures count as crashes and respawn;
        persistently failing slots stay not-ready (the pipeline falls
        back to inline construction when none come up)."""
        return self._supervisor.ensure_ready(timeout)

    def worker_pids(self) -> list[int]:
        """PIDs of the ready workers (fault-injection tests kill these)."""
        return self._supervisor.worker_pids()

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if not self._supervisor.closed:
            self._supervisor.close()

    def __enter__(self) -> "ZoneBuildPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _handle_message(self, worker: _BuildWorker, message: tuple) -> None:
        kind = message[0]
        if kind == "done":
            worker.inflight = max(worker.inflight - 1, 0)
        elif kind == "error":
            raise IngestWorkerError(
                f"worker {worker.slot} failed on chunk {message[1]}: {message[2]}"
            )
        # "ready" is applied by the supervisor; "result" is consumed by
        # drain(); anything else is ignored.

    def _poll(self, timeout: float) -> bool:
        """Wait for any pipe or sentinel event and process it.  Returns
        ``False`` when nothing happened within ``timeout``."""
        events = self._supervisor.wait(self._workers, timeout)
        for worker, message in events:
            if message is not None:
                self._handle_message(worker, message)
        return bool(events)

    def dispatch(self, chunk_index: int, chunk: RectDataset) -> bool:
        """Deal one raw chunk to the least-loaded ready worker, blocking
        while every worker is at full in-flight depth.  Returns ``False``
        when no worker could take the chunk before the timeout (the
        caller adds it inline instead)."""
        deadline = time.monotonic() + self._dispatch_timeout
        while True:
            candidates = [w for w in self._supervisor.ready() if w.inflight < MAX_INFLIGHT]
            if candidates:
                worker = min(candidates, key=lambda w: (w.inflight, w.slot))
                message = ("chunk", chunk_index, chunk.x_lo, chunk.x_hi, chunk.y_lo, chunk.y_hi)
                if not self._supervisor.send(worker, message):
                    continue
                worker.assigned.append(chunk_index)
                worker.inflight += 1
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Stalled: condemn the busy workers (their chunks replay
                # inline) rather than hanging the build.
                for w in list(self._workers):
                    if w.inflight:
                        self._supervisor.lose(w, "stall")
                return False
            self._poll(min(remaining, 1.0))

    def drain(self, timeout: float = 120.0) -> ZonePoolResult:
        """Wait out the in-flight chunks, ask every worker to finish and
        collect the ``result`` replies.  Workers that crash or stall
        forfeit their chunks to :attr:`ZonePoolResult.lost_chunks`."""
        supervisor = self._supervisor
        deadline = time.monotonic() + timeout
        while any(w.inflight for w in self._workers):
            if not self._poll(max(min(deadline - time.monotonic(), 1.0), 0.0)):
                if time.monotonic() >= deadline:
                    for w in self._workers:
                        if w.inflight:
                            supervisor.lose(w, "stall", respawn=False)
                    break

        # A worker can die after its last "done" was read, so no wait
        # above saw its sentinel.  ready() skips dead processes, so lose
        # it here, or its chunks would be neither merged nor replayed.
        for w in list(self._workers):
            if w.ready and not w.process.is_alive():
                supervisor.lose(w, "crash", respawn=False)
        pending = {
            w for w in supervisor.ready() if supervisor.send(w, ("finish",), respawn=False)
        }
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for w in pending:
                    supervisor.lose(w, "stall", respawn=False)
                break
            for worker, message in supervisor.wait(list(pending), remaining, respawn=False):
                if message is None:
                    pending.discard(worker)
                elif message[0] == "result":
                    pending.discard(worker)
                    _, _, patch, num_objects = message
                    self.result.partials.append((patch, int(num_objects)))
                    worker.assigned.clear()
                else:
                    self._handle_message(worker, message)
        return self.result

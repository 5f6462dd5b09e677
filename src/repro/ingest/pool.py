"""Crash-tolerant process pool for zone-build workers.

:class:`ZoneBuildPool` deals raw coordinate chunks round-robin to
zone-build workers (:func:`repro.ingest.worker.setup`) with bounded
in-flight depth, then drains per-worker zone partials in a finish pass.
Spawning, the ready handshake, waits, respawn and shutdown are the
shared :class:`~repro.workers.Supervisor`'s (the same one
:class:`repro.parallel.pool.ProcessShardPool` runs); this module keeps
chunk dealing, lost-chunk bookkeeping and spill cleanup -- its loss
policy, adapted to *stateful* workers:

- **crash** -- a worker accumulates state across every chunk it was
  dealt, so losing it loses all of that state, including spill files of
  unknown completeness.  The pool therefore records every chunk index
  ever assigned to the worker as *lost*, deletes the dead worker's spill
  files (its label names them), and respawns a fresh worker for future
  chunks.  The pipeline replays lost chunks inline from the replayable
  source -- the build always completes, bit-identical.
- **stall** -- a dispatch or drain that sees no progress within the
  timeout treats the busy workers as crashed (terminate, lose, replay):
  a hung worker must never hang the build.
- **worker error** -- an ``error`` reply is a data or accumulator bug
  that would equally fail inline, so it aborts the build as
  :class:`IngestWorkerError` rather than triggering replay.

Workers report ``("result", ...)`` exactly once, on ``finish``; partials
ride the pipe (they are bbox-clipped, so small for local data), while
spilled partials stay on disk and are named by path.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field

from repro.datasets.base import RectDataset
from repro.ingest.accumulator import ZonePartial
from repro.ingest.worker import setup
from repro.ingest.zones import ZoneMap
from repro.workers import Supervisor, Worker

__all__ = ["IngestWorkerError", "ZoneBuildPool", "ZonePoolResult"]

#: Chunks a single worker may have queued before dispatch blocks.
MAX_INFLIGHT = 4


class IngestWorkerError(RuntimeError):
    """A worker's snap/accumulate step raised; carries the worker-side
    repr.  This is a data or accumulator bug surfacing -- the inline
    path would hit the same bug -- so it aborts the build."""


@dataclass
class ZonePoolResult:
    """Everything the merge pass needs from a drained pool."""

    partials: list[ZonePartial] = field(default_factory=list)
    spill_paths: list[str] = field(default_factory=list)
    lost_chunks: list[int] = field(default_factory=list)
    crashes: int = 0
    spills: int = 0
    peak_bytes: int = 0
    objects: int = 0


class _BuildWorker(Worker):
    """A build worker plus the chunks it was dealt."""

    __slots__ = ("assigned", "inflight")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.assigned: list[int] = []
        self.inflight = 0


class ZoneBuildPool:
    """Deal chunks to zone-build workers; collect partials at the end.

    ``budget_bytes`` is the **per-worker** accumulator budget (the
    pipeline divides the global ``--memory-mb`` budget by the worker
    count).  ``spill_dir`` must exist and outlive the pool; spill files
    are namespaced per worker incarnation so a crashed worker's files
    can be discarded without touching survivors'.
    """

    def __init__(
        self,
        zone_map: ZoneMap,
        *,
        workers: int,
        budget_bytes: int,
        spill_dir: str | os.PathLike,
        start_method: str = "spawn",
        dispatch_timeout: float = 60.0,
        label: str = "ingest",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._spill_dir = os.fspath(spill_dir)
        self._dispatch_timeout = float(dispatch_timeout)
        self.result = ZonePoolResult()
        self._supervisor = Supervisor(
            setup,
            (zone_map, int(budget_bytes), self._spill_dir),
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

    def _spill_files(self, worker: Worker) -> list[str]:
        return glob.glob(os.path.join(self._spill_dir, f"{worker.label}-*.npz"))

    def _on_loss(self, worker: _BuildWorker, reason: str) -> None:
        """A worker is dead or condemned: all chunks it ever saw are
        lost (the pipeline replays them) and its spill files are
        garbage."""
        self.result.crashes += 1
        self.result.lost_chunks.extend(worker.assigned)
        worker.assigned.clear()
        worker.inflight = 0
        for path in self._spill_files(worker):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover
                pass

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
        """Stop every worker and delete any spill files not handed over
        in a ``result`` (idempotent)."""
        if self._supervisor.closed:
            return
        self._supervisor.close()
        handed_over = set(self.result.spill_paths)
        for w in self._workers:
            for path in self._spill_files(w):
                if path not in handed_over:
                    try:
                        os.unlink(path)
                    except OSError:  # pragma: no cover
                        pass

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
            self.result.objects += int(message[2])
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
        caller accumulates it inline instead)."""
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
                    _, _, partials, spill_paths, stats = message
                    self.result.partials.extend(partials)
                    self.result.spill_paths.extend(spill_paths)
                    self.result.spills += int(stats["spills"])
                    self.result.peak_bytes += int(stats["peak_bytes"])
                    worker.assigned.clear()
                else:
                    self._handle_message(worker, message)
        return self.result

"""One supervised worker-process lifecycle for every process pool.

Both process pools -- :class:`~repro.parallel.pool.ProcessShardPool`
(raster bands over shared summaries) and
:class:`~repro.ingest.pool.ZoneBuildPool` (histogram builds over
streamed chunks) -- run their workers through this module.  It owns
everything that is the same for both:

- **spawn** -- one ``get_context(start_method)`` duplex pipe and daemon
  process per slot; every incarnation gets a fresh ``label``
  (``<name>-w<slot>i<n>``), which also names its process;
- **handshake** -- the child runs its ``setup`` and answers
  ``("ready", slot, pid)`` or ``("init_error", slot, repr)``; the parent
  ends every worker with ``("stop",)``;
- **waits** -- :meth:`Supervisor.wait` watches pipes *and* process
  sentinels, so a worker that dies without a word is noticed as fast as
  one that replies;
- **loss** -- :meth:`Supervisor.lose` closes, terminates and joins a
  dead or condemned worker, hands it to the pool's ``on_loss`` callback
  (the only pool-specific part: recompute a band, forfeit chunks,
  count a metric) and respawns its slot;
- **close** -- stop, join, terminate;
- **the child loop** -- :func:`run_worker` dispatches each message to
  the handler the pool's ``setup`` registered for its kind and turns a
  raised exception into an ``("error", tag, repr)`` reply.

The module is stdlib-only and import-side-effect free, because
``spawn`` children re-import it by qualified name.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import ExitStack
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Mapping, Sequence

__all__ = ["Supervisor", "Worker", "run_worker", "usable_cpu_count"]

#: How long a stopped or terminated worker is given to exit.
JOIN_TIMEOUT = 2.0

#: ``setup(stack, label, *args)`` -> handlers by message kind; runs in
#: the child, registering its cleanups on ``stack``.
Setup = Callable[..., Mapping[str, Callable[..., tuple]]]


def usable_cpu_count() -> int:
    """CPUs this process may run on: the scheduler affinity set where
    the platform has one (so ``taskset`` and cpusets are honoured), else
    ``os.cpu_count()``."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:
        return os.cpu_count() or 1


def run_worker(conn: Connection, slot: int, label: str, setup: Setup, args: tuple) -> None:
    """Child-side entry point: handshake, then answer messages until
    ``stop`` or until the parent vanishes.

    ``handlers[kind](*message[1:])`` returns the reply tuple.  A handler
    that raises is answered with ``("error", message[1], repr)`` -- the
    tag names the task or chunk that failed -- and the loop goes on; the
    parent decides whether an error is fatal.
    """
    with ExitStack() as stack:
        stack.callback(conn.close)
        try:
            handlers = setup(stack, label, *args)
        except Exception as exc:
            conn.send(("init_error", slot, repr(exc)))
            return
        conn.send(("ready", slot, os.getpid()))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent vanished; exit quietly
            kind = message[0]
            if kind == "stop":
                return
            handler = handlers.get(kind)
            try:
                if handler is None:
                    raise ValueError(f"unknown message {kind!r}")
                reply = handler(*message[1:])
            except Exception as exc:
                tag = message[1] if handler is not None and len(message) > 1 else None
                reply = ("error", tag, repr(exc))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # pragma: no cover
                return


class Worker:
    """Parent-side record of one worker incarnation.  Pools that keep
    per-worker state subclass it (adding ``__slots__``)."""

    __slots__ = ("slot", "label", "process", "conn", "ready", "pid")

    def __init__(self, slot: int, label: str, process, conn: Connection) -> None:
        self.slot = slot
        self.label = label
        self.process = process
        self.conn = conn
        self.ready = False
        self.pid: int | None = None


class Supervisor:
    """Spawns, watches, replaces and stops a fixed set of worker slots.

    ``setup`` and ``args`` are what each child runs (see
    :func:`run_worker`; both must pickle under ``spawn``).
    ``on_loss(worker, reason)`` is called once per lost worker, after
    its process is gone and before its slot is respawned.  ``handle``
    is the :class:`Worker` subclass to record workers with.
    """

    def __init__(
        self,
        setup: Setup,
        args: tuple,
        *,
        count: int,
        start_method: str,
        name: str,
        on_loss: Callable[[Worker, str], None],
        handle: type[Worker] = Worker,
    ) -> None:
        self._setup = setup
        self._args = args
        self._ctx = multiprocessing.get_context(start_method)
        self._name = name
        self._on_loss = on_loss
        self._handle = handle
        self._incarnation = 0
        self.closed = False
        self.workers: list[Worker] = [self._spawn(slot) for slot in range(count)]

    def _spawn(self, slot: int) -> Worker:
        self._incarnation += 1
        label = f"{self._name}-w{slot}i{self._incarnation}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=run_worker,
            args=(child_conn, slot, label, self._setup, self._args),
            name=f"repro-{label}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return self._handle(slot, label, process, parent_conn)

    def ready(self) -> list[Worker]:
        """Workers that reported ready and are still alive."""
        return [w for w in self.workers if w.ready and w.process.is_alive()]

    def worker_pids(self) -> list[int]:
        """PIDs of the ready workers (fault-injection tests kill these)."""
        return [w.pid for w in self.workers if w.ready and w.pid is not None]

    def lose(self, worker: Worker, reason: str, *, respawn: bool = True) -> None:
        """A worker is dead or condemned: end its process, let the pool
        account for it, and (unless closed or told not to) start a fresh
        incarnation in its slot."""
        worker.ready = False
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(JOIN_TIMEOUT)
        self._on_loss(worker, reason)
        if respawn and not self.closed:
            self.workers[worker.slot] = self._spawn(worker.slot)

    def send(self, worker: Worker, message: tuple, *, respawn: bool = True) -> bool:
        """Send ``message``; a broken pipe loses the worker (``crash``)
        and returns ``False``."""
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            self.lose(worker, "crash", respawn=respawn)
            return False
        return True

    def wait(
        self, workers: Sequence[Worker], timeout: float, *, respawn: bool = True
    ) -> list[tuple[Worker, tuple | None]]:
        """Wait up to ``timeout`` for news from any of ``workers``.

        Returns one event per worker with news, empty when nothing
        happened.  Handshake replies are applied here: ``ready`` marks
        the worker ready (and is still returned), ``init_error`` loses
        it.  A worker whose sentinel fired with nothing left in its pipe
        -- or whose pipe broke -- is lost as a ``crash``.  Lost workers
        come back as ``(worker, None)``.  A zero timeout still drains
        whatever is already pending.
        """
        watched = {w.conn: w for w in workers if not w.conn.closed}
        if not watched:
            return []
        sentinels = {w.process.sentinel: w for w in watched.values()}
        fired = connection_wait([*watched, *sentinels], timeout=max(timeout, 0.0))
        events: list[tuple[Worker, tuple | None]] = []
        seen: set[Worker] = set()
        for obj in fired:
            worker = watched.get(obj) or sentinels[obj]
            if worker in seen:
                continue
            seen.add(worker)
            if obj is not worker.conn and not worker.conn.poll():
                self.lose(worker, "crash", respawn=respawn)
                events.append((worker, None))
                continue
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self.lose(worker, "crash", respawn=respawn)
                events.append((worker, None))
                continue
            if message[0] == "init_error":
                self.lose(worker, "init_error", respawn=respawn)
                events.append((worker, None))
                continue
            if message[0] == "ready":
                worker.ready = True
                worker.pid = message[2]
            events.append((worker, message))
        return events

    def ensure_ready(self, timeout: float) -> int:
        """Wait up to ``timeout`` for starting workers to report ready;
        returns the number ready.  A worker whose startup failed or who
        died before reporting is lost and respawned; persistent failures
        leave the slot not-ready.  A zero timeout still performs one
        non-blocking drain, so pending ``ready`` messages (fresh startup
        or respawns) are always consumed."""
        deadline = time.monotonic() + timeout
        while True:
            starting = [w for w in self.workers if not w.ready and not w.conn.closed]
            if not starting or not self.wait(starting, deadline - time.monotonic()):
                break
            if time.monotonic() >= deadline:
                break
        return sum(1 for w in self.workers if w.ready)

    def close(self) -> None:
        """Stop every worker: ``stop``, join, terminate the stuck ones."""
        self.closed = True
        for w in self.workers:
            try:
                w.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for w in self.workers:
            w.process.join(JOIN_TIMEOUT)
            if w.process.is_alive():  # pragma: no cover - stuck worker
                w.process.terminate()
                w.process.join(JOIN_TIMEOUT)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass

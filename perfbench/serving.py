"""The serving workloads: ``pan-sessions`` and ``world-rasters``.

A real ``repro serve`` process answers the benchmark's client over its
NDJSON TCP socket.  The client is one process with two connections
(one thread each), in a closed loop with zero think time: a browser
session waits for its raster before the next click, and the server
answers each connection in order, so more outstanding requests per
connection would only measure the socket queue.

The traced run replays the same request lines in-process through the
calls the server makes (``json.loads`` + ``parse_request``,
``Gateway.submit``, ``to_wire`` + ``json.dumps``) on a gateway built the
way ``repro serve`` builds it, with spans around each layer.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import (
    CLIENT_SATURATION_FRAC,
    Span,
    Tracer,
    child_env,
    mean,
    median,
    percentile,
    process_cpu_s,
    stop_process,
    tails,
    vm_hwm_mb,
)

from repro.browse.service import resolve_browse_request
from repro.cache import TileResultCache
from repro.cache.tile_cache import ENTRY_BYTES
from repro.cli import build_parser
from repro.datasets import by_name
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.gateway import Gateway, TenantCatalog
from repro.gateway.server import parse_request
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery
from repro.workloads.sessions import generate_sessions, generate_tenant_sessions
from repro.workloads.tiles import browsing_tile_batch

TENANT = "public"
DATASET = "default"
#: Client budget per request: well above the slowest raster's latency
#: at the parent commit, so admission never degrades or sheds there and
#: any degradation a later change causes shows up as a regression.
DEADLINE_S = 5.0
#: ``adl``-like dataset summarised on the paper's 360x180 world grid.
DATASET_OBJECTS = 200_000
GRID_CELLS = (360, 180)
#: Rasters of at most this many tiles (8x8) are "small" requests.
SMALL_TILES = 64
RELATIONS = ("overlap", "intersect", "contains", "contained", "disjoint")
#: Whole-world tilings of the ``world-rasters`` big-raster connection:
#: 60x120 to 180x360 tiles.  With the five relations that is 45 rasters
#: and about 1.09M distinct tiles per cycle, ~3x the 8 MiB tile cache,
#: so a cyclic replay never hits the LRU cache.
WORLD_ROWS = (60, 90, 180)
WORLD_COLS = (120, 180, 360)

#: ``servers`` is the number of server processes per run.  Each serves
#: an equal share of the timed phase, after its own warm-up, and
#: ``setup_s`` is the median of their starts.  One process stays faster
#: or slower than another by 20-30% on small requests for its whole
#: life, so a run that timed a single server would carry that one draw;
#: several servers per run average it.
PARAMS = {
    "pan-sessions": {
        # Each connection replays its own pool of pan/zoom sessions,
        # pass after pass, under fresh session ids each pass.  Pans are
        # frequent and tile-aligned, rasters at most 32x32 tiles; the
        # pool's distinct tiles fit the cache.
        "sessions_per_connection": 200,
        "pan_prob": 0.6,
        "pan_fraction": 0.25,
        "max_depth": 8,
        "max_partition": 32,
        "warmup_passes": 1,
        # A warm-up pass fills the cache and takes ~2.6 s per server.
        "servers": 4,
    },
    "world-rasters": {
        # Connection A: whole-world rasters, fresh session per request.
        # Connection B: small zoom-in sessions (at most 8x8 tiles).
        "small_sessions": 200,
        "small_max_depth": 6,
        "small_max_partition": 8,
        # 18 consecutive big rasters hold every tiling twice, 436k
        # tiles, so each server's tile cache is full and evicting before
        # its timed share starts (a filling cache answers faster).
        "warmup_requests": 18,
        "servers": 5,
    },
}


@dataclass(frozen=True)
class Req:
    """One request of a connection's plan; the session id is completed
    per send (``stem`` + pass number)."""

    region: TileQuery
    rows: int
    cols: int
    relation: str
    stem: str

    @property
    def tiles(self) -> int:
        return self.rows * self.cols

    def line(self, pass_no: int) -> bytes:
        doc = {
            "tenant": TENANT,
            "dataset": DATASET,
            "region": {
                "cells": [self.region.qx_lo, self.region.qx_hi, self.region.qy_lo, self.region.qy_hi]
            },
            "rows": self.rows,
            "cols": self.cols,
            "relation": self.relation,
            "deadline_s": DEADLINE_S,
            "session": f"{self.stem}-p{pass_no}",
        }
        return json.dumps(doc).encode() + b"\n"


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


def make_histogram(workdir: str, seed: int) -> tuple[str, Grid]:
    dataset = by_name("adl", DATASET_OBJECTS, seed=seed)
    grid = Grid(dataset.extent, *GRID_CELLS)
    path = os.path.join(workdir, "adl_hist.npz")
    EulerHistogram.from_dataset(dataset, grid).save(path)
    return path, grid


def _session_reqs(sessions, prefix: str) -> list[Req]:
    return [
        Req(step.region, step.rows, step.cols, step.relation, f"{prefix}{i}")
        for i, session in enumerate(sessions)
        for step in session
    ]


def make_plans(workload: str, grid: Grid, seed: int) -> list[list[Req]]:
    """Per-connection request plans, all drawn from ``seed``."""
    p = PARAMS[workload]
    if workload == "pan-sessions":
        plans = []
        for conn in range(2):
            tenant_sessions = generate_tenant_sessions(
                grid,
                tenants=[TENANT],
                dataset=DATASET,
                sessions_per_tenant=p["sessions_per_connection"],
                seed=seed * 7919 + conn,
                pan_prob=p["pan_prob"],
                pan_fraction=p["pan_fraction"],
                max_depth=p["max_depth"],
                max_partition=p["max_partition"],
            )
            plans.append(
                _session_reqs([ts.session for ts in tenant_sessions], f"c{conn}-s")
            )
        return plans
    # A fixed order, so every run measures the same mix of raster sizes:
    # each block of nine requests holds every tiling once, and the five
    # blocks of a cycle rotate the relations, so every (tiling, relation)
    # pair appears once per cycle.  The seed draws the dataset and
    # connection B's sessions.
    world = TileQuery(0, grid.n1, 0, grid.n2)
    tilings = [(r, c) for r in WORLD_ROWS for c in WORLD_COLS]
    big = [
        Req(world, r, c, RELATIONS[(t + block) % len(RELATIONS)], f"a{block * len(tilings) + t}")
        for block in range(len(RELATIONS))
        for t, (r, c) in enumerate(tilings)
    ]
    small_sessions = generate_sessions(
        grid,
        num_sessions=p["small_sessions"],
        max_depth=p["small_max_depth"],
        max_partition=p["small_max_partition"],
        seed=seed * 7919 + 1,
    )
    return [big, _session_reqs(small_sessions, "b-s")]


def expected_counts(estimator: SEulerApprox, grid: Grid, req: Req) -> np.ndarray:
    """The in-process answer: ``estimate_batch`` over the request's
    whole tiling, row-major."""
    region, field_name = resolve_browse_request(grid, req.region, req.relation)
    return getattr(estimator.estimate_batch(browsing_tile_batch(region, req.rows, req.cols)), field_name)


def expected_digest(estimator: SEulerApprox, grid: Grid, req: Req) -> bytes:
    """Digest of the in-process answer encoded the way
    ``GatewayResponse.to_wire`` + ``json.dumps`` encode counts.  Python
    writes a float as the shortest text that reads back to the same
    bits, so equal text means bit-equal rasters."""
    rows = expected_counts(estimator, grid, req).reshape(req.rows, req.cols)
    text = json.dumps([[float(v) if math.isfinite(v) else None for v in row] for row in rows])
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def distinct_tiles(plans: list[list[Req]], sent: list[set[int]], grid: Grid) -> int:
    """Distinct (relation field, tile) pairs among the requests sent
    (plan indices per connection): the working set a tile cache would
    have to hold."""
    keys = []
    fields = {}
    for plan, indices in zip(plans, sent):
        for req in {(plan[i].region, plan[i].rows, plan[i].cols, plan[i].relation) for i in indices}:
            region, field_name = resolve_browse_request(grid, req[0], req[3])
            b = browsing_tile_batch(region, req[1], req[2])
            f = fields.setdefault(field_name, len(fields))
            keys.append(
                (np.uint64(f) << np.uint64(60))
                | (b.qx_lo.astype(np.uint64) << np.uint64(45))
                | (b.qx_hi.astype(np.uint64) << np.uint64(30))
                | (b.qy_lo.astype(np.uint64) << np.uint64(15))
                | b.qy_hi.astype(np.uint64)
            )
    return int(np.unique(np.concatenate(keys)).size)


# --------------------------------------------------------------------- #
# the server under test
# --------------------------------------------------------------------- #


def start_server(hist_path: str) -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve`` at its defaults on a free port; returns the
    process, its port and the seconds until its ready line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", hist_path, "--port", "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if not line.startswith("serving dataset"):
        stop_process(proc)
        raise RuntimeError(f"repro serve did not come up: {line!r}")
    port = int(line.split(" for tenants:")[0].rsplit(":", 1)[1])
    return proc, port, ready


# --------------------------------------------------------------------- #
# the socket client
# --------------------------------------------------------------------- #


@dataclass
class Record:
    index: int  # position in the connection's plan
    pass_no: int
    sent: float
    received: float
    status: bytes
    digest: bytes | None
    nulls: int
    body: bytes | None  # kept only for degraded rasters


def summarize(resp: bytes) -> tuple[bytes, bytes | None, int, bytes | None]:
    """(status, counts digest, null tiles, counts text if degraded).

    Cheap on purpose: the client must not become the bottleneck, so it
    slices the counts out of the line instead of decoding it.
    """
    status = resp.split(b'"', 4)[3]
    start = resp.find(b'"counts": ')
    if start < 0:
        return status, None, 0, None
    start += len(b'"counts": ')
    end = resp.find(b', "valid_fraction"', start)
    counts = resp[start:end]
    nulls = counts.count(b"null")
    digest = hashlib.blake2b(counts, digest_size=16).digest()
    return status, digest, nulls, (counts if nulls or status != b"ok" else None)


class Connection(threading.Thread):
    """One closed-loop client connection replaying a plan from position
    ``start`` (plan index + pass number x plan length): ``warmup``
    unmeasured requests, then measured ones until ``stop_at``.
    ``next_seq`` is where the next server's connection continues."""

    def __init__(self, port: int, plan: list[Req], start: int, warmup: int, barrier: threading.Barrier):
        super().__init__(daemon=True)
        self.port = port
        self.plan = plan
        self.start_seq = start
        self.warmup = warmup
        self.barrier = barrier
        self.stop_at = math.inf
        self.next_seq = start
        self.records: list[Record] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with (
                socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock,
                sock.makefile("rb") as rfile,
            ):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                n = len(self.plan)
                for seq in range(self.start_seq, self.start_seq + self.warmup):
                    sock.sendall(self.plan[seq % n].line(seq // n))
                    if not rfile.readline():
                        raise ConnectionError("server closed the connection")
                seq = self.start_seq + self.warmup
                self.barrier.wait()
                while time.perf_counter() < self.stop_at:
                    index, pass_no = seq % n, seq // n
                    line = self.plan[index].line(pass_no)
                    sent = time.perf_counter()
                    sock.sendall(line)
                    resp = rfile.readline()
                    received = time.perf_counter()
                    if not resp:
                        raise ConnectionError("server closed the connection")
                    status, digest, nulls, body = summarize(resp)
                    self.records.append(Record(index, pass_no, sent, received, status, digest, nulls, body))
                    seq += 1
                self.next_seq = seq
        except Exception as exc:  # reported by the main thread
            self.error = exc
            self.barrier.abort()


def run_socket_phase(
    port: int,
    server_pid: int,
    plans: list[list[Req]],
    starts: list[int],
    warmups: list[int],
    seconds: float,
) -> dict:
    clock = {}

    def start_clock() -> None:
        clock["wall"] = time.perf_counter()
        clock["cpu"] = time.process_time()
        clock["server_cpu"] = process_cpu_s(server_pid)
        for conn in conns:
            conn.stop_at = clock["wall"] + seconds

    barrier = threading.Barrier(len(plans), action=start_clock)
    conns = [Connection(port, plan, s, w, barrier) for plan, s, w in zip(plans, starts, warmups)]
    for conn in conns:
        conn.start()
    for conn in conns:
        conn.join(seconds + 120)
        if conn.is_alive():
            raise RuntimeError("a client connection did not finish")
    for conn in conns:
        if conn.error is not None:
            raise RuntimeError(f"client connection failed: {conn.error!r}")
    wall = time.perf_counter() - clock["wall"]
    cpu = time.process_time() - clock["cpu"]
    server_cpu = process_cpu_s(server_pid) - clock["server_cpu"]
    return {"conns": conns, "wall_s": wall, "client_cpu_s": cpu, "server_cpu_s": server_cpu}


# --------------------------------------------------------------------- #
# the in-process replay (traced run)
# --------------------------------------------------------------------- #

SPAN_PARENTS = {
    "decode": "request",
    "submit": "request",
    "encode": "request",
    "browse": "submit",
    "estimate": "browse",
}


@dataclass(frozen=True)
class Row:
    """One measured request of a replay."""

    rid: tuple[int, int]
    ms: float
    nbytes: int
    queue_wait_s: float
    coalesced: bool
    tiles: int


class TracedSEuler(SEulerApprox):
    """S-EulerApprox whose ``estimate_batch`` records a span per call."""

    def __init__(self, histogram, tracer: Tracer, local: threading.local) -> None:
        super().__init__(histogram)
        self._tracer = tracer
        self._local = local
        self.tiles: list[tuple[object, int]] = []

    def estimate_batch(self, queries):
        with Span(self._tracer, self._local.rid, "estimate"):
            out = super().estimate_batch(queries)
        self.tiles.append((self._local.rid, len(queries)))
        return out


def serve_catalog(hist_path: str, estimator_factory):
    """A tenant catalog configured as ``repro serve`` configures one at
    its defaults (the defaults are read from the CLI parser)."""
    args = build_parser().parse_args(["serve", hist_path])
    histogram = EulerHistogram.load(hist_path)
    cache = TileResultCache(int(args.cache_mb * (1 << 20))) if args.cache_mb > 0 else None
    catalog = TenantCatalog()
    catalog.register_dataset(
        args.dataset_name,
        estimator_factory(histogram),
        histogram.grid,
        cache=cache,
        chunk_rows=args.chunk_rows,
    )
    catalog.add_tenant(TENANT)
    return catalog, cache, args


async def _replay(hist_path, plans, warm_seqs, measured_seqs, *, traced: bool, budget_s: float | None):
    """Replay request lines through the server's calls.

    ``warm_seqs`` run first (unmeasured, both connections concurrently),
    then ``measured_seqs``; with ``budget_s`` a connection stops once the
    budget is spent.  Returns the measured requests, how many each
    connection replayed, the tracer and the layer counters.
    """
    tracer = Tracer(SPAN_PARENTS, "request") if traced else None
    local = threading.local()
    estimators: list[TracedSEuler] = []

    def factory(histogram):
        if not traced:
            return SEulerApprox(histogram)
        est = TracedSEuler(histogram, tracer, local)
        estimators.append(est)
        return est

    catalog, cache, args = serve_catalog(hist_path, factory)
    gateway = Gateway(catalog, workers=args.workers, max_pending=args.max_pending)
    session_rid: dict[str, object] = {}
    if traced:
        service = catalog.service(TENANT, DATASET)
        inner = service.browse

        def browse(region, rows, cols, relation="overlap", **kwargs):
            rid = session_rid[kwargs.get("session")]
            local.rid = rid
            with Span(tracer, rid, "browse"):
                return inner(region, rows, cols, relation, **kwargs)

        service.browse = browse

    measured: list[Row] = []

    async def one(conn: int, k: int, req: Req, pass_no: int, measure: bool) -> None:
        rid = (conn, k)
        line = req.line(pass_no)
        if traced:
            session_rid[f"{TENANT}/{req.stem}-p{pass_no}"] = rid
        # One clock read between layers: the server runs them back to
        # back, so every instant of the request belongs to one layer.
        t0 = time.perf_counter()
        request = parse_request(json.loads(line))
        t1 = time.perf_counter()
        response = await gateway.submit(request)
        t2 = time.perf_counter()
        out = json.dumps(response.to_wire()).encode() + b"\n"
        t3 = time.perf_counter()
        if traced and measure:
            tracer.record(rid, "decode", t0, t1)
            tracer.record(rid, "submit", t1, t2)
            tracer.record(rid, "encode", t2, t3)
            tracer.record(rid, "request", t0, t3)
        elapsed = t3 - t0
        if response.status == "error":
            raise RuntimeError(f"replayed request failed: {response.error}")
        if measure:
            measured.append(
                Row(rid, elapsed * 1e3, len(out), response.queue_wait_s, response.coalesced, req.tiles)
            )

    async def drive(conn: int, seqs, measure: bool, deadline: float) -> int:
        plan = plans[conn]
        n = len(plan)
        done = 0
        for k, seq in enumerate(seqs):
            if time.perf_counter() >= deadline:
                break
            req = plan[seq % n]
            await one(conn, k if measure else -1 - k, req, seq // n, measure)
            done += 1
        return done

    try:
        await asyncio.gather(*(drive(c, s, False, math.inf) for c, s in enumerate(warm_seqs)))
        if traced:
            tracer.spans.clear()
            for est in estimators:
                est.tiles.clear()
        before = cache.stats()
        stats_before = dict(gateway.stats)
        deadline = time.perf_counter() + budget_s if budget_s is not None else math.inf
        counts = await asyncio.gather(
            *(drive(c, s, True, deadline) for c, s in enumerate(measured_seqs))
        )
        after = cache.stats()
        stats_after = dict(gateway.stats)
    finally:
        await gateway.close()
    return {
        "rows": measured,
        "counts": list(counts),
        "tracer": tracer,
        "estimates": [item for est in estimators for item in est.tiles],
        "cache": {k: after[k] - before[k] for k in ("hits", "misses", "evictions")},
        "cache_nbytes": after["nbytes"],
        "shed": sum(stats_after[k] - stats_before[k] for k in stats_after if k.startswith("shed_")),
    }


def replay(hist_path, plans, warm_seqs, measured_seqs, *, traced, budget_s=None):
    return asyncio.run(
        _replay(hist_path, plans, warm_seqs, measured_seqs, traced=traced, budget_s=budget_s)
    )


def layer_metrics(untraced: dict, traced: dict, main_conns: set[int]) -> dict:
    """Per-layer metrics from the traced replay.

    Times are means per request over the workload's main requests (the
    population ``op_p50_ms`` is taken over), so the layers of a request
    add up to its mean end-to-end time.  Cache and delta shares are over
    all requests, since both connections share the cache.
    """
    tracer: Tracer = traced["tracer"]
    main = [r for r in traced["rows"] if r.rid[0] in main_conns]
    rids = {r.rid for r in main}
    n = len(main)
    sums = tracer.layer_sums(rids)

    def self_ms(name: str) -> float:
        return sums.get(name, (0.0, 0.0))[1] * 1e3 / n

    def total_ms(name: str) -> float:
        return sums.get(name, (0.0, 0.0))[0] * 1e3 / n

    browsed = [r for r in main if not r.coalesced]
    rasters = max(len(browsed), 1)
    estimates = [tiles for rid, tiles in traced["estimates"] if rid in rids]
    est_tiles = sum(estimates)
    cache = traced["cache"]
    probed = cache["hits"] + cache["misses"]
    tiles_all = sum(r.tiles for r in traced["rows"] if not r.coalesced)
    untraced_med = median(r.ms for r in untraced["rows"] if r.rid[0] in main_conns)
    traced_med = median(r.ms for r in main)
    return {
        "gateway.server.decode_ms": self_ms("decode"),
        "gateway.server.encode_ms": self_ms("encode"),
        "gateway.server.bytes_per_raster": mean(r.nbytes for r in main),
        "gateway.gateway.submit_self_ms": self_ms("submit"),
        "gateway.gateway.queue_wait_ms": mean(r.queue_wait_s for r in main) * 1e3,
        "gateway.gateway.coalesced_frac": sum(r.coalesced for r in main) / n,
        "gateway.gateway.shed": traced["shed"],
        "browse.resilience.browse_ms": total_ms("browse"),
        "browse.resilience.self_ms": self_ms("browse"),
        "browse.resilience.estimate_calls_per_raster": len(estimates) / rasters,
        "browse.delta.reused_tile_frac": (tiles_all - probed) / tiles_all,
        "cache.tile_cache.hit_frac": cache["hits"] / probed if probed else 0.0,
        "cache.tile_cache.evictions": cache["evictions"],
        "cache.tile_cache.nbytes": traced["cache_nbytes"],
        "euler.estimate_ms": self_ms("estimate"),
        "euler.tiles_estimated": est_tiles / rasters,
        "euler.ns_per_tile": sums.get("estimate", (0.0, 0.0))[0] * 1e9 / est_tiles if est_tiles else 0.0,
        "bench.trace.overhead_frac": (traced_med - untraced_med) / untraced_med,
        "_consistency": {
            "main_requests": n,
            "tiles_estimated_all": sum(t for _, t in traced["estimates"]),
            "cache_misses_all": cache["misses"],
            "untraced_envelope_p50_ms": untraced_med,
            "traced_envelope_p50_ms": traced_med,
            "reconcile": tracer.reconcile(),
        },
    }


# --------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------- #


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    params = PARAMS[workload]
    hist_path, grid = make_histogram(workdir, seed)
    plans = make_plans(workload, grid, seed)
    if workload == "pan-sessions":
        warmups = [len(plan) * params["warmup_passes"] for plan in plans]
    else:
        warmups = [params["warmup_requests"]] * len(plans)

    # Each server warms up and then serves its share of the timed phase;
    # the connections continue the plans where the previous server's
    # connections stopped.
    setups, peak_rss, phases = [], [], []
    starts = [0] * len(plans)
    servers = params["servers"]
    for _ in range(servers):
        proc, port, ready = start_server(hist_path)
        setups.append(ready)
        try:
            phases.append(run_socket_phase(port, proc.pid, plans, starts, warmups, seconds / servers))
            peak_rss.append(vm_hwm_mb(proc.pid))
        finally:
            stop_process(proc)
        starts = [conn.next_seq for conn in phases[-1]["conns"]]

    # Sequence numbers each connection sent, warm-up included.
    sent_seqs = [set() for _ in plans]
    for phase in phases:
        for c, conn in enumerate(phase["conns"]):
            sent_seqs[c].update(range(conn.start_seq, conn.next_seq))
    records = [(c, r) for phase in phases for c, conn in enumerate(phase["conns"]) for r in conn.records]
    wall = sum(phase["wall_s"] for phase in phases)
    client_cpu_s = sum(phase["client_cpu_s"] for phase in phases)
    server_cpu_s = sum(phase["server_cpu_s"] for phase in phases)

    # ---- correctness: every raster on the wire vs estimate_batch ---- #
    estimator = SEulerApprox(EulerHistogram.load(hist_path))
    expected: dict[tuple[int, int], bytes] = {}
    mismatches = 0
    failed = 0
    tiles_total = tiles_degraded = 0
    for c, rec in records:
        req = plans[c][rec.index]
        tiles_total += req.tiles
        if rec.status == b"error" or rec.digest is None:
            failed += 1
            tiles_degraded += req.tiles
            continue
        tiles_degraded += rec.nulls
        key = (c, rec.index)
        if key not in expected:
            expected[key] = expected_digest(estimator, grid, req)
        if rec.body is None:
            if rec.digest != expected[key]:
                mismatches += 1
        else:
            # A partial raster: every tile it did answer must match.
            want = expected_counts(estimator, grid, req)
            got = np.array(
                [np.nan if v is None else v for row in json.loads(rec.body) for v in row],
                dtype=np.float64,
            )
            answered = ~np.isnan(got)
            if not np.array_equal(got[answered], want[answered]):
                mismatches += 1

    # ---- end-to-end metrics ---- #
    lat_all = [(r.received - r.sent) * 1e3 for _, r in records]
    if workload == "world-rasters":
        lat_main = [(r.received - r.sent) * 1e3 for c, r in records if c == 0]
    else:
        lat_main = lat_all
    lat_small = [
        (r.received - r.sent) * 1e3 for c, r in records if plans[c][r.index].tiles <= SMALL_TILES
    ]
    attempted = len(records)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": median(peak_rss),
        "ok_frac": 1.0 - failed / attempted,
        "full_answer_frac": 1.0 - tiles_degraded / tiles_total,
        "op_p50_ms": median(lat_main),
        "small_op_p75_ms": percentile(lat_small, 75),
        "ops_per_s": len(lat_main) / wall,
        "items_per_s": tiles_total / wall,
    }
    client_cpu_frac = client_cpu_s / wall
    cache_mb = build_parser().parse_args(["serve", hist_path]).cache_mb
    details = {
        "params": params,
        "server": "repro serve at its defaults",
        "deadline_s": DEADLINE_S,
        "dataset": f"adl x {DATASET_OBJECTS}",
        "grid": f"{GRID_CELLS[0]}x{GRID_CELLS[1]}",
        "connections": len(plans),
        "closed_loop": "zero think time",
        "setup_samples_s": setups,
        "peak_rss_samples_mb": peak_rss,
        "samples": {"all": len(lat_all), "main": len(lat_main), "small": len(lat_small)},
        "tails_ms": tails(lat_main, lat_small),
        "server_cpu_ms_per_op": server_cpu_s * 1e3 / attempted,
        "client_cpu_frac": client_cpu_frac,
        "client_saturated": client_cpu_frac >= CLIENT_SATURATION_FRAC,
        "cache_capacity_tiles": int(cache_mb * (1 << 20)) // ENTRY_BYTES,
        "distinct_tiles_requested": distinct_tiles(
            plans, [{k % len(plan) for k in seqs} for plan, seqs in zip(plans, sent_seqs)], grid
        ),
        "distinct_requests_checked": len(expected),
        "mismatches": mismatches,
        "wall_s": wall,
    }
    out = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }
    if not trace:
        return out

    # ---- traced run: replay the same lines in-process ---- #
    # One gateway replays the first server's warm-up, then the measured
    # requests of all servers in order.
    warm_seqs = [list(range(w)) for w in warmups]
    measured_seqs = [
        [r.pass_no * len(plan) + r.index for rc, r in records if rc == c]
        for c, plan in enumerate(plans)
    ]
    untraced = replay(hist_path, plans, warm_seqs, measured_seqs, traced=False, budget_s=seconds / 2)
    same = [seqs[:n] for seqs, n in zip(measured_seqs, untraced["counts"])]
    traced = replay(hist_path, plans, warm_seqs, same, traced=True)
    layers = layer_metrics(untraced, traced, {0} if workload == "world-rasters" else {0, 1})
    consistency = layers.pop("_consistency")
    layers["bench.client.cpu_frac"] = client_cpu_frac
    layers["bench.client.connections"] = len(plans)
    layers["bench.trace.unattributed_frac"] = consistency["reconcile"]["worst_gap_frac"]
    out["layers"] = layers
    out["details"]["trace"] = consistency
    out["correct"] = out["correct"] and consistency["reconcile"]["violations"] == 0
    return out

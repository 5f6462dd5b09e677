"""Shared helpers for the benchmark: statistics, spans, provenance and
the child-process protocol.

Everything here is benchmark-side code.  The program under test is
reached only through its public functions and its command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import stat
import subprocess
import sys
import threading
import time

#: Trace reconciliation tolerance: per request, the layer self times
#: must sum to the traced end-to-end time within this share of it ...
RECONCILE_FRAC = 0.05
#: ... or within this many milliseconds, whichever is larger (timer
#: calls alone cost a few microseconds on a sub-millisecond request).
RECONCILE_FLOOR_MS = 0.05

#: Client CPU seconds per wall second above which the load generator,
#: not the server, is taken to have saturated a core.
CLIENT_SATURATION_FRAC = 0.9

SRC_DIR = "src"


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tails(main, small) -> dict:
    """p90 and p99 of the main and small operations, for the report.

    They are not gated: on a shared virtual machine with two vCPUs the
    tail of a millisecond-scale request follows the hypervisor's steal
    share more than the program (see ``LAYERS.md``).
    """
    return {
        "op_p90": percentile(main, 90),
        "op_p99": percentile(main, 99),
        "small_op_p90": percentile(small, 90),
        "small_op_p99": percentile(small, 99),
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


class Tracer:
    """In-memory span recorder.

    A span is ``(request_id, name, start, end)`` in ``perf_counter``
    seconds.  The span tree is fixed per workload by ``parent_of``
    (span name -> parent span name), so a span needs no parent pointer:
    its parent is the span of the parent name with the same request id.
    ``list.append`` is atomic, so executor threads record directly.
    """

    def __init__(self, parent_of: dict[str, str], root: str) -> None:
        self.parent_of = parent_of
        self.root = root
        self.spans: list[tuple[object, str, float, float]] = []

    def record(self, rid, name: str, start: float, end: float) -> None:
        self.spans.append((rid, name, start, end))

    def self_times(self) -> dict[object, dict[str, tuple[float, float]]]:
        """Per request: span name -> (total seconds, self seconds).

        A layer's self time is its spans' total minus the total of its
        direct child spans.  Repeated spans of one name in one request
        (row chunks calling the estimator) are summed.
        """
        totals: dict[object, dict[str, float]] = {}
        for rid, name, start, end in self.spans:
            per = totals.setdefault(rid, {})
            per[name] = per.get(name, 0.0) + (end - start)
        out: dict[object, dict[str, tuple[float, float]]] = {}
        for rid, per in totals.items():
            child_sum: dict[str, float] = {}
            for name, total in per.items():
                parent = self.parent_of.get(name)
                if parent is not None:
                    child_sum[parent] = child_sum.get(parent, 0.0) + total
            out[rid] = {
                name: (total, total - child_sum.get(name, 0.0))
                for name, total in per.items()
            }
        return out

    def reconcile(self) -> dict:
        """Check that layer self times sum to each request's end-to-end
        span (the root) within the stated tolerance.

        The root's own self time is the unattributed remainder; a
        negative self time anywhere means a child span escaped its
        parent, i.e. double counting.
        """
        worst = 0.0
        violations = 0
        requests = 0
        for per in self.self_times().values():
            if self.root not in per:
                continue
            requests += 1
            total, unattributed = per[self.root]
            layers = sum(s for name, (_, s) in per.items() if name != self.root)
            gap = abs(total - layers)
            tol = max(RECONCILE_FRAC * total, RECONCILE_FLOOR_MS / 1e3)
            negative = any(s < -1e-6 for _, s in per.values())
            if gap > tol or negative:
                violations += 1
            if total > 0:
                worst = max(worst, gap / total)
        return {
            "requests": requests,
            "violations": violations,
            "worst_gap_frac": round(worst, 6),
            "tolerance": f"{RECONCILE_FRAC:.0%} of the request or "
            f"{RECONCILE_FLOOR_MS} ms, whichever is larger",
        }

    def layer_sums(self, rids=None) -> dict[str, tuple[float, float]]:
        """Span name -> (sum of totals, sum of self times) over requests
        (those in ``rids`` when given)."""
        sums: dict[str, list[float]] = {}
        for rid, per in self.self_times().items():
            if rids is not None and rid not in rids:
                continue
            for name, (total, own) in per.items():
                acc = sums.setdefault(name, [0.0, 0.0])
                acc[0] += total
                acc[1] += own
        return {name: (t, s) for name, (t, s) in sums.items()}


class Span:
    """``with Span(tracer, rid, name):`` records one span; a ``None``
    tracer records nothing."""

    __slots__ = ("tracer", "rid", "name", "start")

    def __init__(self, tracer: Tracer | None, rid, name: str) -> None:
        self.tracer = tracer
        self.rid = rid
        self.name = name

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.record(self.rid, self.name, self.start, time.perf_counter())


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #


def _git_tree_sha(path: str) -> str:
    """The git tree object id of ``path``, computed from the files.

    Equal to ``git rev-parse HEAD:<path>`` on a clean checkout, so a
    result can be tied to a commit even where the checkout is not a git
    repository.  Byte-code caches are skipped, as ``.gitignore`` does.
    """
    entries = []
    for name in os.listdir(path):
        if name == "__pycache__" or name.endswith(".pyc"):
            continue
        full = os.path.join(path, name)
        mode = os.lstat(full).st_mode
        if stat.S_ISDIR(mode):
            entries.append((name + "/", b"40000", name, bytes.fromhex(_git_tree_sha(full))))
        elif stat.S_ISREG(mode):
            with open(full, "rb") as handle:
                data = handle.read()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            file_mode = b"100755" if mode & stat.S_IXUSR else b"100644"
            entries.append((name, file_mode, name, blob))
    entries.sort(key=lambda e: e[0].encode())
    body = b"".join(m + b" " + n.encode() + b"\0" + sha for _, m, n, sha in entries)
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_commit(),
        "src_tree_sha": _git_tree_sha(SRC_DIR),
    }


# --------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------- #


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath(SRC_DIR)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests since boot."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def host_probe_ms() -> float:
    """Best of three timings of a fixed pure-Python loop, in ms.

    A shared host can run the same code at very different speeds from
    one minute to the next without any steal time showing; this probe,
    taken before and after a run, tells that drift apart from a change
    in the program.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def stop_process(proc: subprocess.Popen, *, grace_s: float = 10.0) -> None:
    """Interrupt, then kill if needed; always reaps the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)  # the CLI's clean shutdown path
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(grace_s)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


#: Line a child prints when its timed phase is over; it then blocks on
#: stdin until the parent has read its peak RSS, so the figure covers
#: the timed work and not the correctness check that follows.
PHASE_DONE = "PERFBENCH-TIMED-PHASE-DONE"


def run_child(script: str, args: dict, *, timeout_s: float) -> tuple[dict, float]:
    """Run ``python3 <script>`` with ``args`` as JSON on argv; returns
    its last stdout line, decoded, and its timed-phase peak RSS in MiB."""
    proc = subprocess.Popen(
        [sys.executable, script, json.dumps(args)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    peak = None
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == PHASE_DONE:
                peak = vm_hwm_mb(proc.pid)
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line:
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        stop_process(proc)
    if code != 0:
        raise RuntimeError(f"{script} exited with code {code}")
    if peak is None:
        raise RuntimeError(f"{script} never reported the end of its timed phase")
    return json.loads(last), peak


def child_phase_done() -> None:
    """Child side of :data:`PHASE_DONE`: report, wait for the parent."""
    print(PHASE_DONE, flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("parent went away before reading peak RSS")


def setup_src_path() -> None:
    """Make ``src`` importable, or exit non-zero when it is missing."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: no {SRC_DIR}/repro here; run from the repository root", file=sys.stderr)
        raise SystemExit(2)
    src = os.path.abspath(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)

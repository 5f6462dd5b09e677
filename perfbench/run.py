"""Run the repository's benchmark: one workload, or all of them.

Usage, from the repository root::

    python3 perfbench/run.py --workload pan-sessions --seed 1 --seconds 18 --trace 0

``--workload all`` runs the four workloads one after another.
Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
layer map behind the per-layer metrics is in ``perfbench/LAYERS.md``.
With ``--trace 0`` the result carries every end-to-end metric, with
``--trace 1`` every per-layer metric (layers a workload does not run
read 0).  Each workload prints two lines: a report (host fingerprint,
seed, workload parameters, raw samples), then the result object, so the
last stdout line is the last workload's result.  The exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import host_fingerprint, host_probe_ms, host_steal_s, run_child, setup_src_path  # noqa: E402

SERVING = ("pan-sessions", "world-rasters")
WORKLOADS = SERVING + ("zoned-build", "join-search")
WORK_ROOT = ".perfbench_work"
#: Budget for a child's set-up, timed phase, checks and traced replay.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    if workload in SERVING:
        import serving

        return serving.run(workload, seed, seconds, trace, workdir)
    if workload == "zoned-build":
        import zoned

        paths = zoned.make_inputs(workdir, seed)
        spill = os.path.join(workdir, "spill")
        os.makedirs(spill)
        args = {**paths, "seconds": seconds, "trace": trace, "spill_dir": spill}
        out, peak_rss = run_child(os.path.join(HERE, "zoned.py"), args, timeout_s=CHILD_TIMEOUT_S)
    else:
        args = {"seconds": seconds, "trace": trace, "seed": seed}
        out, peak_rss = run_child(os.path.join(HERE, "search.py"), args, timeout_s=CHILD_TIMEOUT_S)
    out["metrics"]["peak_rss_mb"] = peak_rss
    return out


def run_and_print(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> bool:
    """Run one workload, print its report and result lines; returns
    whether its correctness checks passed."""
    workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    probe_before = host_probe_ms()
    steal0, wall0 = host_steal_s(), time.perf_counter()
    try:
        out = run_workload(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    # Share of this VM's CPU time the hypervisor gave to other guests
    # during the run: a noisy-neighbour indicator for the timings.
    steal_frac = (host_steal_s() - steal0) / ((time.perf_counter() - wall0) * os.cpu_count())
    probe_ms = [probe_before, host_probe_ms()]

    if trace:
        wanted, values = spec["per_layer"], out.get("layers", {})
    else:
        wanted, values = spec["end_to_end"], out["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values and not trace:
            raise RuntimeError(f"workload {workload} did not measure {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": m["unit"]}

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {
            **host_fingerprint(),
            "steal_frac": round(steal_frac, 4),
            "probe_ms": [round(p, 2) for p in probe_ms],
        },
        "end_to_end": out["metrics"],
        "per_layer": out.get("layers"),
        "details": out["details"],
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    if not out["correct"]:
        print(f"error: {workload}: correctness check failed; see the report line", file=sys.stderr)
    return result["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    setup_src_path()
    # A terminated run still stops the server or child it started and
    # removes its work directory (the ``finally`` blocks run on exit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every process of the run (client, server, child) shares one CPU.
    # On the 2-vCPU shared virtual machine the benchmark was written on,
    # keeping both vCPUs busy drew 18-34% steal time from the hypervisor
    # and every timing swung with it; on one CPU steal stayed under 5%
    # and the serving figures were both faster and steadier.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_and_print(w, args.seed, args.seconds, bool(args.trace), spec) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

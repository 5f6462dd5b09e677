"""The ``join-search`` workload, run as a fresh child process per run.

One thread runs a closed loop of ``JoinSearchEngine`` searches over two
catalogs on either side of the prune/exhaustive crossover:

- ``compact``: 16x8 reference grid, 256 summaries of all four families;
  the pyramid is shallow and pruning costs more than it saves;
- ``fine``: 64x32 reference grid, 1024 summaries of the three histogram
  families; pruning skips most of the scan at small k.

The mix is dataset-mode top-k at small and large k, and region-mode
searches.  Run by ``run.py``; argv[1] is a JSON object of arguments.
Prints one JSON result line last.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Span, Tracer, child_phase_done, mean, median, percentile, tails  # noqa: E402

from repro.geometry.rect import Rect  # noqa: E402
from repro.grid.grid import Grid  # noqa: E402
from repro.joins import (  # noqa: E402
    DATASET_METRICS,
    REGION_METRICS,
    JoinSearchEngine,
    JoinSketch,
    SummaryCatalog,
    score_dataset_batch,
    score_region_scalar,
)
from repro.workloads.catalogs import (  # noqa: E402
    catalog_estimator,
    generate_catalog_sources,
    generate_query_regions,
)

WORLD = Rect(0.0, 360.0, 0.0, 180.0)
OBJECTS_PER_SOURCE = 1500
QUERIES_PER_CATALOG = 16
SMALL_K = 10
SETUP_REPEATS = 3
#: Exact (``ExactEvaluator``) summaries are left out of the fine catalog:
#: sketching one onto a 64x32 reference grid costs ~55 ms, which would
#: put ~14 s of set-up into every repeat.  Summaries are 64x32 in both
#: catalogs (4x the compact reference per axis, equal to the fine one):
#: at 128x64 the estimators alone would hold ~1 GB.
CATALOGS = {
    "compact": {
        "reference": (16, 8),
        "summary_cells": (64, 32),
        "summaries": 256,
        "families": ("seuler", "euler", "meuler", "exact"),
        "big_k": 100,
    },
    "fine": {
        "reference": (64, 32),
        "summary_cells": (64, 32),
        "summaries": 1024,
        "families": ("seuler", "euler", "meuler"),
        "big_k": 200,
    },
}

SPAN_PARENTS = {"search": "request", "stack": "search"}


def make_inputs(seed: int) -> dict:
    """Per catalog: (reference grid, named estimators, query sketches,
    query regions), all drawn from ``seed``."""
    out = {}
    for c, (name, spec) in enumerate(CATALOGS.items()):
        reference = Grid(WORLD, *spec["reference"])
        summary_grid = Grid(WORLD, *spec["summary_cells"])
        sources = generate_catalog_sources(
            reference, spec["summaries"], OBJECTS_PER_SOURCE, seed=seed * 101 + c
        )
        families = spec["families"]
        estimators = [
            (d.name, catalog_estimator(d, families[i % len(families)], summary_grid))
            for i, d in enumerate(sources)
        ]
        held_out = generate_catalog_sources(
            reference,
            QUERIES_PER_CATALOG,
            OBJECTS_PER_SOURCE,
            seed=seed * 101 + 50 + c,
            name_prefix="query",
        )
        queries = [JoinSketch.from_dataset(d, reference, name=d.name) for d in held_out]
        regions = generate_query_regions(reference, QUERIES_PER_CATALOG, seed=seed * 101 + 80 + c)
        out[name] = (reference, estimators, queries, regions)
    return out


def build_catalog(reference: Grid, estimators) -> tuple[SummaryCatalog, float, float]:
    """Register every summary, then the first ``stacked()``; returns the
    catalog and (total seconds, stack seconds)."""
    start = time.perf_counter()
    catalog = SummaryCatalog(reference)
    for name, estimator in estimators:
        catalog.register(name, estimator)
    stack_start = time.perf_counter()
    catalog.stacked()
    end = time.perf_counter()
    return catalog, end - start, end - stack_start


def make_ops(inputs: dict, rng: np.random.Generator) -> list[tuple]:
    """The closed loop's op list: (catalog, mode, query, metric, k)."""
    ops = []
    for name, (_, _, queries, regions) in inputs.items():
        big_k = CATALOGS[name]["big_k"]
        for i, query in enumerate(queries):
            ops.append((name, "dataset", query, DATASET_METRICS[i % 3], SMALL_K))
            ops.append((name, "dataset", query, DATASET_METRICS[(i + 1) % 3], big_k))
        for i, region in enumerate(regions):
            ops.append((name, "region", region, REGION_METRICS[i % len(REGION_METRICS)], SMALL_K))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def search(engine: JoinSearchEngine, op, *, prune: bool = True):
    _, mode, query, metric, k = op
    if mode == "dataset":
        return engine.search_dataset(query, metric=metric, k=k, prune=prune)
    return engine.search_region(query, metric=metric, k=k)


def region_reference(stacked, region, metric: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k from the per-summary scalar reference, ties by index."""
    col = REGION_METRICS.index(metric)
    scores = np.array([score_region_scalar(stacked, region, i)[col] for i in range(len(stacked))])
    order = np.lexsort((np.arange(len(scores)), -scores))[:k]
    return order, scores[order]


def main() -> int:
    args = json.loads(sys.argv[1])
    seconds, trace, seed = args["seconds"], args["trace"], args["seed"]
    inputs = make_inputs(seed)

    setups, stack_s = [], {name: [] for name in CATALOGS}
    catalogs = {}
    for _ in range(SETUP_REPEATS):
        catalogs.clear()  # one catalog generation in memory at a time
        total = 0.0
        for name, (reference, estimators, _, _) in inputs.items():
            catalog, took, stacked_took = build_catalog(reference, estimators)
            total += took
            stack_s[name].append(stacked_took)
            catalogs[name] = catalog
        setups.append(total)
    engines = {name: JoinSearchEngine(catalog) for name, catalog in catalogs.items()}

    ops = make_ops(inputs, np.random.default_rng(seed))
    latencies, small, first = [], [], {}
    attempted = failed = ranked = wanted = items = 0
    cpu_start = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = search(engines[op[0]], op)
        except Exception as exc:  # a failed search counts, the loop goes on
            print(f"search failed: {exc!r}", file=sys.stderr)
            failed += 1
            i += 1
            continue
        took = (time.perf_counter() - t0) * 1e3
        latencies.append(took)
        if op[4] <= SMALL_K:
            small.append(took)
        ranked += len(result.indices)
        wanted += op[4]
        items += result.candidates
        first.setdefault(i % len(ops), result)
        i += 1
    wall = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    child_phase_done()

    # ---- correctness: pruned top-k == exhaustive top-k ---- #
    mismatches = 0
    for index, result in first.items():
        op = ops[index]
        if op[1] == "dataset":
            want = search(engines[op[0]], op, prune=False)
            want_idx, want_scores = want.indices, want.scores
            same_names = result.names == want.names
        else:
            want_idx, want_scores = region_reference(catalogs[op[0]].stacked(), op[2], op[3], op[4])
            same_names = True
        if not (
            same_names
            and np.array_equal(result.indices, want_idx)
            and np.array_equal(result.scores, want_scores)
        ):
            mismatches += 1

    out = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "ok_frac": 1.0 - failed / attempted,
            "full_answer_frac": ranked / wanted if wanted else 0.0,
            "op_p50_ms": median(latencies),
            "small_op_p75_ms": percentile(small, 75),
            "ops_per_s": attempted / wall,
            "items_per_s": items / wall,
        },
        "details": {
            "catalogs": CATALOGS,
            "objects_per_source": OBJECTS_PER_SOURCE,
            "ops_in_mix": len(ops),
            "setup_samples_s": setups,
            "samples": {"all": len(latencies), "small_k": len(small)},
            "tails_ms": tails(latencies, small),
            "distinct_ops_checked": len(first),
            "mismatches": mismatches,
            "cpu_ms_per_op": cpu_s * 1e3 / attempted,
            "threads": 1,
            "closed_loop": "zero think time",
        },
    }
    if trace:
        out["layers"], out["details"]["trace"] = traced(catalogs, engines, ops, stack_s, latencies)
        out["correct"] = out["correct"] and out["details"]["trace"]["reconcile"]["violations"] == 0
    print(json.dumps(out))
    return 0


def traced(catalogs, engines, ops, stack_s, untraced_ms) -> tuple[dict, dict]:
    """Per-layer metrics: a traced pass over the op mix, then per catalog
    the pruned search, the exhaustive search and the scoring kernel on
    the same dataset queries."""
    tracer = Tracer(SPAN_PARENTS, "request")
    current = {"rid": None}
    for catalog in catalogs.values():
        inner = catalog.stacked

        def stacked(inner=inner):
            with Span(tracer, current["rid"], "stack"):
                return inner()

        catalog.stacked = stacked
    envelopes = []
    for rid, op in enumerate(ops):
        current["rid"] = rid
        start = time.perf_counter()
        with Span(tracer, rid, "request"):
            with Span(tracer, rid, "search"):
                search(engines[op[0]], op)
        envelopes.append((time.perf_counter() - start) * 1e3)
    for catalog in catalogs.values():
        del catalog.stacked  # back to the class method, untraced

    layers: dict = {}
    for name in CATALOGS:
        stacked = catalogs[name].stacked()
        dataset_ops = [op for op in ops if op[0] == name and op[1] == "dataset"]
        pruned, pruned_ms, exhaustive_ms, score_ms = [], [], [], []
        for op in dataset_ops:
            t0 = time.perf_counter()
            pruned.append(search(engines[name], op))
            t1 = time.perf_counter()
            search(engines[name], op, prune=False)
            t2 = time.perf_counter()
            score_dataset_batch(stacked, op[2])
            t3 = time.perf_counter()
            pruned_ms.append((t1 - t0) * 1e3)
            exhaustive_ms.append((t2 - t1) * 1e3)
            score_ms.append((t3 - t2) * 1e3)
        layers[f"joins.catalog.stack_ms.{name}"] = median(stack_s[name]) * 1e3
        layers[f"joins.search.pruned_frac.{name}"] = mean(r.pruned / r.candidates for r in pruned)
        layers[f"joins.search.fully_scored.{name}"] = mean(r.fully_scored for r in pruned)
        layers[f"joins.scoring.score_ms.{name}"] = median(score_ms)
        layers[f"joins.search.pruned_ms.{name}"] = median(pruned_ms)
        layers[f"joins.search.exhaustive_ms.{name}"] = median(exhaustive_ms)
    reconcile = tracer.reconcile()
    untraced = median(untraced_ms)
    layers["bench.trace.overhead_frac"] = (median(envelopes) - untraced) / untraced
    layers["bench.trace.unattributed_frac"] = reconcile["worst_gap_frac"]
    return layers, {"reconcile": reconcile, "traced_p50_ms": median(envelopes)}


if __name__ == "__main__":
    sys.exit(main())

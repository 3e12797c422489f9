"""Traced, in-process run of one workload pass.

Wraps the public functions of each companysim module, in every module
namespace that binds them (``cli`` imports names with ``from .x import y``,
so wrapping only the defining module would miss those calls), then calls
``companysim.cli.main(argv)`` for each stage. Spans (id, name, start, end,
parent) are kept in memory and written out at the end, with per-function
self times, call counts and a few counters read from return values.

    python3 perfbench/trace.py --workload W --data DIR --out DIR --result FILE [--plain]

With ``--plain`` no function is wrapped; the wall time difference between
a traced and a plain run is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402

# module -> public functions whose spans the per-layer metrics need.
TRACED = {
    "similarity": (
        "load_returns_csv", "pairwise_return_correlation", "top_k_peers",
        "avg_peer_correlation", "gics_baseline_correlation",
        "sector_outlier_scores",
    ),
    "attribution": (
        "monthly_cumulative_returns", "attribution_metric", "cross_sectional_fit",
    ),
    "cluster": (
        "agglomerative", "cluster_sweep", "pca", "kmeans", "cluster_quality",
        "knn_affinity", "spectral_embedding", "reduce_dims",
    ),
    "classify": (
        "fit_classifier", "objective", "gradient", "evaluate",
        "soft_class_distribution",
    ),
    "textprep": ("tokenize", "clean_text", "prepare_chunks"),
    "providers": ("tfidf_fit", "tfidf_embed", "remote_embed"),
    "embeddings": ("embed_corpus",),
    "cache": ("save_cache", "load_cache", "sync_cache"),
    "corpus": ("load_corpus", "stratified_split"),
}

EMBED_STAGES = ("embed", "resume")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stack: list[int] = [-1]
        self.stage = ""
        self.counters: dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def run(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append((span_id, name, 0.0, 0.0, self.stack[-1]))
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[span_id] = (span_id, name, start, end, self.stack[-1])

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result = self.run(name, fn, args, kwargs)
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for span_id, name, start, end, _ in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child_time[span_id])
        return out


def _file_bytes(path) -> int:
    path = Path(path)
    ids = path.with_name(path.name + ".ids")
    return sum(p.stat().st_size for p in (path, ids) if p.exists())


def _in_embed(tracer: Tracer, name: str, amount: float = 1) -> None:
    if tracer.stage in EMBED_STAGES:
        tracer.add(name, amount)


# function -> hook(tracer, result, args, kwargs) reading counters off calls
AFTER = {
    "similarity.load_returns_csv": lambda t, r, a, k: t.add(
        "similarity.load_returns_csv.rows", sum(len(s) for s in r.series.values())),
    "similarity.avg_peer_correlation": lambda t, r, a, k: t.add(
        "similarity.skipped_pairs", r.skipped_pairs),
    "similarity.gics_baseline_correlation": lambda t, r, a, k: t.add(
        "similarity.skipped_pairs", r.skipped_pairs),
    "attribution.attribution_metric": lambda t, r, a, k: t.add(
        "attribution.degenerate_months", len(r.degenerate_months)),
    "classify.fit_classifier": lambda t, r, a, k: t.add(
        "classify.fit_classifier.iters", r.n_iter),
    "textprep.tokenize": lambda t, r, a, k: _in_embed(t, "embed.tokenize"),
    "textprep.clean_text": lambda t, r, a, k: _in_embed(t, "embed.clean_text"),
    "textprep.prepare_chunks": lambda t, r, a, k: t.add(
        "embeddings.chunks", len(r)),
    "corpus.load_corpus": lambda t, r, a, k: _in_embed(t, "embed.documents", len(r)),
    "cache.load_cache": lambda t, r, a, k: t.add(
        "cache.bytes_read", _file_bytes(a[0] if a else k["path"])),
    "cache.save_cache": lambda t, r, a, k: t.add(
        "cache.bytes_written", _file_bytes(a[1] if len(a) > 1 else k["path"])),
}


def install(tracer: Tracer) -> int:
    """Replace each traced function in every companysim module that binds
    it; returns the number of bindings replaced."""
    replaced = 0
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "companysim" or name.startswith("companysim.")]
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"companysim.{module_name}")
        for name in names:
            original = getattr(module, name)
            key = f"{module_name}.{name}"
            wrapper = tracer.wrap(key, original, AFTER.get(key))
            for m in modules:
                if getattr(m, name, None) is original:
                    setattr(m, name, wrapper)
                    replaced += 1
    return replaced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process pass")
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--plain", action="store_true",
                        help="install no wrappers: the untraced baseline")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import companysim.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    bindings = 0 if args.plain else install(tracer)
    data = Path(args.data).resolve()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    codes = []
    for stage in pipeline.WORKLOADS[args.workload]:
        tracer.stage = stage.metric
        code = tracer.run(f"cli.{stage.metric}", cli.main,
                          (pipeline.argv(stage, data),), {})
        codes.append(code)
        if code != 0:
            break
    wall = time.perf_counter() - start

    with open(out / "spans.csv", "w", encoding="utf-8") as f:
        f.write("id,name,start,end,parent\n")
        for span_id, name, s, e, parent in tracer.spans:
            f.write(f"{span_id},{name},{s - start:.9f},{e - start:.9f},{parent}\n")
    result = {
        "import_s": import_s,
        "wall_s": wall,
        "bindings": bindings,
        "spans": len(tracer.spans),
        "codes": codes,
        "layers": {name: {"calls": c, "self_s": s}
                   for name, (c, s) in sorted(tracer.self_times().items())},
        "counters": tracer.counters,
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f, sort_keys=True, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

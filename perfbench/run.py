"""companysim benchmark: one sequential client running each workload's CLI
stages as separate ``companysim`` processes (a closed loop: each stage
starts after the previous one exits).

    python3 perfbench/run.py --workload returns-panel --seed 1 --seconds 36 --trace 0

Set-up (input generation and, for remote-embed, starting the stub
embedding service) is repeated and timed apart from the stages. Then whole
passes over the workload's stages run until ``--seconds`` would be
exceeded; each stage is timed from spawn to exit and its rusage read with
``os.wait4``. Every output of every stage is checked against the reference
recorded for this workload and seed, and passes must write byte-identical
files. The last stdout line is one JSON object; ``--trace 1`` reports the
per-layer metrics of a traced in-process pass (see trace.py) instead of
the end-to-end ones. Everything is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import pipeline  # noqa: E402

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # stages still running after this are killed: a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "pipeline_cpu_s": "s", "peak_rss_mb": "MB",
}
# Also printed, but not in the JSON line: failed_frac is 0 on a correct
# run, and no workload runs every stage.
REPORTED_UNITS = {"failed_frac": "1"} | {
    f"{m}_s": "s" for m in pipeline.STAGE_METRICS
}

PER_LAYER_UNITS = {
    "similarity.load_returns_csv.s": "s",
    "similarity.load_returns_csv.rows": "count",
    "similarity.pairwise_return_correlation.calls": "count",
    "similarity.pairwise_return_correlation.s": "s",
    "similarity.top_k_peers.calls": "count",
    "similarity.top_k_peers.s": "s",
    "similarity.avg_peer_correlation.s": "s",
    "similarity.gics_baseline_correlation.s": "s",
    "similarity.skipped_pairs": "count",
    "similarity.sector_outlier_scores.s": "s",
    "attribution.monthly_cumulative_returns.s": "s",
    "attribution.attribution_metric.s": "s",
    "attribution.cross_sectional_fit.calls": "count",
    "attribution.degenerate_months": "count",
    "cluster.agglomerative.calls": "count",
    "cluster.agglomerative.s": "s",
    "cluster.cluster_sweep.s": "s",
    "cluster.pca.s": "s",
    "cluster.kmeans.calls": "count",
    "cluster.kmeans.s": "s",
    "cluster.cluster_quality.s": "s",
    "cluster.knn_affinity.s": "s",
    "cluster.spectral_embedding.s": "s",
    "cluster.reduce_dims.s": "s",
    "classify.fit_classifier.s": "s",
    "classify.fit_classifier.iters": "count",
    "classify.objective.calls": "count",
    "classify.gradient.calls": "count",
    "classify.evaluate.s": "s",
    "classify.soft_class_distribution.s": "s",
    "textprep.tokenize.calls": "count",
    "textprep.tokenize.s": "s",
    "textprep.tokenize.per_doc": "count/doc",
    "textprep.clean_text.per_doc": "count/doc",
    "textprep.clean_text.calls": "count",
    "textprep.clean_text.s": "s",
    "textprep.prepare_chunks.s": "s",
    "providers.tfidf_fit.s": "s",
    "providers.tfidf_embed.calls": "count",
    "providers.tfidf_embed.s": "s",
    "providers.remote_embed.calls": "count",
    "providers.remote_embed.s": "s",
    "providers.remote.requests": "count",
    "providers.remote.connections": "count",
    "providers.remote.retries": "count",
    "providers.remote.server_s": "s",
    "embeddings.embed_corpus.s": "s",
    "embeddings.chunks": "count",
    "cache.save_cache.s": "s",
    "cache.load_cache.calls": "count",
    "cache.load_cache.s": "s",
    "cache.sync_cache.s": "s",
    "cache.bytes_read": "B",
    "cache.bytes_written": "B",
    "corpus.load_corpus.calls": "count",
    "corpus.load_corpus.s": "s",
    "corpus.stratified_split.s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


for _m in pipeline.STAGE_METRICS:
    PER_LAYER_UNITS[f"cli.{_m}.self_s"] = "s"
    PER_LAYER_UNITS[f"cli.{_m}.rss_mb"] = "MB"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Stub embedding service


class Stub:
    """The stub server in its own process; stdin closing stops it."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise RuntimeError("stub server did not report its port")
        self.port = int(line[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Running stages


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _timed(cmd: list[str], cwd: Path, err: Path, deadline: float) -> dict:
    """Run one process to exit through launch.py: wall time from spawn to
    exit, CPU time and peak RSS from its rusage, and its exit code."""
    timeout = max(1.0, deadline - time.perf_counter())
    with open(err, "wb") as err_file:
        proc = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), f"{timeout:.3f}", *cmd],
            cwd=cwd, env=_child_env(), stdout=subprocess.PIPE, stderr=err_file,
        )
    if proc.returncode != 0:
        return {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
                "code": f"launcher exit {proc.returncode}"}
    return json.loads(proc.stdout)


def _corpus_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line)["company_id"] for line in f if line.strip()]


def run_pass(workload: str, data: Path, pass_dir: Path, stub, deadline: float) -> dict:
    """Run every stage of the workload once, digesting each stage's outputs
    as soon as it exits (a later stage may rewrite them)."""
    pass_dir.mkdir(parents=True)
    if stub is not None:
        stub.reset()
    stages, digests = [], {}
    for i, stage in enumerate(pipeline.WORKLOADS[workload]):
        cmd = [sys.executable, "-m", "companysim.cli", *pipeline.argv(stage, data)]
        r = _timed(cmd, pass_dir, pass_dir / f"stage{i}.err", deadline)
        r.update(metric=stage.metric, problems=[])
        if r["code"] != 0:
            r["problems"].append(f"exit code {r['code']}")
        else:
            digest_outputs(i, stage, pass_dir, data, digests, r["problems"])
        stages.append(r)
        if r["problems"]:
            break
    return {
        "stages": stages,
        "digests": digests,
        "stub": stub.stats() if stub is not None else None,
    }


def digest_outputs(index: int, stage, pass_dir: Path, data: Path,
                   digests: dict, problems: list[str]) -> None:
    for name in stage.outputs:
        try:
            digests[pipeline.output_key(index, stage, name)] = check.digest(
                pass_dir / name)
        except (OSError, ValueError, UnicodeDecodeError) as e:
            problems.append(f"{name}: unreadable ({e})")
    if "cache.bin.ids" in stage.outputs and not problems:
        args = pipeline.argv(stage, data)
        corpus = Path(args[args.index("--corpus") + 1])
        ids = (pass_dir / "cache.bin.ids").read_text(encoding="utf-8").split()
        if ids != _corpus_ids(corpus):
            problems.append("cache ids differ from the embedded corpus ids")


# ---------------------------------------------------------------------------
# Output checks


def check_reference(p: dict, reference: dict) -> None:
    """Compare every digest of a pass with the recorded reference values."""
    for key, got in p["digests"].items():
        problems = (check.compare(got, reference[key]) if key in reference
                    else ["no reference value"])
        _stage_of(p, key)["problems"].extend(f"{key}: {x}" for x in problems)


def check_identical(first: dict, other: dict) -> None:
    """Files from two passes of the same code must be byte-identical."""
    for key, got in other["digests"].items():
        want = first["digests"].get(key)
        if want is not None and want["sha256"] != got["sha256"]:
            _stage_of(other, key)["problems"].append(
                f"{key}: not byte-identical to the first pass")


def _stage_of(p: dict, key: str) -> dict:
    return p["stages"][int(key.split(".", 1)[0])]


# ---------------------------------------------------------------------------
# Metrics


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
    }


def pass_metrics(p: dict) -> dict:
    stages = p["stages"]
    out = {
        "pipeline_s": sum(s["wall_s"] for s in stages),
        "pipeline_cpu_s": sum(s["cpu_s"] for s in stages),
        "peak_rss_mb": max(s["rss_mb"] for s in stages),
    }
    for s in stages:
        key = f"{s['metric']}_s"
        out[key] = out.get(key, 0.0) + s["wall_s"]
    return out


def e2e_metrics(passes: list[dict], setup: list[float]) -> dict:
    """Each stage's median wall time, CPU time and peak RSS over the
    passes, summed (RSS: maximum) over the stages; set-up time is the
    median of its repeats."""
    typical = []
    for i, first in enumerate(passes[0]["stages"]):
        runs = [p["stages"][i] for p in passes if i < len(p["stages"])]
        typical.append({"metric": first["metric"], **{
            k: statistics.median(r[k] for r in runs)
            for k in ("wall_s", "cpu_s", "rss_mb")}})
    return {"setup_s": statistics.median(setup), **pass_metrics({"stages": typical})}


def layer_metrics(trace: dict, overhead_s: float, traced_stub: dict | None,
                  untraced: dict) -> dict:
    """Per-layer values from a traced pass; stage peak RSS comes from the
    untraced subprocess pass, where each stage is its own process."""
    layers, counters = trace["layers"], trace["counters"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".calls"):
            values[name] = calls(name[:-len(".calls")])
        elif name.endswith(".s") and name[:-2] in layers:
            values[name] = self_s(name[:-2])
        elif name.endswith(".self_s"):
            values[name] = self_s(name[:-len(".self_s")])
        else:
            values[name] = counters.get(name, 0)
    documents = counters.get("embed.documents", 0)
    for fn in ("tokenize", "clean_text"):
        values[f"textprep.{fn}.per_doc"] = (
            counters.get(f"embed.{fn}", 0) / documents if documents else 0.0)
    stub = traced_stub or {}
    values["providers.remote.requests"] = stub.get("requests", 0)
    values["providers.remote.connections"] = stub.get("connections", 0)
    values["providers.remote.retries"] = (
        stub.get("requests", 0) - calls("providers.remote_embed"))
    values["providers.remote.server_s"] = stub.get("handler_s", 0.0)
    values["cli.import_s"] = trace["import_s"]
    for s in untraced["stages"]:
        key = f"cli.{s['metric']}.rss_mb"
        values[key] = max(values.get(key) or 0.0, s["rss_mb"])
    values["trace.overhead_s"] = overhead_s
    return values


# ---------------------------------------------------------------------------
# Main


def setup(workload: str, size: str, seed: int, data: Path):
    """Generate the inputs (and start the stub service for remote-embed).
    Returns the running stub, or None."""
    import gen

    stub = Stub() if workload == "remote-embed" else None
    endpoint = {"endpoint": stub.url} if stub is not None else None
    gen.generate(workload, size, seed, data, endpoint=endpoint)
    return stub


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    with open(REFERENCE, encoding="utf-8") as f:
        table = json.load(f)
    return table.get(workload, {}).get(size, {}).get(str(seed))


def record_reference(workload: str, size: str, seed: int, digests: dict) -> None:
    table = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as f:
            table = json.load(f)
    entry = {k: {"exact": d["exact"], "floats": d["floats"]}
             for k, d in sorted(digests.items())}
    table.setdefault(workload, {}).setdefault(size, {})[str(seed)] = entry
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(table, f, sort_keys=True, indent=1)
        f.write("\n")


def run_in_process(workload: str, data: Path, out: Path, stub, deadline: float,
                   plain: bool) -> tuple:
    """One in-process pass through trace.py, traced unless ``plain``.
    Returns (trace result or None, wall, stub stats, pass record holding
    the digests of the final outputs)."""
    name = "plain" if plain else "traced"
    result_file = out / f"{name}.json"
    if stub is not None:
        stub.reset()
    cmd = [sys.executable, str(HERE / "trace.py"), "--workload", workload,
           "--data", str(data), "--out", str(out / name),
           "--result", str(result_file)] + (["--plain"] if plain else [])
    r = _timed(cmd, out, out / f"{name}.err", deadline)
    stub_stats = stub.stats() if stub is not None else None
    stages = pipeline.WORKLOADS[workload]
    record = {"stages": [{"metric": s.metric, "problems": []} for s in stages],
              "digests": {}}
    trace = None
    if r["code"] == 0:
        with open(result_file, encoding="utf-8") as f:
            trace = json.load(f)
        for i, s in enumerate(record["stages"]):
            if i >= len(trace["codes"]):
                s["problems"].append("not run")
            elif trace["codes"][i] != 0:
                s["problems"].append(f"exit code {trace['codes'][i]}")
    else:
        for s in record["stages"]:
            s["problems"].append(f"{name} run exit code {r['code']}")
    if not any(s["problems"] for s in record["stages"]):
        # only the last stage writing each file left it on disk
        last = {file_name: (i, stage) for i, stage in enumerate(stages)
                for file_name in stage.outputs}
        for file_name, (i, stage) in sorted(last.items()):
            try:
                record["digests"][pipeline.output_key(i, stage, file_name)] = (
                    check.digest(out / name / file_name))
            except (OSError, ValueError, UnicodeDecodeError) as e:
                record["stages"][i]["problems"].append(
                    f"{file_name}: unreadable ({e})")
    return trace, r["wall_s"], stub_stats, record


def measure(args, data: Path, out: Path, deadline: float) -> dict:
    """Set up ``SETUP_REPEATS`` times, then run the passes: subprocess
    passes for ``--seconds``, or one subprocess, one traced and one plain
    pass with ``--trace 1``."""
    import gen

    setup_s, stub = [], None
    passes, layers = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if stub is not None:
                stub.stop()
            if data.exists():
                shutil.rmtree(data)
            t0 = time.perf_counter()
            stub = setup(args.workload, args.size, args.seed, data)
            setup_s.append(time.perf_counter() - t0)
        if args.trace:
            untraced = run_pass(args.workload, data, out / "pass1", stub, deadline)
            trace, traced_wall, traced_stub, traced = run_in_process(
                args.workload, data, out, stub, deadline, plain=False)
            _, plain_wall, _, plain = run_in_process(
                args.workload, data, out, stub, deadline, plain=True)
            passes = [untraced, traced, plain]
            if trace is not None and not any(
                    s["problems"] for p in passes for s in p["stages"]):
                layers = layer_metrics(trace, traced_wall - plain_wall,
                                       traced_stub, untraced)
        else:
            start = time.perf_counter()
            while True:
                p = run_pass(args.workload, data, out / f"pass{len(passes) + 1}",
                             stub, deadline)
                passes.append(p)
                wall = pass_metrics(p)["pipeline_s"]
                if (any(s["problems"] for s in p["stages"])
                        or time.perf_counter() - start + wall > args.seconds
                        or time.perf_counter() + 1.5 * wall > deadline):
                    break
    finally:
        if stub is not None:
            stub.stop()
    return {
        "setup_s": setup_s,
        "passes": passes,
        "layers": layers,
        "inputs": gen.properties(args.workload, args.size, data),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(run: dict, metrics: dict) -> None:
    """The human-readable lines, then the JSON result line."""
    print(f"workload {run['workload']} seed {run['seed']} size {run['size']}: "
          f"{run['passes']} pass(es), {run['attempted']} stage runs, "
          f"{run['failed']} failed, reference {run['reference']}")
    print("inputs " + json.dumps(run["inputs"], sort_keys=True))
    print("environment " + json.dumps(run["environment"], sort_keys=True))
    for stages in run["stages"]:
        for s in stages:
            for problem in s["problems"]:
                print(f"FAILED {s['metric']}: {problem}")
    for name, unit in (E2E_UNITS | REPORTED_UNITS).items():
        if name in run["e2e"]:
            print(f"  {name:<16} {_fmt(run['e2e'][name])} {unit}")
        else:
            print(f"  {name:<16} - (stage not in this workload)")
    if run["trace"]:
        for name, m in metrics.items():
            print(f"  {name:<46} {_fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="companysim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the seed's reference")
    args = parser.parse_args(argv)
    if not (SRC / "companysim" / "cli.py").is_file():
        return _fail(f"no companysim sources under {SRC}")
    start = time.perf_counter()
    out = OUT / args.workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = environment()
    env["loadavg_start"] = list(os.getloadavg())
    m = measure(args, out / "data", out, deadline=start + RUN_LIMIT_S)
    env["loadavg_end"] = list(os.getloadavg())
    passes, layers = m["passes"], m["layers"]

    if args.record and not any(s["problems"] for s in passes[0]["stages"]):
        record_reference(args.workload, args.size, args.seed, passes[0]["digests"])
    reference = load_reference(args.workload, args.size, args.seed)
    for p in passes:
        if reference is not None:
            check_reference(p, reference)
        if p is not passes[0]:
            check_identical(passes[0], p)

    attempted = len(pipeline.WORKLOADS[args.workload]) * len(passes)
    failed = attempted - sum(
        1 for p in passes for s in p["stages"] if not s["problems"])
    e2e = e2e_metrics(passes[:1] if args.trace else passes, m["setup_s"])
    e2e["failed_frac"] = failed / attempted
    run = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and (layers is not None or not args.trace),
        "reference": "recorded" if reference is not None else "absent",
        "environment": env, "inputs": m["inputs"], "setup_s": m["setup_s"],
        "e2e": e2e, "layers": layers,
        "stages": [p["stages"] for p in passes],
        "stub": [p.get("stub") for p in passes],
        "wall_s": time.perf_counter() - start,
    }
    with open(out / "result.json", "w", encoding="utf-8") as f:
        json.dump(run, f, sort_keys=True, indent=2)
    if args.trace:
        metrics = {k: {"value": (layers or {}).get(k, 0), "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    report(run, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

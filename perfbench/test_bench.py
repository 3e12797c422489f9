"""Tests of the benchmark harness itself, at the tiny input size.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(pipeline.WORKLOADS))
def test_smoke_every_workload_passes_its_checks(workload):
    result = _result(_bench("--workload", workload, "--seed", "0",
                            "--seconds", "1", "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((run.OUT / workload / "result.json").read_text())
    assert record["reference"] == "recorded"


def test_traced_run_reports_every_layer_metric():
    result = _result(_bench("--workload", "remote-embed", "--seed", "0",
                            "--seconds", "1", "--trace", "1", "--size", "tiny"))
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["providers.remote_embed.calls"]["value"] == 24


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(pipeline.WORKLOADS)


def test_perturbed_report_is_caught(tmp_path):
    data = tmp_path / "data"
    stub = run.setup("returns-panel", "tiny", 0, data)
    assert stub is None
    p = run.run_pass("returns-panel", data, tmp_path / "pass", None,
                     deadline=time.perf_counter() + 120)
    assert not any(s["problems"] for s in p["stages"])
    reference = {k: {"exact": d["exact"], "floats": d["floats"]}
                 for k, d in p["digests"].items()}

    peers = tmp_path / "pass" / "peers.json"
    report = json.loads(peers.read_text())
    report["embedding"]["rho_bar"] += 1e-3
    peers.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    top = tmp_path / "pass" / "top.csv"
    lines = top.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # two peers change rank
    top.write_text("\n".join(lines) + "\n")

    key_peers = pipeline.output_key(1, pipeline.WORKLOADS["returns-panel"][1], "peers.json")
    key_top = pipeline.output_key(1, pipeline.WORKLOADS["returns-panel"][1], "top.csv")
    assert check.compare(check.digest(peers), reference[key_peers])
    assert check.compare(check.digest(top), reference[key_top])

    # a change below the stated tolerance is accepted, but is not byte-identical
    report["embedding"]["rho_bar"] -= 1e-3 - 1e-9
    peers.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    again = check.digest(peers)
    assert check.compare(again, reference[key_peers]) == []
    assert again["sha256"] != p["digests"][key_peers]["sha256"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "returns-panel", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

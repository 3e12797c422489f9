"""The CLI bounds OpenBLAS's idle spin before numpy loads, keeps a value the
user set, and writes the same bytes whatever the spin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from companysim import synth
from companysim.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Records OPENBLAS_THREAD_TIMEOUT at the first import of numpy, then runs the
# CLI as ``python -m companysim.cli --help`` does.
_WATCH_NUMPY_IMPORT = """
import os, runpy, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None
sys.meta_path.insert(0, Watch())
sys.argv = ["companysim", "--help"]
try:
    runpy.run_module("companysim.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0, e.code
print(seen)
"""

# Runs each argv through the CLI's ``main`` in this one process, so every
# stage's products run under the OpenBLAS settings the process started with.
_RUN_STAGES = """
import json, sys
from companysim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def _env(timeout: str | None) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.parametrize("preset, expected", [(None, "22"), ("7", "7")])
def test_thread_timeout_is_in_place_before_numpy_loads(preset, expected):
    done = subprocess.run([sys.executable, "-c", _WATCH_NUMPY_IMPORT],
                          env=_env(preset), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr([expected])


def test_outputs_do_not_depend_on_the_thread_timeout(tmp_path):
    # 400 companies at the industry level (12 classes): the classifier's
    # 320 x 309 by 309 x 12 products are large enough for OpenBLAS to split
    # across its threads, which a sector-level fit (6 classes) is not.
    data = tmp_path / "data"
    assert synth.main(["--out-dir", str(data), "--companies", "400",
                       "--seed", "5", "--years", "2021"]) == 0
    inputs = ["--corpus", data / "corpus.jsonl", "--hierarchy", data / "hierarchy.csv"]
    cache = data / "emb.bin"
    assert main([str(a) for a in ["--quiet", "embed", *inputs, "--out", cache]]) == 0
    config = data / "config.json"
    config.write_text('{"classify": {"level": "industry"}}')
    stages = [
        ["classify", "--cache", cache, *inputs, "--model-out", "model.json",
         "--report-out", "classify.json", "--soft-out", "soft.jsonl"],
        ["peers", "--cache", cache, "--returns", data / "returns.csv", *inputs,
         "--out", "peers.json", "--top-out", "top.csv"],
        ["cluster", "--cache", cache, *inputs, "--out", "assign.csv",
         "--quality-out", "quality.json", "--sweep-out", "sweep.csv"],
        ["project", "--cache", cache, "--method", "spectral", "--out", "project.csv"],
    ]
    # the CLI's default, then OpenBLAS's own; one process runs every stage
    outs = {timeout: tmp_path / f"timeout-{timeout}" for timeout in (None, "28")}
    argvs = json.dumps([["--quiet", "--config", str(config), *map(str, argv)]
                        for argv in stages])
    for timeout, out in outs.items():
        out.mkdir()
        done = subprocess.run([sys.executable, "-c", _RUN_STAGES, argvs],
                              cwd=out, env=_env(timeout), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    default, spinning = outs.values()
    names = sorted(p.name for p in default.iterdir())
    assert len(names) == 9
    assert sorted(p.name for p in spinning.iterdir()) == names
    for name in names:
        assert (default / name).read_bytes() == (spinning / name).read_bytes(), name

"""The package's declared runtime dependencies are exactly the third-party
modules its source imports, and the remote provider runs without
``requests``."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_remote import Stub, vector_for

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "companysim"


def _imported_top_level_modules():
    """Top-level names of every absolute import in the package source,
    function-local imports included."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in requirements}


def test_declared_dependencies_are_the_third_party_imports():
    third_party = {m for m in _imported_top_level_modules()
                   if m not in sys.stdlib_module_names and m != "companysim"}
    assert third_party == _declared_dependencies() == {"numpy"}


def test_remote_embed_runs_without_requests():
    script = (
        "import json, sys\n"
        "sys.modules['requests'] = None  # any import of it now fails\n"
        "from companysim.providers import remote_embed\n"
        "vectors = remote_embed(sys.argv[1], 'm', ['alpha', 'beta'])\n"
        "print(json.dumps([v.tolist() for v in vectors]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    stub = Stub()
    try:
        done = subprocess.run([sys.executable, "-c", script, stub.url], env=env,
                              capture_output=True, text=True, timeout=60)
    finally:
        stub.close()
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [vector_for("alpha"), vector_for("beta")]
    assert len(stub.log) == 1

"""The package namespace imports nothing, so each module loads only what it
imports itself. These checks catch a name a function reads but its module
never binds (it would fail only when that function runs), and keep
``import companysim.cli`` loading every module whose functions the traced
benchmark (``perfbench/trace.py``) wraps: it wraps the bindings of the
modules loaded at that point."""

import builtins
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "companysim").glob("*.py"))
MODULE_ATTRIBUTES = {"__name__", "__file__", "__doc__", "__spec__", "__package__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def _unbound_globals(path: Path) -> list[str]:
    """``scope: name`` for each global a nested scope reads that the module
    never binds and that is not a builtin."""
    module = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {s.get_name() for s in module.get_symbols()
             if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins)) | MODULE_ATTRIBUTES
    return [
        f"{scope.get_name()}: {s.get_name()}"
        for scope in _scopes(module) if scope is not module
        for s in scope.get_symbols()
        if s.is_global() and s.is_referenced() and s.get_name() not in known
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_global_a_function_reads_is_bound(path):
    assert _unbound_globals(path) == []


def test_unbound_global_check_finds_a_dropped_import(tmp_path):
    source = (SRC / "companysim" / "cli.py").read_text(encoding="utf-8")
    dropped = "    sector_outlier_scores,\n"
    assert source.count(dropped) == 1
    broken = tmp_path / "cli.py"
    broken.write_text(source.replace(dropped, ""), encoding="utf-8")
    assert _unbound_globals(broken) == ["cmd_outliers: sector_outlier_scores"]


def _loaded_after(statement: str) -> set[str]:
    code = (f"import sys; {statement}; "
            "print(' '.join(m for m in sys.modules if m.startswith('companysim')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    return set(out.split())


def test_package_import_loads_no_submodule():
    assert _loaded_after("import companysim") == {"companysim"}


def test_module_import_loads_only_its_own_imports():
    assert _loaded_after("import companysim.cluster") == {
        "companysim", "companysim.cluster", "companysim.errors",
        "companysim.outputs"}


def test_cli_import_loads_every_traced_module():
    assert _loaded_after("import companysim.cli") >= {
        f"companysim.{name}" for name in (
            "similarity", "attribution", "cluster", "classify", "textprep",
            "providers", "embeddings", "cache", "corpus")
    }


def test_cli_import_loads_no_openssl():
    """Only the stages that take a digest import ``hashlib``, whose OpenSSL
    binding maps libcrypto (a few MB of resident memory) into the process."""
    code = "import sys, companysim.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.split() == ["False"]

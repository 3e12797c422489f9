"""The traced benchmark (``perfbench/trace.py``) wraps companysim functions
by name and reads some of their arguments by position, and its input
generation (``perfbench/gen.py``) imports companysim names. Its own tests
live outside the tier-1 test paths, so these checks keep a rename or
deletion in ``src/`` from breaking a benchmark run unnoticed."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _assigned(name):
    """The AST value assigned to the module-level ``name`` in trace.py."""
    tree = ast.parse(TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{TRACE} assigns no {name}")


def _traced():
    return [
        (module, name)
        for module, names in ast.literal_eval(_assigned("TRACED")).items()
        for name in names
    ]


@pytest.mark.parametrize("module,name", _traced(), ids=lambda v: str(v))
def test_every_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"companysim.{module}"), name))


def test_every_hooked_function_is_traced():
    hooked = [ast.literal_eval(key) for key in _assigned("AFTER").keys]
    traced = {f"{module}.{name}" for module, name in _traced()}
    assert hooked and set(hooked) <= traced


@pytest.mark.parametrize("name,position", [("load_cache", 0), ("save_cache", 1)])
def test_cache_hooks_find_the_path_where_they_read_it(name, position):
    # the byte counters read ``path`` as this positional argument
    module = importlib.import_module("companysim.cache")
    params = list(inspect.signature(getattr(module, name)).parameters)
    assert params[position] == "path"


def _perfbench_imports():
    """(module, name) of every ``from companysim.<m> import <name>`` in
    ``perfbench/*.py``."""
    found = []
    for path in sorted(TRACE.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").startswith("companysim.")):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_perfbench_imports_some_companysim_names():
    assert ("companysim.similarity", "ReturnPanel") in _perfbench_imports()


@pytest.mark.parametrize("module,name", _perfbench_imports(), ids=lambda v: str(v))
def test_every_perfbench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_return_panel_offers_what_input_generation_reads():
    # perfbench/gen.py builds a panel from a mapping and reads it back
    # through ``series`` and ``companies()``; trace.py counts ``series``
    from companysim.similarity import ReturnPanel

    panel = ReturnPanel({"b": {"2021-01-05": 0.5}, "a": {"2021-01-04": 0.25}})
    assert panel.companies() == ["a", "b"]
    assert {k: dict(v) for k, v in panel.series.items()} == {
        "a": {"2021-01-04": 0.25}, "b": {"2021-01-05": 0.5}}

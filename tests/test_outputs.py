"""Every output file is replaced whole: a write that fails part way leaves
the target with its old bytes, or absent if it is new, and no temporary
file beside it. Only ``companysim.outputs`` opens a file to write it."""

import ast
import builtins
import io
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from companysim import cli, synth
from companysim.attribution import (
    attribution_metric,
    monthly_cumulative_returns,
    save_attribution_csv,
)
from companysim.cache import export_jsonl, load_cache, save_cache
from companysim.classify import load_model, save_model
from companysim.cli import main
from companysim.cluster import load_assignment, save_assignment, save_sweep_csv
from companysim.corpus import (
    GicsHierarchy,
    generate_finetune_pairs,
    load_corpus,
    save_corpus,
    save_pairs,
)
from companysim.errors import ComputationError
from companysim.outputs import replacing, write_json, write_rows
from companysim.similarity import load_returns_csv, save_returns_csv

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "companysim"


def _cli(*argv):
    code = main([str(a) for a in argv])
    if code == 2:  # the exit code of an i/o error
        raise OSError("the command failed to write")
    assert code == 0


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Synthetic inputs plus one run of each stage whose output a later
    stage reads."""
    root = tmp_path_factory.mktemp("ws")
    assert synth.main(["--out-dir", str(root), "--companies", "40",
                       "--seed", "5", "--years", "2021"]) == 0
    gics = ["--corpus", root / "corpus.jsonl", "--hierarchy", root / "hierarchy.csv"]
    _cli("embed", *gics, "--out", root / "emb.bin")
    _cli("classify", "--cache", root / "emb.bin", *gics,
         "--model-out", root / "model.json", "--report-out", root / "classify.json")
    _cli("peers", "--cache", root / "emb.bin", "--returns", root / "returns.csv",
         *gics, "--out", root / "peers.json")
    _cli("cluster", "--cache", root / "emb.bin", "--out", root / "assign.csv")
    _cli("attribute", "--assignment", root / "assign.csv",
         "--returns", root / "returns.csv", "--out", root / "attribution.json")
    return root


def _gics(ws):
    return ["--corpus", ws / "corpus.jsonl", "--hierarchy", ws / "hierarchy.csv"]


def _classify(ws, out):
    _cli("classify", "--cache", ws / "emb.bin", *_gics(ws),
         "--model-out", out / "model.json", "--report-out", out / "classify.json",
         "--text-report", out / "classify.txt", "--soft-out", out / "soft.jsonl",
         "--csv-report", out / "runs.csv")


def _peers(ws, out):
    _cli("peers", "--cache", ws / "emb.bin", "--returns", ws / "returns.csv",
         *_gics(ws), "--out", out / "peers.json",
         "--top-out", out / "top.csv", "--csv-out", out / "peers.csv")


def _cluster(ws, out):
    _cli("cluster", "--cache", ws / "emb.bin", *_gics(ws),
         "--out", out / "assign.csv", "--quality-out", out / "quality.json",
         "--sweep-out", out / "sweep.csv")


def _attribute(ws, out):
    _cli("attribute", "--assignment", ws / "assign.csv",
         "--returns", ws / "returns.csv", "--random-baseline",
         "--out", out / "attribution.json", "--csv-out", out / "attribution.csv")


_SWEEP = [{"method": "kmeans", "n_clusters": k, "reduced_dim": 5, "homogeneity": 0.5,
           "completeness": 0.25, "v_measure": 1 / 3, "seed": 0} for k in (2, 3)]

# name -> (output file names, a function of (workspace, output dir) that
# writes them)
WRITERS = {
    "save_assignment": (["assign.csv"], lambda ws, out: save_assignment(
        load_assignment(ws / "assign.csv"), out / "assign.csv")),
    "save_sweep_csv": (["sweep.csv"], lambda ws, out: save_sweep_csv(
        _SWEEP, out / "sweep.csv")),
    "save_attribution_csv": (["attribution.csv"], lambda ws, out: save_attribution_csv(
        attribution_metric(monthly_cumulative_returns(load_returns_csv(ws / "returns.csv")),
                           load_assignment(ws / "assign.csv")),
        out / "attribution.csv")),
    "save_model": (["model.json"], lambda ws, out: save_model(
        load_model(ws / "model.json"), out / "model.json")),
    "save_corpus": (["corpus.jsonl"], lambda ws, out: save_corpus(
        load_corpus(ws / "corpus.jsonl", ws / "hierarchy.csv"), out / "corpus.jsonl")),
    "save_pairs": (["pairs.csv"], lambda ws, out: save_pairs(
        generate_finetune_pairs(load_corpus(ws / "corpus.jsonl", ws / "hierarchy.csv"), seed=0),
        out / "pairs.csv")),
    "GicsHierarchy.to_csv": (["hierarchy.csv"], lambda ws, out: GicsHierarchy.from_csv(
        ws / "hierarchy.csv").to_csv(out / "hierarchy.csv")),
    "save_cache": (["emb.bin", "emb.bin.ids"], lambda ws, out: save_cache(
        load_cache(ws / "emb.bin"), out / "emb.bin")),
    "export_jsonl": (["emb.jsonl"], lambda ws, out: export_jsonl(
        load_cache(ws / "emb.bin"), out / "emb.jsonl")),
    "save_returns_csv": (["returns.csv"], lambda ws, out: save_returns_csv(
        load_returns_csv(ws / "returns.csv"), out / "returns.csv")),
    "embed --out": (["emb.bin", "emb.bin.ids"], lambda ws, out: _cli(
        "embed", *_gics(ws), "--out", out / "emb.bin")),
    "embed --export-jsonl": (["emb.jsonl"], lambda ws, out: _cli(
        "embed", *_gics(ws), "--out", out / "emb.bin",
        "--export-jsonl", out / "emb.jsonl")),
    "pairs --out": (["pairs.csv"], lambda ws, out: _cli(
        "pairs", *_gics(ws), "--out", out / "pairs.csv")),
    "classify --model-out": (["model.json"], _classify),
    "classify --report-out": (["classify.json"], _classify),
    "classify --text-report": (["classify.txt"], _classify),
    "classify --soft-out": (["soft.jsonl"], _classify),
    "classify --csv-report": (["runs.csv"], _classify),
    "peers --out": (["peers.json"], _peers),
    "peers --top-out": (["top.csv"], _peers),
    "peers --csv-out": (["peers.csv"], _peers),
    "cluster --out": (["assign.csv"], _cluster),
    "cluster --quality-out": (["quality.json"], _cluster),
    "cluster --sweep-out": (["sweep.csv"], _cluster),
    "attribute --out": (["attribution.json"], _attribute),
    "attribute --csv-out": (["attribution.csv"], _attribute),
    "project --out": (["project.csv"], lambda ws, out: _cli(
        "project", "--cache", ws / "emb.bin", "--out", out / "project.csv")),
    "outliers --out": (["outliers.csv"], lambda ws, out: _cli(
        "outliers", "--cache", ws / "emb.bin", *_gics(ws), "--out", out / "outliers.csv")),
    "report --out": (["summary.txt"], lambda ws, out: _cli(
        "report", "--classify", ws / "classify.json", "--peers", ws / "peers.json",
        "--attribution", ws / "attribution.json", "--out", out / "summary.txt")),
}


class _FailingFile:
    """A file whose first write keeps half of its data, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _fail_writes_to(monkeypatch, names):
    """Make every open of a file named in ``names``, or of a file beside
    it whose name extends one (a temporary), for writing fail part way.
    Both ``open`` and ``io.open`` (which ``Path.open`` calls) are patched,
    so this holds whichever module opens the file. Returns the list of
    files it failed."""
    real_open = io.open
    failed = []

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        name = Path(os.fspath(file)).name
        if set(mode) & set("wax") and any(
                name == n or name.startswith(n + ".") for n in names):
            failed.append(name)
            return _FailingFile(f)
        return f

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    return failed


def _snapshot(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
@pytest.mark.parametrize("writer", WRITERS)
def test_interrupted_write_leaves_the_old_output(ws, tmp_path, monkeypatch,
                                                 writer, existing):
    names, write = WRITERS[writer]
    write(ws, tmp_path)
    if not existing:
        for name in names:
            (tmp_path / name).unlink()
    before = _snapshot(tmp_path)

    failed = _fail_writes_to(monkeypatch, names)
    with pytest.raises(OSError):
        write(ws, tmp_path)
    monkeypatch.undo()

    assert failed  # the write did reach the target
    assert _snapshot(tmp_path) == before
    assert not list(tmp_path.glob("*.tmp"))


def test_replacing_writes_text_verbatim_and_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    with replacing(path) as f:
        f.write("café\r\nline\n")
    assert path.read_bytes() == "café\r\nline\n".encode("utf-8")
    with replacing(path, binary=True) as f:
        f.write(b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_replacing_keeps_the_target_until_a_clean_exit(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    with pytest.raises(KeyboardInterrupt):
        with replacing(path) as f:
            f.write("new")
            f.flush()
            assert path.read_bytes() == b"old"
            [temp] = [p for p in tmp_path.iterdir() if p != path]
            assert temp.name == f"out.txt.{os.getpid()}.tmp"
            assert temp.read_bytes() == b"new"
            raise KeyboardInterrupt
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_bytes() == b"old"


def _special_targets(tmp_path):
    """A FIFO, a link to a FIFO and a directory, by name."""
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "to_fifo").symlink_to(tmp_path / "fifo")
    (tmp_path / "dir").mkdir()
    return ["fifo", "to_fifo", "dir"]


def test_replacing_refuses_a_target_that_is_not_a_regular_file(tmp_path):
    for name in _special_targets(tmp_path):
        with pytest.raises(OSError, match="not a regular file"):
            with replacing(tmp_path / name) as f:
                f.write("new")
    assert (tmp_path / "fifo").is_fifo()
    assert os.readlink(tmp_path / "to_fifo") == str(tmp_path / "fifo")
    assert (tmp_path / "dir").is_dir() and not any((tmp_path / "dir").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "fifo", "to_fifo"]


def test_replacing_replaces_a_link_rather_than_following_it(tmp_path):
    (tmp_path / "file").write_bytes(b"old")
    (tmp_path / "to_file").symlink_to(tmp_path / "file")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    for name in ("to_file", "dangling"):
        with replacing(tmp_path / name) as f:
            f.write("new")
        assert not (tmp_path / name).is_symlink()
        assert (tmp_path / name).read_bytes() == b"new"
    assert (tmp_path / "file").read_bytes() == b"old"
    assert not (tmp_path / "missing").exists()


def test_a_link_into_proc_is_refused_even_to_a_regular_file(ws, tmp_path):
    """``/dev/stdout`` redirected to a file is such a link: it resolves to
    the file, so the regular-file check alone would let it be replaced."""
    (tmp_path / "file").write_bytes(b"old")
    with open(tmp_path / "file", "rb") as f:
        (tmp_path / "link").symlink_to(f"/proc/self/fd/{f.fileno()}")
        assert os.path.isfile(tmp_path / "link")
        with pytest.raises(OSError, match="/dev or /proc"):
            with replacing(tmp_path / "link") as out:
                out.write("new")
        assert main(["pairs", *map(str, _gics(ws)), "--out", str(tmp_path / "link")]) == 2
    assert (tmp_path / "file").read_bytes() == b"old"
    assert os.readlink(tmp_path / "link").startswith("/proc/self/fd/")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "link"]


@pytest.mark.parametrize("target", ["/dev/stdout", "/dev/null", "/dev/shm/out.csv",
                                    "/proc/self/fd/1"])
def test_targets_under_dev_or_proc_are_refused(target):
    with pytest.raises(OSError, match="/dev or /proc"):
        with replacing(target) as out:
            out.write("new")


def test_csv_report_on_a_fifo_is_refused_without_reading_it(ws, tmp_path):
    """Run apart, so that a read blocking on the FIFO fails the test
    instead of stalling it."""
    os.mkfifo(tmp_path / "runs.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "companysim.cli", "classify",
         "--cache", ws / "emb.bin", *_gics(ws),
         "--model-out", tmp_path / "model.json",
         "--report-out", tmp_path / "classify.json",
         "--csv-report", tmp_path / "runs.csv"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 2, proc.stderr
    assert "not a regular file" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "runs.csv").is_fifo()
    assert not list(tmp_path.glob("*.tmp"))


def test_write_rows_and_write_json_layouts(tmp_path):
    # a field holding a line break is quoted whatever the line end
    write_rows(tmp_path / "a.csv", ["x", "y"],
               [["1", "a,b"], [2, ""], ["cr\rhere", "lf\nhere"]])
    assert (tmp_path / "a.csv").read_bytes() == (
        b'x,y\n1,"a,b"\n2,\n"cr\rhere","lf\nhere"\n')
    write_rows(tmp_path / "b.csv", ("x",), [["1"], ["cr\rhere"]], lineterminator="\r\n")
    assert (tmp_path / "b.csv").read_bytes() == b'x\r\n1\r\n"cr\rhere"\r\n'
    write_json(tmp_path / "a.json", {"b": 1, "a": [1]})
    assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": [\n    1\n  ],\n  "b": 1\n}\n'
    write_json(tmp_path / "b.json", {"b": 1, "a": "é"}, indent=None)
    assert (tmp_path / "b.json").read_bytes() == b'{"a": "\\u00e9", "b": 1}\n'


def test_csv_report_appends_the_bytes_an_append_would(ws, tmp_path):
    """The appended table is the old bytes, whatever they hold, then the new
    row; only an empty table gets the header."""
    _classify(ws, tmp_path)
    row = (tmp_path / "runs.csv").read_bytes().split(b"\n", 1)[1]
    old = b"odd,\xff\r\nno final newline"
    (tmp_path / "runs.csv").write_bytes(old)
    _classify(ws, tmp_path)
    assert (tmp_path / "runs.csv").read_bytes() == old + row


# ---------------------------------------------------------------------------
# Static check: the write policy lives in companysim.outputs only


def _mode(call: ast.Call):
    """The mode argument of an ``open`` call, or None if it has none. A
    method's mode is the first mode-like string literal among its first two
    arguments (``path.open("w")``, ``io.open(path, "w")``), so
    ``opener.open(request)`` and ``archive.open("name")`` have none."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    if isinstance(call.func, ast.Name):
        return call.args[1] if len(call.args) > 1 else None
    return next((arg for arg in call.args[:2] if isinstance(arg, ast.Constant)
                 and isinstance(arg.value, str) and re.fullmatch(r"[rwaxbt+]+", arg.value)),
                None)


def _writes(source: str) -> list[str]:
    """``line: call`` for each call in ``source`` that opens a file to
    write, append or create it, or whose mode cannot be read statically."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            found.append(f"{node.lineno}: {name}")
        elif name == "open":
            mode = _mode(node)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                found.append(f"{node.lineno}: open with a computed mode")
            elif set(mode.value) & set("wax+"):
                found.append(f"{node.lineno}: open {mode.value!r}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "outputs.py"],
    ids=lambda p: p.name)
def test_only_the_outputs_module_opens_files_to_write(path):
    assert _writes(path.read_text(encoding="utf-8")) == []


def test_write_check_finds_each_kind_of_write():
    source = (
        'open(p, "w")\n'
        'open(p, mode="ab")\n'
        'Path(p).open("x", encoding="utf-8")\n'
        'p.open(mode="r+")\n'
        'p.write_text("x")\n'
        'p.write_bytes(b"x")\n'
        'open(p, m)\n'
        'open(p)\n'
        'open(p, "rb")\n'
        'p.open(newline="")\n'
        'opener.open(request, timeout=1)\n'
        'archive.open("name")\n'
        'io.open(p, "a")\n'
    )
    assert _writes(source) == [
        "1: open 'w'", "2: open 'ab'", "3: open 'x'", "4: open 'r+'",
        "5: write_text", "6: write_bytes", "7: open with a computed mode",
        "13: open 'a'",
    ]



_CLASSIFY_FILES = ("model.json", "classify.json", "classify.txt", "soft.jsonl", "runs.csv")


def _classify_argv(ws, out, csv_report="runs.csv"):
    return [str(a) for a in (
        "classify", "--cache", ws / "emb.bin", *_gics(ws),
        "--model-out", out / "model.json", "--report-out", out / "classify.json",
        "--text-report", out / "classify.txt", "--soft-out", out / "soft.jsonl",
        "--csv-report", out / csv_report)]


def _old_outputs(out) -> dict:
    for name in _CLASSIFY_FILES:
        (out / name).write_bytes(b"old\n")
    return _snapshot(out)


def test_classify_checks_every_output_path_before_the_fit(ws, tmp_path, monkeypatch):
    before = _old_outputs(tmp_path)
    (tmp_path / "runs").mkdir()
    monkeypatch.setattr(cli, "fit_classifier", lambda *a, **k: pytest.fail("fitted"))
    assert main(_classify_argv(ws, tmp_path, csv_report="runs")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*before, "runs"])
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_classify_computes_every_output_before_it_writes_one(ws, tmp_path, monkeypatch):
    before = _old_outputs(tmp_path)

    def failing(*args, **kwargs):
        raise ComputationError("soft distribution failed")

    monkeypatch.setattr(cli, "soft_class_distribution", failing)
    assert main(_classify_argv(ws, tmp_path)) == 3
    assert _snapshot(tmp_path) == before


def test_cluster_checks_every_output_path_before_the_fit(ws, tmp_path, monkeypatch):
    for name in ("assign.csv", "quality.json"):
        (tmp_path / name).write_bytes(b"old\n")
    before = _snapshot(tmp_path)
    (tmp_path / "sweep").mkdir()
    monkeypatch.setattr(cli, "fit_clusters", lambda *a, **k: pytest.fail("fitted"))
    monkeypatch.setattr(cli, "cluster_sweep", lambda *a, **k: pytest.fail("swept"))
    assert main([str(a) for a in (
        "cluster", "--cache", ws / "emb.bin", *_gics(ws),
        "--out", tmp_path / "assign.csv", "--quality-out", tmp_path / "quality.json",
        "--sweep-out", tmp_path / "sweep")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*before, "sweep"])
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


_STALLED_STAGE = """
import os, sys, time
from companysim import cli

ready, point, argv = sys.argv[1], sys.argv[2], sys.argv[3:]


def stalled(real):
    def stall(*args, **kwargs):
        open(ready, "w").close()
        time.sleep(60)
        return real(*args, **kwargs)
    return stall


if point == "compute":
    cli.fit_classifier = stalled(cli.fit_classifier)
else:  # every temporary file written, none renamed yet
    os.replace = stalled(os.replace)
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("point", ["compute", "rename"])
def test_sigterm_leaves_every_output_as_it_was(ws, tmp_path, point):
    out = tmp_path / "out"
    out.mkdir()
    before = _old_outputs(out)
    ready = tmp_path / "ready"
    proc = subprocess.Popen(
        [sys.executable, "-c", _STALLED_STAGE, str(ready), point,
         *_classify_argv(ws, out)],
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    try:
        for _ in range(600):
            if ready.exists() or proc.poll() is not None:
                break
            time.sleep(0.1)
        assert ready.exists(), proc.stderr.read() if proc.poll() is not None else ""
        temps = len(list(out.glob("*.tmp")))
        assert temps == (0 if point == "compute" else len(_CLASSIFY_FILES))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 143, proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert _snapshot(out) == before

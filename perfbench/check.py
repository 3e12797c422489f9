"""Output checks: digests of report files and their comparison with the
reference values recorded at the commit that defined the benchmark.

A digest splits a file into an exact part and a float part. Ids, labels,
cluster numbers, peer lists, integer counts and the file's structure go
into a SHA-256 that must match exactly; floats are summarized (count, sum,
sum of absolute values, sum of squares, min, max and evenly spaced
samples) and compared within ``ATOL + RTOL * |reference|``. Sums get the
absolute tolerance once per summed value. The raw bytes' SHA-256 is kept
too: two runs of the same code must produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np

ATOL = 1e-6
RTOL = 1e-6
N_SAMPLES = 8

_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?$|^-?(inf|nan)$")


def _csv_field(text: str):
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def _walk(value, tokens: list[str], floats: list[float]) -> None:
    if isinstance(value, dict):
        tokens.append("{%d" % len(value))
        for key in sorted(value):
            tokens.append("k" + key)
            _walk(value[key], tokens, floats)
    elif isinstance(value, list):
        tokens.append("[%d" % len(value))
        for item in value:
            _walk(item, tokens, floats)
    elif isinstance(value, float):
        tokens.append("f")
        floats.append(value)
    else:
        tokens.append(repr(value))


def _read_cache(raw: bytes) -> tuple[list, np.ndarray]:
    """Header fields and float32 rows of a companysim embedding cache."""
    (version,) = struct.unpack_from("<I", raw, 4)
    (plen,) = struct.unpack_from("<H", raw, 8)
    provider = raw[10:10 + plen].decode("utf-8")
    budget, dim, count = struct.unpack_from("<III", raw, 10 + plen)
    rows = np.frombuffer(raw, dtype="<f4", offset=22 + plen, count=dim * count)
    return [raw[:4].decode(), version, provider, budget, dim, count], rows


def parse(path: Path, raw: bytes) -> tuple[object, np.ndarray | None]:
    """Structured content of an output file, plus any bulk float array."""
    name = path.name
    if name.endswith(".bin"):
        return _read_cache(raw)
    text = raw.decode("utf-8")
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()], None
    if name.endswith(".json"):
        return json.loads(text), None
    if name.endswith(".csv"):
        rows = csv.reader(text.splitlines())
        return [[_csv_field(f) for f in row] for row in rows], None
    return text.splitlines(), None


def _summary(values: np.ndarray) -> dict:
    n = int(values.size)
    if n == 0:
        return {"n": 0}
    idx = sorted({(i * n) // N_SAMPLES for i in range(min(n, N_SAMPLES))})
    return {
        "n": n,
        "sum": float(values.sum()),
        "abs_sum": float(np.abs(values).sum()),
        "sq_sum": float((values * values).sum()),
        "min": float(values.min()),
        "max": float(values.max()),
        "samples": [float(values[i]) for i in idx],
    }


def digest(path: Path) -> dict:
    raw = path.read_bytes()
    content, bulk = parse(path, raw)
    tokens: list[str] = []
    floats: list[float] = []
    _walk(content, tokens, floats)
    values = np.asarray(floats, dtype=np.float64)
    if bulk is not None:
        values = np.concatenate([values, bulk.astype(np.float64)])
    exact = hashlib.sha256("\x1f".join(tokens).encode("utf-8")).hexdigest()
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "exact": exact,
        "floats": _summary(values),
    }


def _close(got: float, want: float, scale: int = 1) -> bool:
    return abs(got - want) <= ATOL * scale + RTOL * abs(want)


def compare(got: dict, want: dict) -> list[str]:
    """Differences between a digest and its reference, empty when they agree."""
    problems = []
    if got["exact"] != want["exact"]:
        problems.append("ids, labels, counts or structure differ")
    g, w = got["floats"], want["floats"]
    if g["n"] != w["n"]:
        problems.append(f"{g['n']} floats, reference has {w['n']}")
        return problems
    if w["n"] == 0:
        return problems
    for key in ("sum", "abs_sum", "sq_sum"):
        if not _close(g[key], w[key], scale=w["n"]):
            problems.append(f"float {key} {g[key]!r} != {w[key]!r}")
    for key in ("min", "max"):
        if not _close(g[key], w[key]):
            problems.append(f"float {key} {g[key]!r} != {w[key]!r}")
    for i, (a, b) in enumerate(zip(g["samples"], w["samples"])):
        if not _close(a, b):
            problems.append(f"float sample {i} {a!r} != {b!r}")
            break
    return problems

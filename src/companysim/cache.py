"""On-disk embedding cache.

Binary layout (all integers little-endian):

    magic   4 bytes  b"CEMB"
    version u32      currently 1
    u16              length of provider_id in bytes
    bytes            provider_id, UTF-8
    u32              context_budget
    u32              dimension
    u32              row count
    f32[count*dim]   rows, C order

Company ids live in a text sidecar at ``<path>.ids``, one id per line in row
order. Rows are float32, so a save/load round-trip reproduces the in-memory
matrix bit for bit.
"""

from __future__ import annotations

import json
import logging
import os
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import CacheFormatError
from .outputs import replacing

logger = logging.getLogger(__name__)

MAGIC = b"CEMB"
VERSION = 1
_HEADER_TAIL = struct.Struct("<III")  # context_budget, dimension, count


def _ids_path(path: Path) -> Path:
    return path.with_name(path.name + ".ids")


def save_cache(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write the matrix and its id sidecar. Both are complete before either
    is renamed into place, the binary first, so an interrupted write never
    leaves a truncated cache behind."""
    path = Path(path)
    rows = np.ascontiguousarray(matrix.matrix, dtype="<f4")
    provider_bytes = matrix.provider_id.encode("utf-8")
    if len(provider_bytes) > 0xFFFF:
        raise ValueError("provider_id too long to encode")
    for company_id in matrix.ids:
        # the sidecar holds one id per line, and loading skips blank lines
        if not company_id or "\n" in company_id or "\r" in company_id:
            raise CacheFormatError(
                f"cannot cache id {company_id!r}: an id must be non-empty "
                f"and hold no line break"
            )
    header = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<H", len(provider_bytes))
        + provider_bytes
        + _HEADER_TAIL.pack(matrix.context_budget, matrix.dimension, len(matrix))
    )
    ids = "".join(company_id + "\n" for company_id in matrix.ids)
    with replacing(_ids_path(path), binary=True) as ids_file:
        ids_file.write(ids.encode("utf-8"))
        ids_file.flush()  # written out before the binary is renamed
        with replacing(path, binary=True) as f:
            f.write(header)
            f.write(rows.tobytes())
    logger.info("saved %d embeddings to %s", len(matrix), path)


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CacheFormatError(f"truncated cache file while reading {what}")
    return data


def load_cache(path: str | Path) -> EmbeddingMatrix:
    path = Path(path)
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CacheFormatError(f"unsupported cache version {version}")
        (provider_len,) = struct.unpack("<H", _read_exact(f, 2, "provider id length"))
        provider_id = _read_exact(f, provider_len, "provider id").decode("utf-8")
        budget, dimension, count = _HEADER_TAIL.unpack(
            _read_exact(f, _HEADER_TAIL.size, "header")
        )
        if dimension < 1:
            raise CacheFormatError(f"invalid dimension {dimension}")
        if count == 0:
            raise CacheFormatError(f"{path}: cache holds no rows")
        # checked before reading, so a corrupt header never asks for more
        # memory than the file holds
        size = 4 * dimension * count
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        if size > remaining:
            raise CacheFormatError(
                f"truncated cache file: {count} rows of dimension {dimension} "
                f"need {size} bytes, {remaining} remain"
            )
        if size < remaining:
            raise CacheFormatError("trailing bytes after embedding rows")
        payload = _read_exact(f, size, "embedding rows")
    rows = np.frombuffer(payload, dtype="<f4").reshape(count, dimension)

    ids_file = _ids_path(path)
    if not ids_file.exists():
        raise CacheFormatError(f"missing id sidecar {ids_file}")
    with open(ids_file, "r", encoding="utf-8") as f:
        ids = [line.rstrip("\n") for line in f if line.rstrip("\n")]
    if len(ids) != count:
        raise CacheFormatError(
            f"id sidecar has {len(ids)} ids but cache declares {count} rows"
        )
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise CacheFormatError(
            f"{bad.size} rows hold NaN or infinite values, first "
            f"{ids[bad[0]]!r} (row {bad[0]})"
        )
    return EmbeddingMatrix(
        ids=ids,
        matrix=rows.copy(),
        provider_id=provider_id,
        context_budget=budget,
    )


def sync_cache(
    path: str | Path,
    wanted_ids: Sequence[str],
    update: Callable[[EmbeddingMatrix | None, list[str]], EmbeddingMatrix],
    provider_id: str,
    context_budget: int,
) -> EmbeddingMatrix:
    """Resumable embedding: the cache at ``path`` restricted to
    ``wanted_ids``, in order. An existing cache must come from
    ``provider_id`` at ``context_budget``, checked before anything is
    embedded. When ids are missing, ``update(cached, missing)`` returns the
    new cache to save (``cached`` is None without a cache): ``append_rows``
    of the missing rows, or the rows of a fresh fit alone."""
    path = Path(path)
    cached: EmbeddingMatrix | None = load_cache(path) if path.exists() else None
    if cached is not None:
        for what, old, new in (
            ("provider", cached.provider_id, provider_id),
            ("context budget", cached.context_budget, context_budget),
        ):
            if old != new:
                raise CacheFormatError(f"cache {what} {old!r} != {new!r}")
    missing = [
        company_id
        for company_id in wanted_ids
        if cached is None or company_id not in cached
    ]
    if missing:
        logger.info("cache %s: embedding %d missing of %d wanted",
                    path, len(missing), len(wanted_ids))
        cached = update(cached, missing)
        save_cache(cached, path)
    assert cached is not None
    return cached.subset(wanted_ids)


def append_rows(cached: EmbeddingMatrix | None, fresh: EmbeddingMatrix) -> EmbeddingMatrix:
    """``fresh``'s rows after ``cached``'s (``fresh`` alone without a
    cache); the two must have the same dimension."""
    if cached is None:
        return fresh
    if cached.dimension != fresh.dimension:
        raise CacheFormatError(
            f"cache dimension {cached.dimension!r} != {fresh.dimension!r}"
        )
    return EmbeddingMatrix(
        ids=cached.ids + fresh.ids,
        matrix=np.vstack([cached.matrix, fresh.matrix]),
        provider_id=cached.provider_id,
        context_budget=cached.context_budget,
    )


def matrix_jsonl(matrix: EmbeddingMatrix) -> str:
    """Human-inspectable export: one JSON object per row."""
    return "".join(json.dumps({
        "company_id": company_id,
        "provider_id": matrix.provider_id,
        "context_budget": matrix.context_budget,
        "vector": [float(x) for x in matrix.row(company_id)],
    }, sort_keys=True) + "\n" for company_id in matrix.ids)

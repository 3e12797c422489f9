import json
import re
import struct

import numpy as np
import pytest

from companysim.cache import (
    append_rows,
    load_cache,
    matrix_jsonl,
    save_cache,
    sync_cache,
)
from companysim.embeddings import EmbeddingMatrix
from companysim.errors import CacheFormatError


def _matrix(ids, seed=0, dim=6, provider="prov", budget=512):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(
        ids=list(ids),
        matrix=rng.normal(size=(len(ids), dim)).astype(np.float32),
        provider_id=provider,
        context_budget=budget,
    )


def test_round_trip_is_bit_exact(tmp_path):
    mat = _matrix(["a", "b", "c"], seed=1)
    path = tmp_path / "emb.bin"
    save_cache(mat, path)
    again = load_cache(path)
    assert again.ids == mat.ids
    assert again.provider_id == "prov"
    assert again.context_budget == 512
    assert again.matrix.dtype == np.float32
    assert np.array_equal(again.matrix, mat.matrix)
    assert again.matrix.tobytes() == mat.matrix.tobytes()


def test_round_trip_preserves_cosine_similarities(tmp_path):
    mat = _matrix([f"c{i}" for i in range(20)], seed=3, dim=17)
    path = tmp_path / "emb.bin"
    save_cache(mat, path)
    again = load_cache(path)
    a = mat.matrix.astype(np.float64)
    b = again.matrix.astype(np.float64)
    na = a / np.linalg.norm(a, axis=1, keepdims=True)
    nb = b / np.linalg.norm(b, axis=1, keepdims=True)
    assert np.max(np.abs(na @ na.T - nb @ nb.T)) == 0.0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CacheFormatError, match="magic"):
        load_cache(path)


def test_truncated_file_rejected(tmp_path):
    mat = _matrix(["a", "b"])
    path = tmp_path / "emb.bin"
    save_cache(mat, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(CacheFormatError, match="truncated"):
        load_cache(path)


def test_trailing_bytes_rejected(tmp_path):
    mat = _matrix(["a", "b"])
    path = tmp_path / "emb.bin"
    save_cache(mat, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CacheFormatError, match="trailing"):
        load_cache(path)


def test_missing_or_mismatched_sidecar(tmp_path):
    mat = _matrix(["a", "b"])
    path = tmp_path / "emb.bin"
    save_cache(mat, path)
    sidecar = tmp_path / "emb.bin.ids"
    sidecar.unlink()
    with pytest.raises(CacheFormatError, match="sidecar"):
        load_cache(path)
    sidecar.write_text("a\n", encoding="utf-8")
    with pytest.raises(CacheFormatError, match="2 rows"):
        load_cache(path)


@pytest.mark.parametrize("dimension,count", [
    (0xFFFFFFFF, 0xFFFFFFFF),  # 4 * dim * count overflows a C ssize_t
    (1024, 1_000_000),         # a plausible 4 GB that the file does not hold
    (6, 3),                    # one row more than the file holds
])
def test_header_row_count_is_checked_against_the_file_size(
    tmp_path, monkeypatch, dimension, count
):
    import companysim.cache as cache_module

    path = tmp_path / "emb.bin"
    save_cache(_matrix(["a", "b"]), path)
    data = bytearray(path.read_bytes())
    # dimension and count are the 8 bytes before the two rows of 6 floats
    tail = 4 * 6 * 2 + 8
    data[-tail:-tail + 8] = struct.pack("<II", dimension, count)
    path.write_bytes(bytes(data))
    (tmp_path / "emb.bin.ids").write_text("".join(f"{i}\n" for i in range(3)))

    reads = []
    real_open = open

    class _Recording:
        def __init__(self, *args, **kwargs):
            self.f = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def __getattr__(self, name):
            return getattr(self.f, name)

        def read(self, n=-1):
            reads.append(n)
            return self.f.read(n)

    monkeypatch.setattr(cache_module, "open", _Recording, raising=False)
    with pytest.raises(CacheFormatError,
                       match=f"{count} rows of dimension {dimension} need"):
        load_cache(path)
    assert max(reads) <= len(data)


@pytest.mark.parametrize("bad_id", ["x\ny", "x\r", "\n", ""])
def test_ids_that_cannot_round_trip_are_rejected(tmp_path, bad_id):
    path = tmp_path / "emb.bin"
    with pytest.raises(CacheFormatError, match=re.escape(repr(bad_id))):
        save_cache(_matrix(["a", bad_id, "b"]), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected_naming_the_first(tmp_path, bad):
    mat = _matrix(["a", "b", "c", "d"])
    mat.matrix[2, 1] = bad
    mat.matrix[3, 0] = bad
    path = tmp_path / "emb.bin"
    save_cache(mat, path)
    with pytest.raises(CacheFormatError, match=r"2 rows .* first 'c' \(row 2\)"):
        load_cache(path)


def _appending(embed_missing):
    """An ``update`` for ``sync_cache`` that appends the rows
    ``embed_missing(missing)`` returns."""
    return lambda cached, missing: append_rows(cached, embed_missing(missing))


def test_sync_cache_appends_missing_rows_after_cached_ones(tmp_path):
    path = tmp_path / "emb.bin"
    first = _matrix(["a", "b"], seed=1)
    save_cache(first, path)
    fresh = _matrix(["c", "d"], seed=2)
    result = sync_cache(path, ["b", "c", "a", "d"],
                        _appending(lambda ids: fresh.subset(ids)), "prov", 512)
    assert result.ids == ["b", "c", "a", "d"]
    reloaded = load_cache(path)
    assert reloaded.ids == ["a", "b", "c", "d"]
    assert np.array_equal(reloaded.matrix[:2], first.matrix)
    assert np.array_equal(reloaded.matrix[2:], fresh.matrix)
    assert np.array_equal(result.matrix, reloaded.subset(result.ids).matrix)


def test_sync_cache_creates_a_missing_cache(tmp_path):
    path = tmp_path / "emb.bin"
    result = sync_cache(path, ["b", "a"], _appending(lambda ids: _matrix(ids, seed=3)),
                        "prov", 512)
    assert result.ids == ["b", "a"]
    assert load_cache(path).ids == ["b", "a"]


def test_sync_cache_saves_what_update_returns(tmp_path):
    path = tmp_path / "emb.bin"
    save_cache(_matrix(["a", "x"], seed=1), path)
    refit = _matrix(["a", "b"], seed=2, dim=9)
    seen = []

    def update(cached, missing):
        seen.append((cached.ids, missing))
        return refit

    result = sync_cache(path, ["a", "b"], update, "prov", 512)
    assert seen == [(["a", "x"], ["b"])]
    again = load_cache(path)
    assert again.ids == ["a", "b"]
    assert np.array_equal(again.matrix, refit.matrix)
    assert np.array_equal(result.matrix, refit.matrix)


@pytest.mark.parametrize("identity,message", [
    (("other", 512), "cache provider 'prov' != 'other'"),
    (("prov", 1024), "cache context budget 512 != 1024"),
])
@pytest.mark.parametrize("wanted", [["a"], ["a", "b"]])
def test_sync_cache_checks_provider_and_budget_before_embedding(
    tmp_path, identity, message, wanted
):
    path = tmp_path / "emb.bin"
    save_cache(_matrix(["a"], seed=1), path)
    before = path.read_bytes(), (tmp_path / "emb.bin.ids").read_bytes()

    def update(cached, missing):
        raise AssertionError("embedded before the identity check")

    with pytest.raises(CacheFormatError, match=message):
        sync_cache(path, wanted, update, *identity)
    assert (path.read_bytes(), (tmp_path / "emb.bin.ids").read_bytes()) == before


def test_sync_cache_rejects_appended_rows_of_another_dimension(tmp_path):
    path = tmp_path / "emb.bin"
    save_cache(_matrix(["a"], seed=1), path)
    before = path.read_bytes(), (tmp_path / "emb.bin.ids").read_bytes()
    with pytest.raises(CacheFormatError, match="cache dimension 6 != 9"):
        sync_cache(path, ["a", "b"], _appending(lambda ids: _matrix(ids, dim=9)),
                   "prov", 512)
    assert (path.read_bytes(), (tmp_path / "emb.bin.ids").read_bytes()) == before


def test_sync_cache_embeds_only_missing(tmp_path):
    path = tmp_path / "emb.bin"
    save_cache(_matrix(["a", "b"], seed=1), path)
    calls = []

    def embed_missing(ids):
        calls.append(list(ids))
        return _matrix(ids, seed=7)

    result = sync_cache(path, ["b", "c", "a"], _appending(embed_missing), "prov", 512)
    assert calls == [["c"]]
    assert result.ids == ["b", "c", "a"]
    # fully cached second run embeds nothing
    result2 = sync_cache(path, ["a", "c"], _appending(embed_missing), "prov", 512)
    assert calls == [["c"]]
    assert result2.ids == ["a", "c"]


def test_matrix_jsonl_lists_every_row():
    mat = _matrix(["a", "b"], seed=4, dim=3)
    lines = matrix_jsonl(mat).splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["company_id"] == "a"
    assert rec["provider_id"] == "prov"
    assert np.allclose(rec["vector"], mat.row("a").astype(np.float64))


@pytest.mark.parametrize("fail_on_write", [1, 2])
def test_interrupted_save_keeps_old_cache(tmp_path, monkeypatch, fail_on_write):
    import companysim.outputs as outputs_module

    path = tmp_path / "emb.bin"
    old = _matrix(["a", "b"], seed=1)
    save_cache(old, path)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())

    real_open = open
    opened = []

    class _DiskFull:
        """The ``fail_on_write``-th file opened keeps half of its first
        write, then fails."""

        def __init__(self, *args, **kwargs):
            self.f = real_open(*args, **kwargs)
            opened.append(self)
            self.fail = len(opened) == fail_on_write

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            if self.fail:
                data = bytes(data)
                self.f.write(data[: len(data) // 2])
                raise OSError("no space left on device")
            return self.f.write(data)

        def flush(self):
            self.f.flush()

    monkeypatch.setattr(outputs_module, "open", _DiskFull, raising=False)
    with pytest.raises(OSError, match="no space"):
        save_cache(_matrix(["a", "b", "c"], seed=2), path)
    monkeypatch.undo()

    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
    loaded = load_cache(path)
    assert loaded.ids == old.ids
    assert np.array_equal(loaded.matrix, old.matrix)


def test_sidecar_that_fails_to_reach_disk_keeps_old_cache(tmp_path, monkeypatch):
    """The sidecar's buffered bytes fail to flush (the disk fills): the
    binary must not have been renamed by then."""
    import companysim.outputs as outputs_module

    path = tmp_path / "emb.bin"
    old = _matrix(["a", "b"], seed=1)
    save_cache(old, path)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())

    real_open = open

    class _FullOnFlush:
        def __init__(self, file, *args, **kwargs):
            self.f = real_open(file, *args, **kwargs)
            self.full = str(file).startswith(str(path) + ".ids")
            self.pending = b""

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            try:
                self.flush()
            finally:
                self.f.close()

        def write(self, data):
            self.pending += bytes(data)

        def flush(self):
            if self.full:
                raise OSError("no space left on device")
            self.f.write(self.pending)
            self.pending = b""

    monkeypatch.setattr(outputs_module, "open", _FullOnFlush, raising=False)
    with pytest.raises(OSError, match="no space"):
        save_cache(_matrix(["a", "b", "c"], seed=2), path)
    monkeypatch.undo()

    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
    assert load_cache(path).ids == old.ids

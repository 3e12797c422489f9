"""Embedding-space peer selection scored against realized return
co-movement, plus GICS-membership baselines and sector outlier scores.

The headline number for a peer set is the average pairwise Pearson
correlation of daily returns: for company i with peers P(i),
rho_i = mean_j corr(r_i, r_j), and the portfolio-level score is the mean of
rho_i over companies that produced at least one valid pair. Scores are
computed within calendar years and then averaged across years so that
regime changes do not blur the comparison.
"""

from __future__ import annotations

import csv
import datetime
import io
import logging
import math
import os
import stat
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import add, ge, itemgetter
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .cluster import _unit_rows
from .embeddings import EmbeddingMatrix
from .errors import (
    DataValidationError,
    InsufficientOverlapError,
    ZeroVarianceError,
    ZeroVectorError,
)
from .outputs import csv_writer, replacing

logger = logging.getLogger(__name__)

DEFAULT_MIN_OVERLAP = 60
RETURNS_HEADER = ["company_id", "date", "return"]
# Bump when the cached panel's layout or meaning changes: older caches
# are then ignored and replaced.
PANEL_CACHE_VERSION = 1
_PANEL_ARRAYS = ("ids", "id_lengths", "dates", "date_lengths", "values", "mask")


class ReturnPanel:
    """Simple returns as a dense company x period panel.

    ``ids`` and ``dates`` are sorted; ``dates`` are days ("YYYY-MM-DD") or
    the months ("YYYY-MM") that ``attribution.monthly_cumulative_returns``
    produces. ``values[i, j]`` is company ``i``'s return over ``dates[j]``
    where ``mask[i, j]`` is set, and 0.0 elsewhere.
    These four are the panel's only state. ``ReturnPanel(series)`` copies
    a company -> date -> value mapping into them, so later edits to the
    mapping do not reach the panel; ``from_arrays`` takes them as they
    are. ``series`` is a read-only company -> date -> value view of the
    observed cells, built from the arrays when first read.
    """

    def __init__(self, series: Mapping[str, Mapping[str, float]]):
        ids = sorted(series)
        rows = [series[company_id] for company_id in ids]
        dates = sorted(set().union(*rows))
        column = dict(zip(dates, range(len(dates))))
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        r = np.repeat(np.arange(len(ids)), counts)
        c = np.fromiter(map(column.__getitem__, chain.from_iterable(rows)),
                        dtype=np.int64, count=r.size)
        values = np.zeros((len(ids), len(dates)))
        values[r, c] = np.fromiter(
            chain.from_iterable([obs.values() for obs in rows]),
            dtype=np.float64, count=r.size,
        )
        mask = np.zeros(values.shape, dtype=bool)
        mask[r, c] = True
        self.ids, self.dates, self.values, self.mask = ids, dates, values, mask

    @classmethod
    def from_arrays(
        cls,
        ids: list[str],
        dates: list[str],
        values: np.ndarray,
        mask: np.ndarray,
    ) -> "ReturnPanel":
        panel = cls.__new__(cls)
        panel.ids, panel.dates, panel.values, panel.mask = ids, dates, values, mask
        return panel

    @cached_property
    def series(self) -> Mapping[str, Mapping[str, float]]:
        view = {}
        for company_id, row, seen in zip(self.ids, self.values, self.mask):
            view[company_id] = MappingProxyType(
                dict(zip(compress(self.dates, seen.tolist()), row[seen].tolist()))
            )
        return MappingProxyType(view)

    def companies(self) -> list[str]:
        return list(self.ids)

    def years(self) -> list[int]:
        return sorted({int(date[:4]) for date in self.dates})

    def year_columns(self, year: int) -> slice:
        """The columns of ``dates`` that fall in ``year``."""
        return slice(
            bisect_left(self.dates, f"{year:04d}-"),
            bisect_left(self.dates, f"{year + 1:04d}-"),
        )


def load_returns_csv(path: str | Path) -> ReturnPanel:
    """Strict long-format CSV: header company_id,date,return.

    Streams the file into flat index and value arrays, then scatters them
    into the dense panel; every bad row raises naming its line.

    A regular file's panel is cached beside it in ``<path>.panel.npz``,
    keyed by the SHA-256 of the file's bytes and ``PANEL_CACHE_VERSION``.
    A later load whose file still has those bytes reads the panel from
    the cache, once it passes the checks of ``_checked_panel``; any other
    cache is ignored and replaced. Failing to write the cache is logged,
    not raised. Other files (a FIFO, ``/dev/stdin``) are read once and
    not cached.
    """
    sidecar = f"{path}.panel.npz"
    with open(path, "rb", buffering=0) as raw:
        if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            panel = _parse_returns(raw, path)
            logger.info("returns %s: parsed, not cached: not a regular file", path)
            return panel
        panel, why = _cached_panel(sidecar, raw)
        if panel is not None:
            logger.info("returns %s: cache hit, panel read from %s", path, sidecar)
            return panel
        raw.seek(0)
        hashing = _HashingReader(raw)
        panel = _parse_returns(hashing, path)
    try:
        _save_panel_cache(sidecar, panel, hashing.sha256.digest())
    except OSError as e:
        logger.info("returns %s: parsed (%s), not cached: %s", path, why, e)
    else:
        logger.info("returns %s: parsed (%s) and cached to %s", path, why, sidecar)
    return panel


def _is_day(text: str) -> bool:
    """Whether ``text`` is a real calendar day written YYYY-MM-DD."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


def _parse_returns(raw, path: str | Path) -> ReturnPanel:
    """The panel of the returns file whose bytes ``raw`` reads."""
    company_index: dict[str, int] = {}
    date_index: dict[str, int] = {}
    rows, cols, values = array("q"), array("q"), array("d")
    line_no = 0  # the last line the reader returned
    try:
        with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8",
                              newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            line_no = 1
            if header != RETURNS_HEADER:
                raise DataValidationError(
                    f"returns file must start with {','.join(RETURNS_HEADER)!r}, "
                    f"got {header!r}"
                )
            for line_no, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise DataValidationError(f"line {line_no}: expected 3 columns")
                company_id, date, raw_value = row
                col = date_index.get(date)
                if col is None:
                    if not _is_day(date):
                        raise DataValidationError(
                            f"line {line_no}: bad date {date!r}, expected YYYY-MM-DD"
                        )
                    col = date_index[date] = len(date_index)
                if not company_id:
                    raise DataValidationError(f"line {line_no}: empty company id")
                try:
                    value = float(raw_value)
                except ValueError:
                    raise DataValidationError(
                        f"line {line_no}: bad return value {raw_value!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataValidationError(f"line {line_no}: non-finite return")
                rows.append(company_index.setdefault(company_id, len(company_index)))
                cols.append(col)
                values.append(value)
    except (DataValidationError, csv.Error) as e:
        # a duplicate on an earlier line is the first error in the file
        _check_duplicates(rows, cols, company_index, date_index)
        if isinstance(e, csv.Error):
            raise DataValidationError(f"line {line_no + 1}: {e}") from None
        raise
    if not values:
        raise DataValidationError(f"no return observations in {path}")
    _check_duplicates(rows, cols, company_index, date_index)
    ids, row_of = _sorted_index(company_index)
    dates, col_of = _sorted_index(date_index)
    r = row_of[np.frombuffer(rows, dtype=np.int64)]
    c = col_of[np.frombuffer(cols, dtype=np.int64)]
    grid = np.zeros((len(ids), len(dates)))
    grid[r, c] = np.frombuffer(values, dtype=np.float64)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[r, c] = True
    return ReturnPanel.from_arrays(ids, dates, grid, mask)


def _sorted_index(index: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Keys in sorted order, and first-seen position -> sorted position."""
    keys = sorted(index)
    position = np.empty(len(keys), dtype=np.int64)
    position[[index[key] for key in keys]] = np.arange(len(keys))
    return keys, position


def _check_duplicates(
    rows: array, cols: array, company_index: dict, date_index: dict
) -> None:
    """Raise for the first line that repeats an earlier (company, date)."""
    if not rows:
        return
    keys = np.frombuffer(rows, dtype=np.int64) * len(date_index) + np.frombuffer(
        cols, dtype=np.int64
    )
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        first = int(repeats.min())
        company_id = list(company_index)[rows[first]]
        date = list(date_index)[cols[first]]
        raise DataValidationError(
            f"line {first + 2}: duplicate observation {company_id}/{date}"
        )


class _HashingReader(io.RawIOBase):
    """A raw binary reader over ``raw`` that adds each byte it reads to
    ``sha256``: the digest is of exactly the bytes a parse read."""

    def __init__(self, raw):
        import hashlib  # here, so stages that never hash skip OpenSSL

        self.raw, self.sha256 = raw, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def _sha256(raw) -> bytes:
    """The SHA-256 of what is left to read in ``raw``."""
    import hashlib

    sha256 = hashlib.sha256()
    for block in iter(lambda: raw.read(1 << 20), b""):
        sha256.update(block)
    return sha256.digest()


def _pack_texts(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``texts`` as their joined UTF-8 bytes and their lengths in
    characters. numpy's string arrays would drop trailing NULs."""
    return (np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8),
            np.array([len(text) for text in texts], dtype=np.int64))


def _unpack_texts(blob: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The non-empty texts ``_pack_texts`` packed; ValueError unless the
    lengths, each at least 1, add up to the decoded blob exactly."""
    if (blob.dtype != np.uint8 or blob.ndim != 1
            or lengths.dtype != np.int64 or lengths.ndim != 1):
        raise ValueError("texts of the wrong type")
    text = blob.tobytes().decode("utf-8")
    ends = lengths.cumsum().tolist()
    if (not ends or lengths.min() < 1 or lengths.max() > len(text)
            or ends[-1] != len(text)):
        raise ValueError("text lengths that do not fill the text")
    return [text[start:end] for start, end in zip([0, *ends], ends)]


def _checked_panel(
    ids: np.ndarray,
    id_lengths: np.ndarray,
    dates: np.ndarray,
    date_lengths: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
) -> ReturnPanel:
    """The panel that a cache's arrays hold, if a parse could have given
    it; else ValueError naming the first check that fails."""
    ids, dates = _unpack_texts(ids, id_lengths), _unpack_texts(dates, date_lengths)
    for name, keys in (("ids", ids), ("dates", dates)):
        if any(map(ge, keys, keys[1:])):
            raise ValueError(f"{name} not strictly increasing")
    if not all(map(_is_day, dates)):
        raise ValueError("a date that is not a YYYY-MM-DD day")
    if (values.dtype != np.float64 or mask.dtype != np.bool_
            or values.shape != (len(ids), len(dates)) or mask.shape != values.shape
            or not (values.flags.c_contiguous and mask.flags.c_contiguous)):
        raise ValueError("values or mask of the wrong type or shape")
    if not np.isfinite(values).all():
        raise ValueError("a non-finite value")
    if mask.view(np.uint8).max() > 1:
        raise ValueError("a mask byte other than 0 or 1")
    if values.view(np.int64)[~mask].any():
        raise ValueError("a value where the mask is unset")
    if not (mask.any(axis=0).all() and mask.any(axis=1).all()):
        raise ValueError("a company or date with no observation")
    return ReturnPanel.from_arrays(ids, dates, values, mask)


def _cached_panel(sidecar: str, raw) -> tuple[ReturnPanel | None, str]:
    """The panel cached in ``sidecar`` if it was parsed from the bytes
    that ``raw`` holds, under this ``PANEL_CACHE_VERSION``, and passes
    ``_checked_panel``; else None and why not. Only a cache owned by this
    user or by the returns file's owner, and that no group or other user
    can write, is read: anyone else could have written it."""
    # the cache is outside input: whatever is wrong with it, parse instead
    try:
        # non-blocking, so that a FIFO at the cache's path cannot stall the load
        with open(sidecar, "rb", opener=lambda name, flags: os.open(
                name, flags | os.O_NONBLOCK)) as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode):
                return None, "no cache"
            if st.st_uid not in (os.geteuid(), os.fstat(raw.fileno()).st_uid):
                return None, f"a cache owned by another user (uid {st.st_uid})"
            if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
                return None, "a cache that group or others can write"
            with np.load(f, allow_pickle=False) as cached:
                version, sha256 = cached["version"], cached["sha256"]
                if (version.dtype != np.int64 or version.shape != ()
                        or version != PANEL_CACHE_VERSION):
                    return None, "a cache of another version"
                if sha256.dtype != np.uint8 or sha256.tobytes() != _sha256(raw):
                    return None, "a cache of other contents"
                arrays = [cached[name] for name in _PANEL_ARRAYS]
        return _checked_panel(*arrays), "cache hit"
    except (FileNotFoundError, IsADirectoryError):
        return None, "no cache"
    except Exception as e:
        return None, f"an unusable cache: {type(e).__name__}: {e}"


def _save_panel_cache(sidecar: str, panel: ReturnPanel, sha256: bytes) -> None:
    ids, id_lengths = _pack_texts(panel.ids)
    dates, date_lengths = _pack_texts(panel.dates)
    with replacing(sidecar, binary=True) as f:
        np.savez(
            f, version=np.int64(PANEL_CACHE_VERSION),
            sha256=np.frombuffer(sha256, dtype=np.uint8),
            ids=ids, id_lengths=id_lengths, dates=dates, date_lengths=date_lengths,
            values=panel.values, mask=panel.mask,
        )
        # whatever the umask, a cache others can write is never read back
        mode = stat.S_IMODE(os.fstat(f.fileno()).st_mode)
        os.fchmod(f.fileno(), mode & ~(stat.S_IWGRP | stat.S_IWOTH))


def _csv_fields(texts: Sequence[str]) -> list[str]:
    """Each text as ``outputs.csv_writer`` writes it as a field, so that a
    ``\\r`` or ``\\n`` in it is quoted."""
    rows: list[str] = []
    # with a second, empty field an empty text stays unquoted, as in the
    # file's rows; then strip that field's ",\n"
    csv_writer(SimpleNamespace(write=rows.append)).writerows([t, ""] for t in texts)
    return [row[:-2] for row in rows]


def save_returns_csv(panel: ReturnPanel, path: str | Path) -> None:
    """Rows ``company_id,date,repr(value)`` for the observed cells, byte for
    byte as ``outputs.csv_writer`` writes them (a float's repr never needs
    quoting), one write per company."""
    dates = [field + "," for field in _csv_fields(panel.dates)]
    with replacing(path) as f:
        f.write(",".join(RETURNS_HEADER) + "\n")
        for prefix, row, seen in zip(_csv_fields(panel.ids), panel.values, panel.mask):
            cells = list(map(
                add, compress(dates, seen.tolist()), map(repr, row[seen].tolist())
            ))
            if cells:
                prefix += ","
                f.write(prefix + ("\n" + prefix).join(cells) + "\n")


# ---------------------------------------------------------------------------
# Core math


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson_correlation needs two equal-length 1-d arrays")
    if x.size < 2:
        raise InsufficientOverlapError("need at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.linalg.norm(xc)) * float(np.linalg.norm(yc))
    if denom == 0.0:
        raise ZeroVarianceError("constant series has undefined correlation")
    return float(xc @ yc) / denom


def pairwise_return_correlation(
    panel: ReturnPanel,
    id_a: str,
    id_b: str,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> float:
    """Pearson correlation over the dates both series observe."""
    row = {company_id: i for i, company_id in enumerate(panel.ids)}
    for company_id in (id_a, id_b):
        if company_id not in row:
            raise DataValidationError(f"no return series for {company_id!r}")
    a, b = row[id_a], row[id_b]
    common = panel.mask[a] & panel.mask[b]
    n_common = int(common.sum())
    if n_common < max(2, min_overlap):
        raise InsufficientOverlapError(
            f"{id_a}/{id_b}: {n_common} common dates < {min_overlap}"
        )
    return pearson_correlation(panel.values[a, common], panel.values[b, common])


# Rows are processed in blocks of at most this many (row x company)
# cells, so a block's product, nine such grids, stays near 9 MB.
_BLOCK_CELLS = 1 << 17

# A pair whose variance over the common dates is at most this share of its
# sum of squares (about the row mean) may be constant there up to rounding
# of the products; pearson_correlation decides it on the raw values.
_FLAT_SHARE = 1e-3


def _pair_correlations(
    values: np.ndarray,
    mask: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    min_overlap: int,
) -> np.ndarray:
    """Pearson correlation of rows ``a[p]`` and ``b[p]`` over the columns
    both observe, for every pair p; NaN where fewer than
    ``max(2, min_overlap)`` columns are common or either row is constant
    on them.

    Each row is de-meaned over its own observed columns (d, zero where
    unobserved; m is the 0/1 mask). Masked products then give, per pair,
    the common count n = m_a.m_b, each row's sum s and sum of squares q
    over the common columns (s_a = d_a.m_b, q_a = d_a^2.m_b) and the
    cross-product c = d_a.d_b, and the correlation is
    (c - s_a s_b / n) / sqrt((q_a - s_a^2 / n) (q_b - s_b^2 / n)).
    They come from one product per block of rows,
    [m; d; d^2]_block @ [m; d; d^2]^T, of whose nine grids six are used:
    a matrix product call has a fixed cost (thread start-up in a threaded
    BLAS) that dominates at a few hundred companies.
    """
    n_rows = values.shape[0]
    m = mask.astype(np.float64)
    means = values.sum(axis=1) / np.maximum(m.sum(axis=1), 1.0)
    d = (values - means[:, None]) * m
    stacked = np.stack([m, d, d * d])
    right = stacked.reshape(3 * n_rows, -1).T
    rho = np.full(a.size, np.nan)
    block = max(1, _BLOCK_CELLS // max(1, n_rows))
    for lo in range(0, n_rows, block):
        sel = np.flatnonzero((a >= lo) & (a < lo + block))
        if not sel.size:
            continue
        left = stacked[:, lo:lo + block]
        size = left.shape[1]
        grid = left.reshape(3 * size, -1) @ right
        i, j = a[sel] - lo, b[sel]
        n = grid[i, j]
        s_b, q_b = grid[i, n_rows + j], grid[i, 2 * n_rows + j]
        s_a, cross = grid[size + i, j], grid[size + i, n_rows + j]
        q_a = grid[2 * size + i, j]
        del grid
        enough = n >= max(2, min_overlap)
        n = np.where(enough, n, 1.0)
        var_a = q_a - s_a * s_a / n
        var_b = q_b - s_b * s_b / n
        flat = enough & ((var_a <= _FLAT_SHARE * q_a) | (var_b <= _FLAT_SHARE * q_b))
        ok = enough & ~flat
        rho[sel[ok]] = (cross[ok] - s_a[ok] * s_b[ok] / n[ok]) / np.sqrt(
            var_a[ok] * var_b[ok]
        )
        for p in sel[flat]:
            common = mask[a[p]] & mask[b[p]]
            try:
                rho[p] = pearson_correlation(
                    values[a[p], common], values[b[p], common]
                )
            except ZeroVarianceError:
                pass
    return rho


def top_k_peers(
    matrix: EmbeddingMatrix, k: int
) -> dict[str, list[tuple[str, float]]]:
    """Each company's k nearest companies by cosine similarity, excluding
    the company itself; exact similarity ties break toward the
    lexicographically smaller id. k is clamped to the number of
    candidates. The rows are normalized once; each company's similarities
    are one matrix-vector product."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    unit = _unit_rows(matrix.matrix, matrix.ids)
    ids = matrix.ids
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    k = min(k, len(ids) - 1)
    if k < 1:
        return {company_id: [] for company_id in ids}
    peers: dict[str, list[tuple[str, float]]] = {}
    for i, company_id in enumerate(ids):
        sims = unit @ unit[i]
        sims[i] = -np.inf
        # every company tied with the k-th best competes for the last places
        cutoff = np.partition(sims, len(ids) - k)[len(ids) - k]
        candidates = np.flatnonzero(sims >= cutoff)
        order = candidates[np.lexsort((rank[candidates], -sims[candidates]))]
        peers[company_id] = [(ids[j], float(sims[j])) for j in order[:k]]
    return peers


@dataclass
class CorrelationReport:
    """Average peer return correlation, overall and by year/company.

    ``peers`` holds the ranked (peer, similarity) lists the embedding
    scorer used; it is not part of the report file."""

    rho_bar: float
    per_year: dict[int, float]
    per_company: dict[str, float]
    years: list[int]
    k: int | None
    n_companies: int
    skipped_pairs: int
    excluded_companies: list[str]
    peers: dict[str, list[tuple[str, float]]] | None = None

    def to_dict(self) -> dict:
        return {
            "rho_bar": self.rho_bar,
            "per_year": {str(y): v for y, v in sorted(self.per_year.items())},
            "per_company": dict(sorted(self.per_company.items())),
            "years": self.years,
            "k": self.k,
            "n_companies": self.n_companies,
            "skipped_pairs": self.skipped_pairs,
            "excluded_companies": self.excluded_companies,
        }


def _score_peer_sets(
    ids: Sequence[str],
    owner: np.ndarray,
    peer: np.ndarray,
    panel: ReturnPanel,
    years: Sequence[int] | None,
    min_overlap: int,
    k: int | None,
) -> CorrelationReport:
    """Shared scorer: pair p puts ``ids[peer[p]]`` in the peer set of
    ``ids[owner[p]]``, with ``ids`` sorted and the pairs grouped by owner
    in that order. Averages pairwise correlations per year (default: every
    year of the panel), then across years.

    Within a year a company without returns is not scored; a peer without
    returns that year, with fewer than ``min_overlap`` common dates, or
    with either series constant on them is a skipped pair.
    """
    years = list(years) if years is not None else panel.years()
    if not years:
        raise DataValidationError("no years with return data")
    row = dict(zip(panel.ids, range(len(panel.ids))))
    rows = np.array([row[company_id] for company_id in ids], dtype=np.int64)
    a, b = rows[owner], rows[peer]
    # scores[y, n]: ids[n]'s mean peer correlation in years[y], NaN if none
    scores = np.full((len(years), len(ids)), np.nan)
    per_year: dict[int, float] = {}
    skipped_pairs = 0
    for year, year_scores in zip(years, scores):
        cols = panel.year_columns(year)
        year_mask = panel.mask[:, cols]
        rho = _pair_correlations(panel.values[:, cols], year_mask, a, b, min_overlap)
        scored = year_mask.any(axis=1)[a]
        valid = scored & ~np.isnan(rho)
        skipped_pairs += int(np.count_nonzero(scored & ~valid))
        totals = np.bincount(owner[valid], weights=rho[valid], minlength=len(ids))
        counts = np.bincount(owner[valid], minlength=len(ids))
        np.divide(totals, counts, out=year_scores, where=counts > 0)
        if counts.any():
            per_year[year] = float(np.mean(year_scores[counts > 0]))
    if not per_year:
        raise DataValidationError(
            "no company produced a valid peer correlation in any year"
        )
    seen = ~np.isnan(scores)
    per_company = {
        ids[n]: float(np.mean(scores[seen[:, n], n]))
        for n in np.flatnonzero(seen.any(axis=0))
    }
    unscored = (np.bincount(owner, minlength=len(ids)) > 0) & ~seen.any(axis=0)
    return CorrelationReport(
        rho_bar=float(np.mean([per_year[y] for y in sorted(per_year)])),
        per_year=per_year,
        per_company=per_company,
        years=sorted(per_year),
        k=k,
        n_companies=len(per_company),
        skipped_pairs=skipped_pairs,
        excluded_companies=[ids[n] for n in np.flatnonzero(unscored)],
    )


def avg_peer_correlation(
    matrix: EmbeddingMatrix,
    panel: ReturnPanel,
    k: int,
    years: Sequence[int] | None = None,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> CorrelationReport:
    """Score embedding-space top-k peer sets against realized returns.

    Peers are chosen once from the full embedding matrix, restricted to
    companies that also have return data; correlations are then computed
    within each requested year. The report keeps the ranked peer lists.
    """
    with_returns = set(panel.ids)
    universe = [i for i in matrix.ids if i in with_returns]
    if len(universe) < 2:
        raise DataValidationError(
            "need at least 2 companies with both embeddings and returns"
        )
    sub = matrix.subset(sorted(universe))
    ranked = top_k_peers(sub, k)
    # top_k_peers returns the ranked lists in sub.ids order
    owner = np.repeat(np.arange(len(sub.ids)), list(map(len, ranked.values())))
    position = dict(zip(sub.ids, range(len(sub.ids))))
    peer_ids = map(itemgetter(0), chain.from_iterable(ranked.values()))
    peer = np.fromiter(map(position.__getitem__, peer_ids), np.int64, owner.size)
    report = _score_peer_sets(sub.ids, owner, peer, panel, years, min_overlap, k)
    report.peers = ranked
    return report


def gics_baseline_correlation(
    labels: Mapping[str, str],
    panel: ReturnPanel,
    years: Sequence[int] | None = None,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> CorrelationReport:
    """Same scorer with membership peer sets: every other company sharing
    the company's label (so k varies with group size)."""
    with_returns = set(panel.ids)
    universe = sorted(i for i in labels if i in with_returns)
    if len(universe) < 2:
        raise DataValidationError(
            "need at least 2 companies with both labels and returns"
        )
    code: dict[str, int] = {}
    codes = np.array([code.setdefault(labels[i], len(code)) for i in universe])
    same = codes[:, None] == codes[None, :]
    np.fill_diagonal(same, False)
    owner, peer = np.nonzero(same)
    del same
    if not owner.size:
        raise DataValidationError("every label group has a single member")
    return _score_peer_sets(universe, owner, peer, panel, years, min_overlap, k=None)


# ---------------------------------------------------------------------------
# Sector outlier scores


def sector_outlier_scores(
    matrix: EmbeddingMatrix, sector_labels: Mapping[str, str]
) -> dict[str, float]:
    """How much farther a company sits from its own sector centroid than
    from the nearest other sector's centroid, in cosine distance. Positive
    scores flag companies whose text does not match their assigned sector.
    """
    ids = [i for i in matrix.ids if i in sector_labels]
    if not ids:
        raise DataValidationError("no overlap between embeddings and sector labels")
    sectors = sorted({sector_labels[i] for i in ids})
    if len(sectors) < 2:
        raise DataValidationError("outlier scores need at least 2 sectors")
    unit = _unit_rows(matrix.matrix, matrix.ids)
    centroids = {}
    for sector in sectors:
        rows = [matrix.index(i) for i in ids if sector_labels[i] == sector]
        centroid = unit[rows].mean(axis=0)
        norm = float(np.linalg.norm(centroid))
        if norm == 0.0:
            raise ZeroVectorError(f"sector {sector!r} centroid is zero")
        centroids[sector] = centroid / norm
    scores: dict[str, float] = {}
    for company_id in ids:
        row = unit[matrix.index(company_id)]
        own = 1.0 - float(row @ centroids[sector_labels[company_id]])
        others = [
            1.0 - float(row @ centroids[s])
            for s in sectors
            if s != sector_labels[company_id]
        ]
        scores[company_id] = own - min(others)
    return scores

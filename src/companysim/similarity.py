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
import io
import logging
import math
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import add
from pathlib import Path
from types import MappingProxyType
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

logger = logging.getLogger(__name__)

DEFAULT_MIN_OVERLAP = 60
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
RETURNS_HEADER = ["company_id", "date", "return"]


class ReturnPanel:
    """Daily simple returns as a dense company x date panel.

    ``ids`` and ``dates`` are sorted; ``values[i, j]`` is company ``i``'s
    return on ``dates[j]`` where ``mask[i, j]`` is set, and 0.0 elsewhere.
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
    """
    company_index: dict[str, int] = {}
    date_index: dict[str, int] = {}
    rows, cols, values = array("q"), array("q"), array("d")
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != RETURNS_HEADER:
            raise DataValidationError(
                f"returns file must start with {','.join(RETURNS_HEADER)!r}, "
                f"got {header!r}"
            )
        try:
            for line_no, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise DataValidationError(f"line {line_no}: expected 3 columns")
                company_id, date, raw_value = row
                col = date_index.get(date)
                if col is None:
                    if not _DATE_RE.match(date):
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
        except DataValidationError:
            # a duplicate on an earlier line is the first error in the file
            _check_duplicates(rows, cols, company_index, date_index)
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


def _csv_fields(texts: Sequence[str]) -> list[str]:
    """Each text as ``csv.writer(lineterminator="\\n")`` writes it as a
    field. That line terminator must be the file's: it decides whether
    ``\\r`` and ``\\n`` get quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        # with a second, empty field an empty text stays unquoted, as in the
        # file's rows; then strip that field's ",\n"
        writer.writerow([text, ""])
        fields.append(buf.getvalue()[:-2])
    return fields


def save_returns_csv(panel: ReturnPanel, path: str | Path) -> None:
    """Rows ``company_id,date,repr(value)`` for the observed cells, byte for
    byte as ``csv.writer`` writes them (a float's repr never needs quoting),
    one write per company."""
    dates = [field + "," for field in _csv_fields(panel.dates)]
    with open(path, "w", encoding="utf-8", newline="") as f:
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
    peer_sets: Mapping[str, Sequence[str]],
    panel: ReturnPanel,
    years: Sequence[int],
    min_overlap: int,
    k: int | None,
) -> CorrelationReport:
    """Shared scorer: given each company's peer list, average pairwise
    correlations per year, then across years.

    Within a year a company without returns is not scored; a peer without
    returns that year, with fewer than ``min_overlap`` common dates, or
    with either series constant on them is a skipped pair.
    """
    companies = sorted(peer_sets)
    row = {company_id: i for i, company_id in enumerate(panel.ids)}
    owner, a, b = [], [], []
    for n, company_id in enumerate(companies):
        for peer in peer_sets[company_id]:
            owner.append(n)
            a.append(row[company_id])
            b.append(row[peer])
    owner, a, b = (np.array(x, dtype=np.int64) for x in (owner, a, b))
    per_year: dict[int, float] = {}
    company_scores: dict[str, list[float]] = {}
    skipped_pairs = 0
    for year in years:
        cols = panel.year_columns(year)
        year_mask = panel.mask[:, cols]
        rho = _pair_correlations(panel.values[:, cols], year_mask, a, b, min_overlap)
        scored = year_mask.any(axis=1)[a]
        valid = scored & ~np.isnan(rho)
        skipped_pairs += int(np.count_nonzero(scored & ~valid))
        totals = np.bincount(owner[valid], weights=rho[valid], minlength=len(companies))
        counts = np.bincount(owner[valid], minlength=len(companies))
        year_scores = {
            companies[n]: float(totals[n] / counts[n]) for n in np.flatnonzero(counts)
        }
        if year_scores:
            per_year[year] = float(np.mean(list(year_scores.values())))
            for company_id, score in year_scores.items():
                company_scores.setdefault(company_id, []).append(score)
    if not per_year:
        raise DataValidationError(
            "no company produced a valid peer correlation in any year"
        )
    per_company = {
        company_id: float(np.mean(scores))
        for company_id, scores in sorted(company_scores.items())
    }
    excluded = sorted(set(peer_sets) - set(per_company))
    return CorrelationReport(
        rho_bar=float(np.mean([per_year[y] for y in sorted(per_year)])),
        per_year=per_year,
        per_company=per_company,
        years=sorted(per_year),
        k=k,
        n_companies=len(per_company),
        skipped_pairs=skipped_pairs,
        excluded_companies=excluded,
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
    use_years = list(years) if years is not None else panel.years()
    if not use_years:
        raise DataValidationError("no years with return data")
    ranked = top_k_peers(sub, k)
    peer_sets = {
        company_id: [peer for peer, _ in peers]
        for company_id, peers in ranked.items()
    }
    report = _score_peer_sets(peer_sets, panel, use_years, min_overlap, k)
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
    by_label: dict[str, list[str]] = {}
    for company_id in universe:
        by_label.setdefault(labels[company_id], []).append(company_id)
    peer_sets = {
        company_id: [p for p in by_label[labels[company_id]] if p != company_id]
        for company_id in universe
    }
    peer_sets = {c: peers for c, peers in peer_sets.items() if peers}
    if not peer_sets:
        raise DataValidationError("every label group has a single member")
    use_years = list(years) if years is not None else panel.years()
    return _score_peer_sets(peer_sets, panel, use_years, min_overlap, k=None)


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

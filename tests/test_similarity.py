import csv
import hashlib
import io
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from companysim import similarity
from companysim.embeddings import EmbeddingMatrix
from companysim.errors import (
    DataValidationError,
    InsufficientOverlapError,
    ZeroVarianceError,
    ZeroVectorError,
)
from companysim.similarity import (
    ReturnPanel,
    avg_peer_correlation,
    gics_baseline_correlation,
    load_returns_csv,
    pairwise_return_correlation,
    pearson_correlation,
    save_returns_csv,
    sector_outlier_scores,
    top_k_peers,
)

# ---------------------------------------------------------------------------
# Brute-force oracle, coded independently with explicit loops.


def _oracle_cosine(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


def _oracle_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    vy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / (vx * vy)


def _oracle_avg_peer_correlation(matrix, panel, k, years, min_overlap):
    ids = [i for i in matrix.ids if i in panel.series]
    ids = sorted(ids)
    vectors = {i: matrix.row(i).astype(np.float64) for i in ids}
    peer_sets = {}
    for cid in ids:
        sims = []
        for other in ids:
            if other == cid:
                continue
            sims.append((-_oracle_cosine(vectors[cid], vectors[other]), other))
        sims.sort()
        peer_sets[cid] = [other for _, other in sims[:k]]

    year_means = []
    per_year = {}
    for year in years:
        prefix = f"{year:04d}-"
        scores = []
        for cid in ids:
            my_obs = {
                d: v for d, v in panel.series[cid].items() if d.startswith(prefix)
            }
            if not my_obs:
                continue
            rhos = []
            for peer in peer_sets[cid]:
                peer_obs = {
                    d: v
                    for d, v in panel.series[peer].items()
                    if d.startswith(prefix)
                }
                common = sorted(set(my_obs) & set(peer_obs))
                if len(common) < max(2, min_overlap):
                    continue
                rho = _oracle_pearson(
                    [my_obs[d] for d in common], [peer_obs[d] for d in common]
                )
                if rho is not None:
                    rhos.append(rho)
            if rhos:
                scores.append(sum(rhos) / len(rhos))
        if scores:
            per_year[year] = sum(scores) / len(scores)
    if per_year:
        year_means = [per_year[y] for y in sorted(per_year)]
        return sum(year_means) / len(year_means), per_year
    return None, {}


def _random_universe(rng, n_companies, n_days=80, dim=5, year=2021):
    ids = [f"c{i:02d}" for i in range(n_companies)]
    matrix = EmbeddingMatrix(
        ids=ids,
        matrix=rng.normal(size=(n_companies, dim)).astype(np.float32),
        provider_id="t",
        context_budget=512,
    )
    dates = [f"{year}-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(n_days)]
    series = {
        cid: {d: float(rng.normal()) for d in dates} for cid in ids
    }
    return matrix, ReturnPanel(series)


# ---------------------------------------------------------------------------
# Unit tests


def test_zero_embedding_row_raises_naming_the_company():
    matrix = EmbeddingMatrix(
        ids=["a", "b", "c"],
        matrix=np.array([[1, 0], [0, 0], [0, 1]], dtype=np.float32),
        provider_id="t",
        context_budget=512,
    )
    with pytest.raises(ZeroVectorError, match="'b'"):
        top_k_peers(matrix, 1)
    with pytest.raises(ZeroVectorError, match="'b'"):
        sector_outlier_scores(matrix, {"a": "x", "b": "x", "c": "y"})


def test_pearson_correlation_against_numpy():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.normal(size=30)
        y = 0.4 * x + rng.normal(size=30)
        assert math.isclose(
            pearson_correlation(x, y), np.corrcoef(x, y)[0, 1], rel_tol=1e-12
        )


def test_pearson_rejects_constant_series():
    with pytest.raises(ZeroVarianceError):
        pearson_correlation(np.ones(10), np.arange(10.0))


def test_pairwise_correlation_uses_common_dates_only():
    series = {
        "a": {f"2020-01-{d:02d}": float(d) for d in range(1, 21)},
        "b": {f"2020-01-{d:02d}": float(2 * d) for d in range(5, 25)},
    }
    panel = ReturnPanel(series)
    rho = pairwise_return_correlation(panel, "a", "b", min_overlap=10)
    assert math.isclose(rho, 1.0, rel_tol=1e-12)
    with pytest.raises(InsufficientOverlapError):
        pairwise_return_correlation(panel, "a", "b", min_overlap=17)


def test_top_k_peers_ranking_and_ties():
    matrix = EmbeddingMatrix(
        ids=["a", "b", "c", "d"],
        matrix=np.array(
            [[1, 0], [1, 0], [0, 1], [1, 0.01]], dtype=np.float32
        ),
        provider_id="t",
        context_budget=512,
    )
    peers = top_k_peers(matrix, 3)["a"]
    # b ties at similarity 1.0 with nothing; then d; c last
    assert [p for p, _ in peers] == ["b", "d", "c"]
    ids = ["a", "b", "c"]
    tied = EmbeddingMatrix(
        ids=ids,
        matrix=np.array([[1, 0], [0, 1], [0, 1]], dtype=np.float32),
        provider_id="t",
        context_budget=512,
    )
    # b and c tie exactly; lexicographically smaller id first
    assert [p for p, _ in top_k_peers(tied, 2)["a"]] == ["b", "c"]


def test_avg_peer_correlation_matches_bruteforce_oracle():
    rng = np.random.default_rng(99)
    for trial in range(6):
        n = int(rng.integers(5, 16))
        k = int(rng.integers(1, min(5, n - 1) + 1))
        matrix, panel = _random_universe(rng, n, n_days=70)
        report = avg_peer_correlation(
            matrix, panel, k=k, years=[2021], min_overlap=30
        )
        oracle, per_year = _oracle_avg_peer_correlation(
            matrix, panel, k, [2021], 30
        )
        assert abs(report.rho_bar - oracle) <= 1e-12
        assert math.isclose(report.per_year[2021], per_year[2021], abs_tol=1e-12)


def test_avg_peer_correlation_multi_year_average():
    rng = np.random.default_rng(8)
    ids = ["a", "b", "c"]
    matrix = EmbeddingMatrix(
        ids=ids,
        matrix=rng.normal(size=(3, 4)).astype(np.float32),
        provider_id="t",
        context_budget=512,
    )
    series = {}
    for cid in ids:
        obs = {}
        for year in (2020, 2021):
            for d in range(40):
                obs[f"{year}-{1 + d // 28:02d}-{1 + d % 28:02d}"] = float(rng.normal())
        series[cid] = obs
    panel = ReturnPanel(series)
    report = avg_peer_correlation(matrix, panel, k=1, years=[2020, 2021], min_overlap=10)
    assert set(report.per_year) == {2020, 2021}
    assert math.isclose(
        report.rho_bar,
        (report.per_year[2020] + report.per_year[2021]) / 2,
        abs_tol=1e-15,
    )


def test_gics_baseline_uses_whole_label_group():
    rng = np.random.default_rng(12)
    matrix, panel = _random_universe(rng, 6)
    labels = {"c00": "X", "c01": "X", "c02": "X", "c03": "Y", "c04": "Y", "c05": "Z"}
    report = gics_baseline_correlation(labels, panel, years=[2021], min_overlap=10)
    # singleton group Z cannot contribute
    assert "c05" not in report.per_company
    assert report.k is None
    assert report.n_companies == 5


def test_both_peer_scorers_reject_an_empty_year_list():
    rng = np.random.default_rng(12)
    matrix, panel = _random_universe(rng, 6)
    labels = {"c00": "X", "c01": "X", "c02": "Y", "c03": "Y"}
    with pytest.raises(DataValidationError, match="no years with return data"):
        avg_peer_correlation(matrix, panel, k=2, years=[], min_overlap=10)
    with pytest.raises(DataValidationError, match="no years with return data"):
        gics_baseline_correlation(labels, panel, years=[], min_overlap=10)


def test_returns_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    _, panel = _random_universe(rng, 4, n_days=10)
    path = tmp_path / "returns.csv"
    save_returns_csv(panel, path)
    again = load_returns_csv(path)
    assert again.series == panel.series


def test_returns_csv_validation(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-1-05,0.1\n")
    with pytest.raises(DataValidationError, match="bad date"):
        load_returns_csv(path)
    path.write_text("company_id,date,return\na,2020-01-05,oops\n")
    with pytest.raises(DataValidationError, match="bad return"):
        load_returns_csv(path)
    path.write_text(
        "company_id,date,return\na,2020-01-05,0.1\na,2020-01-05,0.2\n"
    )
    with pytest.raises(DataValidationError, match="duplicate"):
        load_returns_csv(path)
    path.write_text("date,company_id,return\n")
    with pytest.raises(DataValidationError, match="must start with"):
        load_returns_csv(path)


def test_sector_outlier_scores_flag_mislabeled_company():
    rng = np.random.default_rng(21)
    # two tight sector blobs; one company carries the wrong label
    a = rng.normal(loc=[5, 0, 0], scale=0.1, size=(10, 3))
    b = rng.normal(loc=[0, 5, 0], scale=0.1, size=(10, 3))
    ids = [f"a{i}" for i in range(10)] + [f"b{i}" for i in range(10)]
    matrix = EmbeddingMatrix(
        ids=ids,
        matrix=np.vstack([a, b]).astype(np.float32),
        provider_id="t",
        context_budget=512,
    )
    labels = {cid: ("A" if cid.startswith("a") else "B") for cid in ids}
    labels["a9"] = "B"  # text looks like sector A but labeled B
    scores = sector_outlier_scores(matrix, labels)
    assert scores["a9"] > 0
    assert max(v for c, v in scores.items() if c != "a9") < scores["a9"]
    assert all(v < 0 for c, v in scores.items() if c != "a9")


def test_sector_outlier_scores_need_two_sectors():
    rng = np.random.default_rng(1)
    matrix, _ = _random_universe(rng, 3)
    with pytest.raises(DataValidationError):
        sector_outlier_scores(matrix, {i: "only" for i in matrix.ids})


# ---------------------------------------------------------------------------
# The dense scorer against the per-pair loop it replaced


def _loop_scores(peer_sets, series, years, min_overlap):
    """Per-pair loop over company -> date -> value dicts, one
    pearson_correlation call per pair: (per_year, per_company,
    skipped_pairs, excluded_companies)."""
    per_year, company_scores, skipped = {}, {}, 0
    for year in years:
        prefix = f"{year:04d}-"
        year_series = {}
        for cid, obs in series.items():
            kept = {d: v for d, v in obs.items() if d.startswith(prefix)}
            if kept:
                year_series[cid] = kept
        scores = {}
        for cid in sorted(peer_sets):
            if cid not in year_series:
                continue
            rhos = []
            for peer in peer_sets[cid]:
                if peer not in year_series:
                    skipped += 1
                    continue
                mine, theirs = year_series[cid], year_series[peer]
                common = sorted(set(mine) & set(theirs))
                if len(common) < max(2, min_overlap):
                    skipped += 1
                    continue
                try:
                    rhos.append(pearson_correlation(
                        np.array([mine[d] for d in common]),
                        np.array([theirs[d] for d in common]),
                    ))
                except ZeroVarianceError:
                    skipped += 1
            if rhos:
                scores[cid] = float(np.mean(rhos))
        if scores:
            per_year[year] = float(np.mean(list(scores.values())))
            for cid, score in scores.items():
                company_scores.setdefault(cid, []).append(score)
    per_company = {c: float(np.mean(v)) for c, v in company_scores.items()}
    return per_year, per_company, skipped, sorted(set(peer_sets) - set(per_company))


def _gappy_series(rng, n_random, min_overlap, per_year=60):
    """Two years of returns with every gap the scorer must handle. The
    "edge" companies share 2020 dates with edge_a on exactly
    min_overlap - 1 (edge_short) and min_overlap (edge_exact) days;
    edge_short and "gone_2020" are absent from a whole year; "flat" is
    constant; "flat_on_overlap" is constant (0.5) exactly on the dates it
    shares with "partner". The rest list and delist at random and miss
    ~10% of their days."""
    dates = [f"{y}-{1 + d // 28:02d}-{1 + d % 28:02d}"
             for y in (2020, 2021) for d in range(per_year)]
    y2020, y2021 = dates[:per_year], dates[per_year:]

    def noise(ds):
        return {d: float(rng.normal(scale=0.02)) for d in ds}

    flat_on_overlap = noise(dates)
    flat_on_overlap.update({d: 0.5 for d in y2020[10:40]})
    series = {
        "edge_a": {**noise(y2020[:30]), **noise(y2021)},
        "edge_short": noise(y2020[30 - (min_overlap - 1):]),
        "edge_exact": {**noise(y2020[30 - min_overlap:]), **noise(y2021[:45])},
        "gone_2020": noise(y2021),
        "flat": {d: 0.25 for d in dates},
        "flat_on_overlap": flat_on_overlap,
        "partner": noise(y2020[10:40]),
    }
    for i in range(n_random):
        lo = int(rng.integers(0, len(dates) // 2)) if rng.random() < 0.3 else 0
        hi = int(rng.integers(lo + 1, len(dates) + 1)) if rng.random() < 0.3 else len(dates)
        kept = [d for d in dates[lo:hi] if rng.random() > 0.1]
        series[f"r{i:02d}"] = noise(kept)
    return series


def _assert_matches_loop(report, peer_sets, series, years, min_overlap):
    per_year, per_company, skipped, excluded = _loop_scores(
        peer_sets, series, years, min_overlap)
    assert report.skipped_pairs == skipped
    assert report.excluded_companies == excluded
    assert set(report.per_year) == set(per_year)
    for year, value in per_year.items():
        assert abs(report.per_year[year] - value) <= 1e-12
    assert set(report.per_company) == set(per_company)
    for cid, value in per_company.items():
        assert abs(report.per_company[cid] - value) <= 1e-12


def test_dense_scorer_matches_loop_on_gappy_panels():
    min_overlap = 20
    for seed in range(8):
        rng = np.random.default_rng(seed)
        series = _gappy_series(rng, int(rng.integers(4, 20)), min_overlap)
        panel = ReturnPanel(series)
        ids = sorted(series)
        special = ["edge_a", "edge_short", "edge_exact", "gone_2020", "flat",
                   "flat_on_overlap", "partner"]
        labels = {cid: ("S" if cid in special else str(rng.integers(0, 3)))
                  for cid in ids}
        baseline = gics_baseline_correlation(
            labels, panel, years=[2020, 2021], min_overlap=min_overlap)
        groups = {}
        for cid in ids:
            groups.setdefault(labels[cid], []).append(cid)
        peer_sets = {c: [p for p in groups[labels[c]] if p != c] for c in ids}
        peer_sets = {c: p for c, p in peer_sets.items() if p}
        _assert_matches_loop(baseline, peer_sets, series, [2020, 2021], min_overlap)

        matrix = EmbeddingMatrix(
            ids=ids, matrix=rng.normal(size=(len(ids), 4)).astype(np.float32),
            provider_id="t", context_budget=512)
        k = int(rng.integers(1, 6))
        report = avg_peer_correlation(
            matrix, panel, k=k, years=[2020, 2021], min_overlap=min_overlap)
        peer_sets = {c: [p for p, _ in peers] for c, peers in report.peers.items()}
        _assert_matches_loop(report, peer_sets, series, [2020, 2021], min_overlap)


def _appended_pairs(peer_sets):
    """A company -> peers dict as owner and peer positions in its sorted
    ids, by the append loop the scorers used before they built index
    arrays."""
    ids = sorted(peer_sets)
    position = {company_id: n for n, company_id in enumerate(ids)}
    owner, peer = [], []
    for n, company_id in enumerate(ids):
        for p in peer_sets[company_id]:
            owner.append(n)
            peer.append(position[p])
    return ids, np.array(owner, dtype=np.int64), np.array(peer, dtype=np.int64)


def _assert_same_report(report, expected):
    assert report.to_dict() == expected.to_dict()
    assert report.skipped_pairs == expected.skipped_pairs
    assert report.excluded_companies == expected.excluded_companies


def test_index_pairs_score_as_the_dict_built_peer_sets():
    """The scorers' index arrays give exactly the reports of the peer-id
    dicts they replaced: labels with a singleton group, or one group for
    every company; companies without returns; a year no company observes."""
    min_overlap = 20
    for seed in range(8):
        rng = np.random.default_rng(seed)
        panel = ReturnPanel(_gappy_series(rng, int(rng.integers(4, 20)), min_overlap))
        ids = panel.ids + ["no_returns_a", "no_returns_b"]
        if seed % 3 == 0:
            labels = {company_id: "all" for company_id in ids}
        else:
            labels = {company_id: str(rng.integers(0, 3)) for company_id in ids}
            labels[panel.ids[seed]] = "alone"
            labels["no_returns_a"] = "alone too"
        years = [2019, 2020, 2021] if seed % 2 else None

        universe = sorted(c for c in labels if c in panel.ids)
        by_label = {}
        for company_id in universe:
            by_label.setdefault(labels[company_id], []).append(company_id)
        peer_sets = {c: [p for p in by_label[labels[c]] if p != c] for c in universe}
        peer_sets = {c: peers for c, peers in peer_sets.items() if peers}
        _assert_same_report(
            gics_baseline_correlation(labels, panel, years, min_overlap),
            similarity._score_peer_sets(
                *_appended_pairs(peer_sets), panel, years, min_overlap, None),
        )

        order = rng.permutation(len(ids))
        matrix = EmbeddingMatrix(
            ids=[ids[i] for i in order],
            matrix=rng.normal(size=(len(ids), 4)).astype(np.float32),
            provider_id="t", context_budget=512)
        k = int(rng.integers(1, 6))
        sub = matrix.subset(universe)
        peer_sets = {c: [p for p, _ in peers] for c, peers in top_k_peers(sub, k).items()}
        _assert_same_report(
            avg_peer_correlation(matrix, panel, k, years, min_overlap),
            similarity._score_peer_sets(
                *_appended_pairs(peer_sets), panel, years, min_overlap, k),
        )


def test_dense_scorer_row_blocks_agree(monkeypatch):
    rng = np.random.default_rng(11)
    series = _gappy_series(rng, 25, 20)
    labels = {cid: str(i % 3) for i, cid in enumerate(sorted(series))}
    whole = gics_baseline_correlation(labels, ReturnPanel(series), min_overlap=20)
    # 32 rows: blocks of one row each
    monkeypatch.setattr(similarity, "_BLOCK_CELLS", 32)
    blocked = gics_baseline_correlation(labels, ReturnPanel(series), min_overlap=20)
    # the products round differently by shape, so floats agree to rounding
    assert blocked.skipped_pairs == whole.skipped_pairs
    assert blocked.excluded_companies == whole.excluded_companies
    assert blocked.per_company == pytest.approx(whole.per_company, abs=1e-14)
    assert blocked.per_year == pytest.approx(whole.per_year, abs=1e-14)


def test_dense_scorer_skip_rules_at_the_edges():
    rng = np.random.default_rng(5)
    panel = ReturnPanel(_gappy_series(rng, 0, 20))

    def outcome(company, peer):
        """(years with a valid pair, skipped pairs) scoring the two as
        each other's only peer; None when no pair is valid."""
        try:
            report = gics_baseline_correlation(
                {company: "S", peer: "S"}, panel, years=[2020, 2021],
                min_overlap=20)
        except DataValidationError:
            return None
        return sorted(report.per_year), report.skipped_pairs

    # min_overlap - 1 common days in 2020; edge_short has no 2021 at all
    assert outcome("edge_a", "edge_short") is None
    # exactly min_overlap common days in 2020
    assert outcome("edge_a", "edge_exact") == ([2020, 2021], 0)
    # constant series, and a series constant on its overlap: zero variance
    assert outcome("flat", "edge_a") is None
    assert outcome("flat_on_overlap", "partner") is None
    # flat_on_overlap varies over the dates it shares with edge_exact
    assert outcome("flat_on_overlap", "edge_exact") == ([2020, 2021], 0)
    # absent from 2020: not scored there, and its peer's pair is skipped
    assert outcome("gone_2020", "edge_a") == ([2021], 1)


def test_pairwise_return_correlation_matches_dense_scorer():
    rng = np.random.default_rng(3)
    series = _gappy_series(rng, 6, 20)
    panel = ReturnPanel(series)
    report = gics_baseline_correlation(
        {"r00": "S", "r01": "S"}, panel, years=[2020], min_overlap=20)
    year = {c: {d: v for d, v in obs.items() if d.startswith("2020-")}
            for c, obs in series.items()}
    rho = pairwise_return_correlation(ReturnPanel(year), "r00", "r01", 20)
    assert abs(report.per_company["r00"] - rho) <= 1e-14
    with pytest.raises(DataValidationError, match="no return series"):
        pairwise_return_correlation(panel, "r00", "nope")


def test_top_k_peers_exact_ties_at_kth_place():
    # rows listed out of id order; b is nearest, then c, d and x tie at 0
    ids = ["x", "a", "d", "b", "c", "e"]
    rows = {"a": [1, 0], "b": [1, 0.5], "c": [0, 1], "d": [0, 2],
            "x": [0, -1], "e": [-1, 0]}
    matrix = EmbeddingMatrix(
        ids=ids, matrix=np.array([rows[i] for i in ids], dtype=np.float32),
        provider_id="t", context_budget=512)
    assert [p for p, _ in top_k_peers(matrix, 2)["a"]] == ["b", "c"]
    assert [p for p, _ in top_k_peers(matrix, 3)["a"]] == ["b", "c", "d"]
    assert [p for p, _ in top_k_peers(matrix, 4)["a"]] == ["b", "c", "d", "x"]
    assert [p for p, _ in top_k_peers(matrix, 9)["a"]] == ["b", "c", "d", "x", "e"]


def test_top_k_peers_bit_identical_to_sorted_ranking():
    """Against the per-company ranking it replaced: one matrix-vector
    product per company and a full sort on (-similarity, id)."""
    rng = np.random.default_rng(17)
    base = rng.normal(size=(6, 3))
    rows = base[rng.integers(0, 6, size=30)]  # many exact ties
    ids = [f"c{i:02d}" for i in rng.permutation(30)]
    matrix = EmbeddingMatrix(ids=ids, matrix=rows.astype(np.float32),
                             provider_id="t", context_budget=512)
    unit = matrix.matrix.astype(np.float64)
    unit = unit / np.linalg.norm(unit, axis=1)[:, None]
    for k in (1, 4, 29):
        got = top_k_peers(matrix, k)
        for i, cid in enumerate(ids):
            sims = unit @ unit[i]
            ranked = sorted(((o, float(sims[j])) for j, o in enumerate(ids)
                             if o != cid), key=lambda p: (-p[1], p[0]))
            assert got[cid] == ranked[:k]


# ---------------------------------------------------------------------------
# Loader


_LONG = "x" * (csv.field_size_limit() + 1)

_BAD_RETURNS = [
    ("company_id,date\n", "must start with"),
    ("", "must start with"),
    ("company_id,date,return\n", "no return observations"),
    ("company_id,date,return\na,2020-01-02,0.1\nb,2020-01-02\n",
     "line 3: expected 3 columns"),
    ("company_id,date,return\na,2020-01-02,0.1,x\n", "line 2: expected 3 columns"),
    ("company_id,date,return\na,2020-01-02,0.1\na,2020/01/03,0.1\n",
     "line 3: bad date"),
    # a trailing newline or full-width digits would make a second column
    # for the same day, hiding the duplicate observation
    ('company_id,date,return\na,2020-01-02,0.1\na,"2020-01-02\n",0.2\n',
     "line 3: bad date"),
    ("company_id,date,return\na,2020-01-02,0.1\n"
     "a,\uff12\uff10\uff12\uff10-\uff10\uff11-\uff10\uff12,0.2\n", "line 3: bad date"),
    # the right shape, but not a day of the calendar
    ("company_id,date,return\na,2021-02-28,0.1\na,2021-02-30,0.2\n",
     r"line 3: bad date '2021-02-30', expected YYYY-MM-DD"),
    ("company_id,date,return\na,2021-12-01,0.1\nb,2021-13-01,0.2\n",
     r"line 3: bad date '2021-13-01', expected YYYY-MM-DD"),
    ("company_id,date,return\n,2020-01-02,0.1\n", "line 2: empty company id"),
    ("company_id,date,return\na,2020-01-02,0.1\na,2020-01-03,\n",
     "line 3: bad return value"),
    ("company_id,date,return\na,2020-01-02,nan\n", "line 2: non-finite"),
    ("company_id,date,return\na,2020-01-02,0.1\nb,2020-01-02,-inf\n",
     "line 3: non-finite"),
    ("company_id,date,return\na,2020-01-02,0.1\nb,2020-01-02,0.2\n"
     "a,2020-01-02,0.3\n", "line 4: duplicate observation a/2020-01-02"),
    # the first error in the file wins: a duplicate before a bad value
    ("company_id,date,return\na,2020-01-02,0.1\na,2020-01-02,0.1\n"
     "b,2020-01-02,oops\n", "line 3: duplicate observation a/2020-01-02"),
    # a field the csv module refuses is a bad row like any other
    pytest.param(f"{_LONG}\n", r"line 1: field larger than field limit \(131072\)",
                 id="over-long header field"),
    pytest.param(f"company_id,date,return\na,2020-01-02,0.1\n{_LONG},2020-01-02,0.2\n",
                 r"line 3: field larger than field limit \(131072\)",
                 id="over-long field"),
    pytest.param(f"company_id,date,return\na,2020-01-02,0.1\na,2020-01-02,0.1\n"
                 f"b,{_LONG},0.2\n", "line 3: duplicate observation a/2020-01-02",
                 id="duplicate before an over-long field"),
]


@pytest.mark.parametrize("body, message", _BAD_RETURNS)
def test_returns_csv_rejects_bad_input_naming_the_line(tmp_path, body, message):
    path = tmp_path / "r.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataValidationError, match=message):
        load_returns_csv(path)


def test_loaded_panel_is_dense_and_sorted(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\n"
                    "b,2020-01-03,0.5\na,2020-01-02,-0.25\nb,2020-01-02,0.125\n")
    panel = load_returns_csv(path)
    assert panel.ids == ["a", "b"]
    assert panel.dates == ["2020-01-02", "2020-01-03"]
    assert panel.values.tolist() == [[-0.25, 0.0], [0.125, 0.5]]
    assert panel.mask.tolist() == [[True, False], [True, True]]
    assert panel.series == {"a": {"2020-01-02": -0.25},
                            "b": {"2020-01-02": 0.125, "2020-01-03": 0.5}}
    assert panel.years() == [2020]


def test_panel_copies_its_mapping_into_the_arrays():
    rng = np.random.default_rng(6)
    series = _gappy_series(rng, 8, min_overlap=20)
    panel = ReturnPanel(series)
    ids = sorted(series)
    dates = sorted({date for obs in series.values() for date in obs})
    assert panel.ids == ids
    assert panel.dates == dates
    for i, company_id in enumerate(ids):
        for j, date in enumerate(dates):
            assert panel.mask[i, j] == (date in series[company_id])
            assert panel.values[i, j] == series[company_id].get(date, 0.0)
    values, mask = panel.values.copy(), panel.mask.copy()
    before = {company_id: dict(obs) for company_id, obs in series.items()}
    series["edge_a"][dates[0]] = 9.0
    del series["flat"][dates[1]]
    series["late"] = {dates[2]: 1.0}
    assert np.array_equal(panel.values, values)
    assert np.array_equal(panel.mask, mask)
    assert panel.series == before
    rebuilt = ReturnPanel(panel.series)
    assert rebuilt.ids == panel.ids and rebuilt.dates == panel.dates
    assert np.array_equal(rebuilt.values, values)
    assert np.array_equal(rebuilt.mask, mask)


def test_panel_series_is_a_read_only_view():
    panel = ReturnPanel({"a": {"2020-01-02": 0.5}})
    with pytest.raises(TypeError):
        panel.series["a"]["2020-01-02"] = 1.0
    with pytest.raises(TypeError):
        panel.series["b"] = {}
    assert panel.values.tolist() == [[0.5]]


def test_numpy_scalar_returns_round_trip_through_the_csv(tmp_path):
    panel = ReturnPanel({
        "a": {"2020-01-02": np.float64(0.1), "2020-01-03": np.float32(0.1)},
        "b": {"2020-01-03": np.float64(-5e-324), "2020-01-06": np.int64(2)},
    })
    path = tmp_path / "r.csv"
    save_returns_csv(panel, path)
    loaded = load_returns_csv(path)
    assert loaded.ids == panel.ids
    assert loaded.dates == panel.dates
    assert np.array_equal(loaded.values, panel.values)
    assert np.array_equal(loaded.mask, panel.mask)


def _reference_save_returns_csv(panel, path):
    """The plain csv.writer form of the returns file, one row at a time:
    quoted as for csv.writer's own "\\r\\n" line end, so that a bare "\\r"
    is quoted too, and each line ended with "\\n"."""
    rows = [["company_id", "date", "return"]]
    for company_id in panel.companies():
        obs = panel.series[company_id]
        rows += [[company_id, date, repr(obs[date])] for date in sorted(obs)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        for row in rows:
            line = io.StringIO()
            csv.writer(line).writerow(row)
            assert line.getvalue().endswith("\r\n")
            f.write(line.getvalue()[:-2] + "\n")


def test_returns_csv_writer_bytes_match_csv_writer(tmp_path):
    # ids and dates that need quoting, or look like they might
    odd = ["a,b", 'say "hi"', "cr\rlf", "line\nbreak", "two words", " lead",
           "", "plain", '"', ",", "\r\n", "tab\there", "é", "'q'"]
    values = [0.1, -0.0, 1e300, float("nan"), -1e-300, 5e-324, float("inf"), 1.0]
    rng = np.random.default_rng(4)
    for trial in range(30):
        ids = rng.choice(odd, size=rng.integers(1, len(odd)), replace=False)
        series = {}
        for company_id in ids:
            dates = rng.choice(odd + ["2020-01-02"], size=rng.integers(0, 6),
                               replace=False)
            series[str(company_id)] = {
                str(date): values[int(rng.integers(len(values)))] for date in dates
            }
        panel = ReturnPanel(series)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_returns_csv(panel, got)
        _reference_save_returns_csv(panel, want)
        assert got.read_bytes() == want.read_bytes(), series


def test_returns_csv_with_a_bare_carriage_return_reads_back(tmp_path):
    panel = ReturnPanel({"cr\rhere": {"2020-01-02": 0.1, "2020-01-03": -0.2},
                         "b": {"2020-01-02": 0.2}, "lf\nhere": {"2020-01-03": 0.3}})
    path = tmp_path / "r.csv"
    save_returns_csv(panel, path)
    assert b'"cr\rhere",2020-01-02,0.1\n' in path.read_bytes()
    loaded = load_returns_csv(path)
    assert loaded.ids == panel.ids == ["b", "cr\rhere", "lf\nhere"]
    assert loaded.dates == panel.dates
    assert np.array_equal(loaded.values, panel.values)
    assert np.array_equal(loaded.mask, panel.mask)


def test_returns_csv_writer_bytes_match_on_loaded_panel(tmp_path):
    rng = np.random.default_rng(2)
    _, panel = _random_universe(rng, 6, n_days=30)
    first = tmp_path / "first.csv"
    save_returns_csv(panel, first)
    loaded = load_returns_csv(first)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_returns_csv(loaded, got)
    _reference_save_returns_csv(loaded, want)
    assert got.read_bytes() == want.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# The panel cache beside the returns file

# ids the csv module must quote, or that numpy's string arrays would change
_ODD_IDS = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "trailing ", "é",
            "株式会社", "nul\x00", "\x00"]


def _parse(path):
    """A fresh parse of the returns file, bypassing the cache."""
    with open(path, "rb", buffering=0) as raw:
        return similarity._parse_returns(raw, path)


def _assert_same_panel(got, want):
    assert got.ids == want.ids
    assert all(type(i) is str for i in got.ids + got.dates)
    assert got.dates == want.dates
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.tobytes() == want.values.tobytes()
    assert got.mask.dtype == want.mask.dtype == bool
    assert np.array_equal(got.mask, want.mask)


def _load_logging(path, caplog):
    """Load ``path``; returns the panel and the one line the load logged."""
    caplog.clear()
    with caplog.at_level("INFO", logger="companysim.similarity"):
        panel = load_returns_csv(path)
    [line] = [r.getMessage() for r in caplog.records
              if r.name == "companysim.similarity"]
    return panel, line


def _sidecar(path):
    return path.parent / f"{path.name}.panel.npz"


def test_cache_hit_gives_the_panel_a_parse_gives(tmp_path, caplog):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        series = _gappy_series(rng, int(rng.integers(4, 20)), min_overlap=20)
        # the first companies take the odd ids
        series = dict(zip(_ODD_IDS + list(series)[len(_ODD_IDS):], series.values()))
        series["no_returns"] = {}  # not in the file, so not in the panel
        path = tmp_path / f"r{seed}.csv"
        # csv.writer's own "\r\n" line end, so that "\r" in an id gets quoted
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["company_id", "date", "return"])
            writer.writerows([c, d, repr(v)] for c, obs in series.items()
                             for d, v in obs.items())
        first, line = _load_logging(path, caplog)
        assert line == (f"returns {path}: parsed (no cache) and cached to "
                        f"{_sidecar(path)}")
        hit, line = _load_logging(path, caplog)
        assert line == f"returns {path}: cache hit, panel read from {_sidecar(path)}"
        fresh = _parse(path)
        _assert_same_panel(first, fresh)
        _assert_same_panel(hit, fresh)
        assert hit.ids == sorted(c for c, obs in series.items() if obs)
        assert set(_ODD_IDS) < set(hit.ids)
        assert hit.series == first.series


def test_csv_edited_in_place_after_caching_is_parsed_again(tmp_path, caplog):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\nb,2020-01-02,0.5\n")
    load_returns_csv(path)
    size = path.stat().st_size
    path.write_text("company_id,date,return\na,2020-01-02,0.75\nb,2020-01-02,0.5\n")
    assert path.stat().st_size == size
    panel, line = _load_logging(path, caplog)
    assert line == (f"returns {path}: parsed (a cache of other contents) and "
                    f"cached to {_sidecar(path)}")
    assert panel.values.tolist() == [[0.75], [0.5]]
    assert _load_logging(path, caplog)[0].values.tolist() == [[0.75], [0.5]]


def test_cache_key_is_the_digest_of_the_bytes_parsed(tmp_path, monkeypatch, caplog):
    path = tmp_path / "r.csv"
    before = "company_id,date,return\na,2020-01-02,0.25\n"
    during = "company_id,date,return\na,2020-01-02,0.75\n"
    path.write_text(during)
    load_returns_csv(path)
    path.write_text(before)
    parse = similarity._parse_returns

    def edit_then_parse(raw, name):  # the file changes after it was hashed
        path.write_text(during)
        return parse(raw, name)

    monkeypatch.setattr(similarity, "_parse_returns", edit_then_parse)
    assert load_returns_csv(path).values.tolist() == [[0.75]]
    monkeypatch.undo()
    with np.load(_sidecar(path), allow_pickle=False) as cached:
        assert cached["sha256"].tobytes() == hashlib.sha256(during.encode()).digest()
    path.write_text(before)
    panel, line = _load_logging(path, caplog)
    assert line.startswith(f"returns {path}: parsed (a cache of other contents)")
    assert panel.values.tolist() == [[0.25]]


def _rewrite_cache(sidecar, **changes):
    """Write ``sidecar`` again with some arrays replaced (None drops one)."""
    with np.load(sidecar, allow_pickle=False) as cached:
        arrays = {name: cached[name] for name in cached.files}
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    np.savez(sidecar, **arrays)


def _packed(name, texts):
    """The two arrays that hold ``texts`` as cached ids or dates."""
    blob, lengths = similarity._pack_texts(texts)
    return {name: blob, f"{name[:-1]}_lengths": lengths}


def _npy_at(sidecar, array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    sidecar.write_bytes(buffer.getvalue())


def _set_first(array, value):
    array = array.copy()
    array.flat[0] = value
    return array


_CORRUPT_CACHES = {
    "truncated": lambda sidecar, panel: sidecar.write_bytes(
        sidecar.read_bytes()[: sidecar.stat().st_size // 2]),
    "empty": lambda sidecar, panel: sidecar.write_bytes(b""),
    "an npy file": lambda sidecar, panel: _npy_at(sidecar, panel.values),
    "wrong version": lambda sidecar, panel: _rewrite_cache(
        sidecar, version=np.int64(similarity.PANEL_CACHE_VERSION + 1)),
    "version of another type": lambda sidecar, panel: _rewrite_cache(
        sidecar, version=np.float64(similarity.PANEL_CACHE_VERSION)),
    "missing values": lambda sidecar, panel: _rewrite_cache(sidecar, values=None),
    "object array": lambda sidecar, panel: _rewrite_cache(
        sidecar, ids=np.array(panel.ids, dtype=object)),
    "unsorted ids": lambda sidecar, panel: _rewrite_cache(
        sidecar, **_packed("ids", panel.ids[::-1])),
    "repeated date": lambda sidecar, panel: _rewrite_cache(
        sidecar, **_packed("dates", [panel.dates[0]] + panel.dates[:-1])),
    "bad date": lambda sidecar, panel: _rewrite_cache(
        sidecar, **_packed("dates", panel.dates[:-1] + ["2020-02-30"])),
    "lengths beyond the text": lambda sidecar, panel: _rewrite_cache(
        sidecar, id_lengths=np.array([1, 100], dtype=np.int64)),
    "an empty id": lambda sidecar, panel: _rewrite_cache(
        sidecar, id_lengths=np.array([0, 2], dtype=np.int64)),
    "non-finite value": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=_set_first(panel.values, np.nan)),
    "value where the mask is unset": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=np.where(panel.mask, panel.values, 1.0)),
    "negative zero where the mask is unset": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=np.where(panel.mask, panel.values, -0.0)),
    "float32 values": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=panel.values.astype(np.float32)),
    "big-endian values": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=panel.values.astype(">f8")),
    "integer mask": lambda sidecar, panel: _rewrite_cache(
        sidecar, mask=panel.mask.astype(np.uint8)),
    "mask byte other than 0 or 1": lambda sidecar, panel: _rewrite_cache(
        sidecar, mask=(panel.mask.view(np.uint8) * 2).view(bool)),
    "transposed": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=panel.values.T.copy(), mask=panel.mask.T.copy()),
    "fortran order": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=np.asfortranarray(panel.values)),
    "no observation": lambda sidecar, panel: _rewrite_cache(
        sidecar, values=np.zeros_like(panel.values), mask=np.zeros_like(panel.mask)),
}


@pytest.mark.parametrize("corrupt", _CORRUPT_CACHES)
def test_corrupt_cache_is_ignored_and_replaced(tmp_path, caplog, corrupt):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\n"
                    "b,2020-01-02,-0.5\nb,2020-01-03,0.125\nb,2020-01-06,2.0\n")
    sidecar = _sidecar(path)
    panel = load_returns_csv(path)
    _CORRUPT_CACHES[corrupt](sidecar, panel)
    again, line = _load_logging(path, caplog)
    assert line.startswith(f"returns {path}: parsed (a")
    assert line.endswith(f") and cached to {sidecar}")
    _assert_same_panel(again, _parse(path))
    hit, line = _load_logging(path, caplog)
    assert line == f"returns {path}: cache hit, panel read from {sidecar}"
    _assert_same_panel(hit, again)


def _forged_cache(path):
    """Cache ``path``'s panel, then rewrite the cache to hold other values
    under the same digest, readable as a valid cache. Returns the panel."""
    panel = load_returns_csv(path)
    _rewrite_cache(_sidecar(path), values=panel.values * 2)
    _sidecar(path).chmod(0o644)
    forged = load_returns_csv(path)
    assert forged.values.tobytes() == (panel.values * 2).tobytes()
    return panel


def _needs_root(reason):
    if "owned by another user" in reason and os.geteuid() != 0:
        pytest.skip("only root can give a file to another user")


@pytest.mark.parametrize("untrust, reason", [
    (lambda sidecar: os.chown(sidecar, 4242, -1),
     "a cache owned by another user (uid 4242)"),
    (lambda sidecar: sidecar.chmod(0o664), "a cache that group or others can write"),
    (lambda sidecar: sidecar.chmod(0o646), "a cache that group or others can write"),
], ids=["another owner", "group-writable", "other-writable"])
def test_cache_another_user_could_write_is_ignored_and_replaced(tmp_path, caplog,
                                                                untrust, reason):
    _needs_root(reason)
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\n"
                    "b,2020-01-02,-0.5\nb,2020-01-03,0.125\n")
    sidecar = _sidecar(path)
    panel = _forged_cache(path)
    untrust(sidecar)
    again, line = _load_logging(path, caplog)
    assert line == f"returns {path}: parsed ({reason}) and cached to {sidecar}"
    _assert_same_panel(again, panel)
    assert sidecar.stat().st_uid == os.geteuid()
    assert not sidecar.stat().st_mode & 0o022
    hit, line = _load_logging(path, caplog)
    assert line == f"returns {path}: cache hit, panel read from {sidecar}"
    _assert_same_panel(hit, panel)


def test_cache_owned_by_the_returns_files_owner_is_read(tmp_path, caplog):
    _needs_root("owned by another user")
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\n")
    panel = load_returns_csv(path)
    os.chown(path, 4242, -1)
    os.chown(_sidecar(path), 4242, -1)
    hit, line = _load_logging(path, caplog)
    assert line == f"returns {path}: cache hit, panel read from {_sidecar(path)}"
    _assert_same_panel(hit, panel)


def test_cache_is_written_that_only_its_owner_can_write(tmp_path, caplog):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\n")
    umask = os.umask(0o002)
    try:
        load_returns_csv(path)
    finally:
        os.umask(umask)
    assert not _sidecar(path).stat().st_mode & 0o022
    _, line = _load_logging(path, caplog)
    assert line == f"returns {path}: cache hit, panel read from {_sidecar(path)}"


@pytest.mark.parametrize("body, message", _BAD_RETURNS)
def test_bad_input_still_fails_after_a_valid_version_was_cached(tmp_path, body,
                                                                message):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.1\n", encoding="utf-8")
    load_returns_csv(path)
    assert _sidecar(path).is_file()
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataValidationError, match=message):
        load_returns_csv(path)


def test_failed_cache_write_is_logged_and_the_load_goes_on(tmp_path, caplog):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\n")
    _sidecar(path).mkdir()
    panel, line = _load_logging(path, caplog)
    assert line == (f"returns {path}: parsed (no cache), not cached: "
                    f"{_sidecar(path)} exists and is not a regular file")
    assert panel.values.tolist() == [[0.25]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.panel.npz"]


_CONCURRENT_LOAD = """
import sys
from companysim.similarity import load_returns_csv
panel = load_returns_csv(sys.argv[1])
print(len(panel.ids), int(panel.mask.sum()))
"""


def _package_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(similarity.__file__).parent.parent),
                    os.environ.get("PYTHONPATH")) if p)}


def test_fifo_at_the_cache_path_does_not_stall_the_load(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("company_id,date,return\na,2020-01-02,0.25\n")
    os.mkfifo(_sidecar(path))
    # in a child process, so that a load blocked on the FIFO fails the test
    done = subprocess.run([sys.executable, "-c", _CONCURRENT_LOAD, str(path)],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0
    assert done.stdout == "1 1\n"
    assert stat.S_ISFIFO(os.stat(_sidecar(path)).st_mode)


def test_concurrent_loads_leave_one_valid_cache(tmp_path, caplog):
    rng = np.random.default_rng(9)
    series = _gappy_series(rng, 300, min_overlap=20, per_year=250)
    path = tmp_path / "r.csv"
    save_returns_csv(ReturnPanel(series), path)
    fresh = _parse(path)
    workers = [subprocess.Popen([sys.executable, "-c", _CONCURRENT_LOAD, str(path)],
                                env=_package_env(), stdout=subprocess.PIPE, text=True)
               for _ in range(4)]
    outputs = [w.communicate(timeout=120)[0] for w in workers]
    assert [w.returncode for w in workers] == [0] * 4
    assert set(outputs) == {f"{len(fresh.ids)} {int(fresh.mask.sum())}\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.panel.npz"]
    hit, line = _load_logging(path, caplog)
    assert line == f"returns {path}: cache hit, panel read from {_sidecar(path)}"
    _assert_same_panel(hit, fresh)

import numpy as np
import pytest

from companysim.attribution import (
    adjusted_r_squared,
    attribution_metric,
    cross_sectional_fit,
    monthly_cumulative_returns,
    save_attribution_csv,
    winsorize,
)
from companysim.cluster import ClusterAssignment
from companysim.errors import DataValidationError
from companysim.similarity import ReturnPanel


def _panel(series):
    return ReturnPanel({k: dict(v) for k, v in series.items()})


def _month_panel(months):
    """A month panel from month -> company -> compounded return."""
    series = {}
    for month, returns in months.items():
        for cid, value in returns.items():
            series.setdefault(cid, {})[month] = value
    return ReturnPanel(series)


def oracle_dummy_regression(y, labels):
    """Solve the cluster-dummy regression by explicit normal equations."""
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels)
    present = sorted(int(c) for c in np.unique(labels))
    ref = present[0]
    dummies = present[1:]
    X = np.ones((y.size, 1 + len(dummies)))
    for col, c in enumerate(dummies, start=1):
        X[:, col] = (labels == c).astype(np.float64)
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    sstot = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if sstot == 0 else 1.0 - float((resid ** 2).sum()) / sstot
    coefs = {ref: 0.0}
    coefs.update({c: float(b) for c, b in zip(dummies, beta[1:])})
    return float(beta[0]), coefs, r2


# ---------------------------------------------------------------------------
# Monthly compounding


def test_monthly_compounding_hand_oracle():
    days = [f"2020-01-{d:02d}" for d in range(1, 23)]
    series = {d: 0.01 for d in days}
    panel = _panel({"A": series})
    monthly = monthly_cumulative_returns(panel, min_obs=15)
    got = monthly.series["A"]["2020-01"]
    assert got == pytest.approx(1.01 ** 22 - 1, abs=1e-12)


def test_monthly_min_obs_drops_sparse_months():
    jan = {f"2020-01-{d:02d}": 0.01 for d in range(1, 20)}
    feb = {f"2020-02-{d:02d}": 0.01 for d in range(1, 5)}
    panel = _panel({"A": {**jan, **feb}})
    monthly = monthly_cumulative_returns(panel, min_obs=15)
    assert "2020-01" in monthly.dates
    assert "2020-02" not in monthly.dates


def test_monthly_panel_masks_sparse_company_months():
    jan = {f"2020-01-{d:02d}": 0.01 for d in range(1, 20)}
    feb = {f"2020-02-{d:02d}": 0.02 for d in range(1, 20)}
    mar = {f"2020-03-{d:02d}": 0.03 for d in range(1, 5)}
    panel = _panel({"A": {**jan, **mar}, "B": {**feb, **mar}, "C": mar})
    monthly = monthly_cumulative_returns(panel, min_obs=15)
    assert isinstance(monthly, ReturnPanel)
    assert monthly.ids == ["A", "B", "C"]
    assert monthly.dates == ["2020-01", "2020-02"]  # nobody fills March
    assert monthly.mask.tolist() == [[True, False], [False, True], [False, False]]
    assert monthly.values[1, 0] == monthly.values[0, 1] == 0.0
    assert not monthly.values[2].any()
    assert monthly.series["A"]["2020-01"] == pytest.approx(1.01 ** 19 - 1, abs=1e-12)


def test_monthly_mixed_signs():
    days = {"2020-03-%02d" % d: r for d, r in zip(range(1, 17), [0.02, -0.01] * 8)}
    panel = _panel({"A": days})
    monthly = monthly_cumulative_returns(panel, min_obs=15)
    expected = (1.02 * 0.99) ** 8 - 1
    assert monthly.series["A"]["2020-03"] == pytest.approx(expected, abs=1e-12)


def _loop_monthly(series, min_obs):
    """Sequential compounding per company-month, observed days in date
    order: the loop the vectorized product replaced."""
    out = {}
    for cid in sorted(series):
        grouped = {}
        for date in series[cid]:
            grouped.setdefault(date[:7], []).append(date)
        for month, dates in grouped.items():
            if len(dates) < min_obs:
                continue
            growth = 1.0
            for date in sorted(dates):
                growth *= 1.0 + series[cid][date]
            out.setdefault(month, {})[cid] = growth - 1.0
    return out


def test_monthly_compounding_bit_identical_to_loop():
    min_obs = 15
    for seed in range(6):
        rng = np.random.default_rng(seed)
        series = {}
        for i in range(12):
            obs = {}
            for month in range(1, 13):
                # around the threshold: min_obs - 1, min_obs, or a random count
                n = [min_obs - 1, min_obs, int(rng.integers(0, 23))][i % 3]
                days = sorted(rng.choice(np.arange(1, 29), size=min(n, 28),
                                         replace=False))
                for day in days:
                    obs[f"2021-{month:02d}-{day:02d}"] = float(
                        rng.normal(scale=0.03))
            if obs:
                series[f"c{i:02d}"] = obs
        expected = _loop_monthly(series, min_obs)
        monthly = monthly_cumulative_returns(_panel(series), min_obs=min_obs)
        assert monthly.dates == sorted(expected)
        assert monthly.ids == sorted(series)
        for m, month in enumerate(monthly.dates):
            got = {cid: value for cid, value, seen in zip(
                monthly.ids, monthly.values[:, m].tolist(), monthly.mask[:, m])
                if seen}
            assert got == expected[month]  # exact float equality
        assert not monthly.values[~monthly.mask].any()


def test_monthly_all_sparse_raises():
    panel = _panel({"A": {"2020-01-02": 0.01}})
    with pytest.raises(DataValidationError):
        monthly_cumulative_returns(panel, min_obs=15)


# ---------------------------------------------------------------------------
# Cross-sectional regression vs normal-equations oracle


def _cross_sections(rng):
    """(returns, labels) pairs: contiguous ids with every cluster present;
    unsorted, non-contiguous ids; one present cluster; every company in its
    own cluster; and winsorized returns."""
    for _ in range(8):
        n = int(rng.integers(12, 60))
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster present
        yield rng.normal(size=n), labels
    for _ in range(4):
        n = int(rng.integers(12, 60))
        ids = rng.choice(np.arange(3, 200, 7), size=int(rng.integers(2, 8)),
                         replace=False)
        yield rng.normal(size=n), rng.permutation(rng.choice(ids, size=n))
    yield rng.normal(size=9), np.full(9, 42)
    yield rng.normal(size=11), rng.permutation(np.arange(20, 31))
    labels = rng.integers(0, 4, size=40)
    yield winsorize(rng.standard_t(2, size=40), 0.1), labels


def test_fit_matches_normal_equations_on_random_cross_sections():
    rng = np.random.default_rng(31)
    for y, labels in _cross_sections(rng):
        fit = cross_sectional_fit(y, labels)
        o_int, o_coefs, o_r2 = oracle_dummy_regression(y, labels)
        assert fit.intercept == pytest.approx(o_int, abs=1e-9)
        assert fit.r_squared == pytest.approx(o_r2, abs=1e-9)
        assert set(fit.coefficients) == set(o_coefs)
        for c, b in o_coefs.items():
            assert fit.coefficients[c] == pytest.approx(b, abs=1e-9)


def test_fit_and_metric_need_no_least_squares_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    fit = cross_sectional_fit(np.array([0.1, 0.2, 0.3, 0.5]), np.array([4, 2, 4, 2]))
    assert fit.intercept == pytest.approx(0.35, abs=1e-15)
    assert fit.coefficients == {2: 0.0, 4: pytest.approx(-0.15, abs=1e-15)}
    ids = ["a", "b", "c", "d"]
    assignment = ClusterAssignment(ids, np.array([0, 0, 1, 1]), 2, "test")
    monthly = _month_panel({"2021-01": {"a": 0.01, "b": 0.02, "c": -0.02, "d": -0.01}})
    report = attribution_metric(monthly, assignment)
    assert report.n_months == 1
    assert report.per_month["2021-01"] == pytest.approx(0.9, abs=1e-12)


def test_fit_reference_is_smallest_present_cluster():
    fit = cross_sectional_fit(np.array([0.1, 0.2, 0.3]), np.array([4, 2, 4]))
    assert fit.reference_cluster == 2
    assert fit.coefficients[2] == 0.0


def test_fit_perfect_cluster_structure_r2_one():
    means = {0: -0.05, 1: 0.02, 2: 0.11}
    labels = np.array([i % 3 for i in range(30)])
    y = np.array([means[c] for c in labels])
    fit = cross_sectional_fit(y, labels)
    assert abs(fit.r_squared - 1.0) <= 1e-12
    assert not fit.degenerate
    assert fit.intercept == pytest.approx(means[0], abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(means[1] - means[0], abs=1e-12)
    assert fit.coefficients[2] == pytest.approx(means[2] - means[0], abs=1e-12)


def test_fit_constant_returns_degenerate():
    fit = cross_sectional_fit(np.full(4, 0.01), np.array([0, 0, 1, 1]))
    assert fit.degenerate
    assert fit.r_squared == 0.0


def test_fit_requires_two_companies():
    with pytest.raises(DataValidationError):
        cross_sectional_fit(np.array([0.1]), np.array([0]))


def test_fit_rejects_misaligned_inputs():
    with pytest.raises(ValueError):
        cross_sectional_fit(np.array([0.1, 0.2]), np.array([0]))


# ---------------------------------------------------------------------------
# Winsorization


def test_winsorize_clips_to_quantiles():
    values = np.arange(101, dtype=np.float64)
    clipped = winsorize(values, 0.05)
    lo, hi = np.quantile(values, [0.05, 0.95])
    assert clipped.min() == lo
    assert clipped.max() == hi
    assert clipped[50] == 50.0


def test_winsorize_rejects_bad_fraction():
    values = np.array([1.0, 2.0])
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(ValueError):
            winsorize(values, bad)


# ---------------------------------------------------------------------------
# Full metric


def test_attribution_metric_averages_months():
    rng = np.random.default_rng(33)
    ids = [f"c{i:02d}" for i in range(20)]
    labels = np.array([i % 4 for i in range(20)])
    assignment = ClusterAssignment(ids, labels, 4, "test")
    months = {}
    for m in ("2021-01", "2021-02"):
        months[m] = {i: float(rng.normal(0.01 * (idx % 4), 0.001))
                     for idx, i in enumerate(ids)}
    monthly = _month_panel(months)
    report = attribution_metric(monthly, assignment)
    assert report.n_months == 2
    expected = np.mean([report.per_month[m] for m in sorted(months)])
    assert report.avg_r_squared == pytest.approx(float(expected), abs=1e-12)
    assert 0.9 < report.avg_r_squared <= 1.0


def test_attribution_metric_skips_thin_months():
    ids = ["a", "b", "c"]
    assignment = ClusterAssignment(ids, np.array([0, 1, 1]), 2, "test")
    months = {
        "2021-01": {"a": 0.01, "b": 0.02, "c": 0.03},
        "2021-02": {"a": 0.01},
    }
    monthly = _month_panel(months)
    report = attribution_metric(monthly, assignment, min_companies=2)
    assert list(report.per_month) == ["2021-01"]


def test_attribution_metric_ignores_companies_outside_assignment():
    ids = ["a", "b", "c", "d"]
    assignment = ClusterAssignment(ids, np.array([0, 0, 1, 1]), 2, "test")
    months = {"2021-01": {"a": 0.01, "b": 0.012, "c": -0.02, "d": -0.018,
                          "zz": 9.9}}
    monthly = _month_panel(months)
    report = attribution_metric(monthly, assignment)
    assert report.fits[0].n_companies == 4


def test_attribution_metric_winsorized_tames_outlier():
    ids = [f"c{i:02d}" for i in range(40)]
    labels = np.array([i % 2 for i in range(40)])
    assignment = ClusterAssignment(ids, labels, 2, "test")
    rng = np.random.default_rng(34)
    noisy = {i: (0.01 if labels[idx] == 0 else -0.01)
             + float(rng.normal(0, 0.001)) for idx, i in enumerate(ids)}
    noisy["c00"] = 5.0
    monthly = _month_panel({"2021-01": noisy})
    raw = attribution_metric(monthly, assignment)
    tamed = attribution_metric(monthly, assignment, winsorize_fraction=0.05)
    assert tamed.avg_r_squared > raw.avg_r_squared


def test_attribution_metric_no_usable_months_raises():
    assignment = ClusterAssignment(["a"], np.array([0]), 1, "test")
    monthly = _month_panel({"2021-01": {"a": 0.01}})
    with pytest.raises(DataValidationError):
        attribution_metric(monthly, assignment, min_companies=2)


def test_attribution_metric_empty_panel_raises():
    assignment = ClusterAssignment(["a", "b"], np.array([0, 1]), 2, "test")
    with pytest.raises(DataValidationError):
        attribution_metric(ReturnPanel({}), assignment)


def _reference_attribution(months, returns, assignment,
                           winsorize_fraction=None, min_companies=2):
    """The per-month dict loop the dense attribution replaced, on month ->
    company -> value dicts: (per_month, degenerate, fits)."""
    membership = assignment.as_mapping()
    per_month: dict[str, float] = {}
    degenerate: list[str] = []
    fits = []
    for month in months:
        month_returns = returns[month]
        ids = sorted(c for c in month_returns if c in membership)
        if len(ids) < min_companies:
            continue
        values = np.array([month_returns[c] for c in ids], dtype=np.float64)
        if winsorize_fraction is not None:
            values = winsorize(values, winsorize_fraction)
        labels = np.array([membership[c] for c in ids], dtype=np.int64)
        fit = cross_sectional_fit(values, labels, month=month)
        per_month[month] = fit.r_squared
        if fit.degenerate:
            degenerate.append(month)
        fits.append(fit)
    return per_month, degenerate, fits


def _gappy_months(rng):
    """Month -> company -> return over 18 months with random gaps: some
    months hold 0-2 companies, a few companies never join the assignment."""
    companies = [f"c{i:02d}" for i in range(int(rng.integers(8, 30)))]
    months = {}
    for m in range(1, 19):
        month = f"{2020 + (m - 1) // 12}-{(m - 1) % 12 + 1:02d}"
        present = rng.random(len(companies)) < rng.choice([0.05, 0.5, 0.95])
        months[month] = {cid: float(rng.normal(scale=0.05))
                         for cid, here in zip(companies, present) if here}
    return companies, {m: r for m, r in months.items() if r}


@pytest.mark.parametrize("winsorize_fraction", [None, 0.1])
def test_attribution_metric_equals_the_dict_loop(winsorize_fraction):
    checked = thin = 0
    for seed in range(12):
        rng = np.random.default_rng(700 + seed)
        companies, months = _gappy_months(rng)
        # drop a few panel companies from the assignment, add absent ids
        members = [c for c in companies if rng.random() < 0.85]
        members += [f"zz{i}" for i in range(3)]
        k = int(rng.integers(2, 5))
        assignment = ClusterAssignment(
            members, rng.integers(0, k, size=len(members)), k, "test")
        min_companies = int(rng.choice([2, 4]))
        per_month, degenerate, fits = _reference_attribution(
            sorted(months), months, assignment, winsorize_fraction, min_companies)
        if not fits:
            continue
        report = attribution_metric(_month_panel(months), assignment,
                                    winsorize_fraction, min_companies)
        assert report.fits == fits  # exact float equality
        assert report.per_month == per_month
        assert report.degenerate_months == degenerate
        checked += 1
        thin += len(months) - len(fits)
    assert checked >= 10 and thin > 0


# ---------------------------------------------------------------------------
# Adjusted R^2 and the CSV table


def test_adjusted_r_squared_matches_dof_formula():
    rng = np.random.default_rng(55)
    y = rng.normal(size=20)
    labels = np.array([i % 3 for i in range(20)])
    fit = cross_sectional_fit(y, labels)
    n, p = 20, 2
    expected = 1.0 - (1.0 - fit.r_squared) * (n - 1) / (n - 1 - p)
    assert adjusted_r_squared(fit) == pytest.approx(expected, abs=1e-12)


def test_adjusted_r_squared_zero_without_residual_dof():
    # 3 companies, 3 clusters: saturated fit, no residual degrees of freedom
    fit = cross_sectional_fit(np.array([0.1, 0.2, 0.3]), np.array([0, 1, 2]))
    assert adjusted_r_squared(fit) == 0.0


def test_save_attribution_csv_layout(tmp_path):
    ids = [f"c{i:02d}" for i in range(12)]
    labels = np.array([i % 3 for i in range(12)])
    assignment = ClusterAssignment(ids, labels, 3, "test")
    rng = np.random.default_rng(8)
    months = {
        m: dict(zip(ids, rng.normal(0.0, 0.02, size=12)))
        for m in ("2021-01", "2021-02")
    }
    monthly = _month_panel(months)
    report = attribution_metric(monthly, assignment)
    out = tmp_path / "attr.csv"
    save_attribution_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "month,r2,adj_r2,n_obs,n_clusters_present"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2021-01"
    assert float(first[1]) == pytest.approx(report.fits[0].r_squared, abs=1e-8)
    assert float(first[2]) == pytest.approx(
        adjusted_r_squared(report.fits[0]), abs=1e-8
    )
    assert first[3] == "12" and first[4] == "3"
    summary = lines[-1].split(",")
    assert summary[0] == "average"
    assert float(summary[1]) == pytest.approx(report.avg_r_squared, abs=1e-8)
    assert summary[3] == "24"

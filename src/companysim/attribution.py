"""Return attribution: how much of the monthly cross-section of company
returns a cluster assignment explains.

Daily simple returns are compounded into calendar-month returns, then each
month is regressed on cluster-membership dummies:

    R_j = A + sum_i B_i * C_{j,i} + eps_j

with the smallest present cluster index held out as the reference (its
coefficient is 0 by convention). With an intercept and a dummy for every
other present cluster, the least-squares fit is each cluster's mean, so the
fit is read off the cluster means: no design matrix is built and nothing is
solved. The attribution score is the average cross-sectional R^2 over months.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cluster import ClusterAssignment
from .errors import DataValidationError
from .outputs import write_rows
from .similarity import ReturnPanel

logger = logging.getLogger(__name__)

DEFAULT_MIN_MONTH_OBS = 15


def monthly_cumulative_returns(
    panel: ReturnPanel, min_obs: int = DEFAULT_MIN_MONTH_OBS
) -> ReturnPanel:
    """Compound daily returns within each calendar month: prod(1+r) - 1.

    The result is a panel over "YYYY-MM" months. Company-months with fewer
    than ``min_obs`` daily observations are masked out (value 0.0) so
    partially traded months do not masquerade as full ones, and months no
    company fills are dropped. The product runs left to right over the
    panel's sorted dates; a missing day holds 0.0, so its factor is exactly
    1.0 and the result is bit-identical to multiplying the observed days in
    date order.
    """
    if min_obs < 1:
        raise ValueError(f"min_obs must be >= 1, got {min_obs}")
    month_of = [date[:7] for date in panel.dates]
    starts = [j for j, month in enumerate(month_of)
              if j == 0 or month != month_of[j - 1]]
    growth = np.multiply.reduceat(1.0 + panel.values, starts, axis=1)
    kept = np.add.reduceat(panel.mask, starts, axis=1, dtype=np.int64) >= min_obs
    filled = np.flatnonzero(kept.any(axis=0))
    if not filled.size:
        raise DataValidationError(
            f"no company-month reached {min_obs} daily observations"
        )
    kept = kept[:, filled]
    values = np.where(kept, growth[:, filled] - 1.0, 0.0)
    months = [month_of[starts[m]] for m in filled]
    return ReturnPanel.from_arrays(panel.ids, months, values, kept)


def winsorize(values: np.ndarray, fraction: float) -> np.ndarray:
    """Clip a cross-section at its own [fraction, 1-fraction] quantiles."""
    if not 0.0 < fraction < 0.5:
        raise ValueError(f"fraction must be in (0, 0.5), got {fraction}")
    lo, hi = np.quantile(values, [fraction, 1.0 - fraction])
    return np.clip(values, lo, hi)


@dataclass
class AttributionFit:
    """One month's cross-sectional regression."""

    month: str
    intercept: float
    coefficients: dict[int, float]
    reference_cluster: int
    r_squared: float
    n_companies: int
    degenerate: bool = False


def cross_sectional_fit(
    returns: np.ndarray,
    labels: np.ndarray,
    month: str = "",
) -> AttributionFit:
    """OLS of one month's returns on cluster dummies, read off the cluster
    means.

    The fitted value of each company is its cluster's mean. The intercept is
    the mean of the reference cluster (the smallest present index) and each
    coefficient is its cluster's mean minus the intercept, so the reference
    cluster's coefficient is exactly 0. A zero-variance cross-section fits
    trivially and is flagged with r_squared = 0.
    """
    returns = np.asarray(returns, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if returns.ndim != 1 or returns.shape != labels.shape:
        raise ValueError("returns and labels must be aligned 1-d arrays")
    if returns.size < 2:
        raise DataValidationError("need at least 2 companies in a cross-section")
    present, cluster_of = np.unique(labels, return_inverse=True)
    means = np.bincount(cluster_of, weights=returns) / np.bincount(cluster_of)
    residual = returns - means[cluster_of]
    ss_res = float(residual @ residual)
    centered = returns - returns.mean()
    ss_tot = float(centered @ centered)
    degenerate = ss_tot == 0.0
    r_squared = 0.0 if degenerate else 1.0 - ss_res / ss_tot
    intercept = means[0]
    coefficients = {int(c): float(m - intercept) for c, m in zip(present, means)}
    return AttributionFit(
        month=month,
        intercept=float(intercept),
        coefficients=coefficients,
        reference_cluster=int(present[0]),
        r_squared=r_squared,
        n_companies=int(returns.size),
        degenerate=degenerate,
    )


def adjusted_r_squared(fit: AttributionFit) -> float:
    """R^2 corrected for the number of dummies; 0 when a month has no
    residual degrees of freedom."""
    n_dummies = len(fit.coefficients) - 1
    dof = fit.n_companies - 1 - n_dummies
    if dof <= 0:
        return 0.0
    return 1.0 - (1.0 - fit.r_squared) * (fit.n_companies - 1) / dof


@dataclass
class AttributionReport:
    avg_r_squared: float
    per_month: dict[str, float]
    n_months: int
    n_clusters: int
    method: str
    degenerate_months: list[str] = field(default_factory=list)
    fits: list[AttributionFit] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "avg_r_squared": self.avg_r_squared,
            "per_month": dict(sorted(self.per_month.items())),
            "n_months": self.n_months,
            "n_clusters": self.n_clusters,
            "method": self.method,
            "degenerate_months": self.degenerate_months,
        }


def attribution_metric(
    monthly: ReturnPanel,
    assignment: ClusterAssignment,
    winsorize_fraction: float | None = None,
    min_companies: int = 2,
) -> AttributionReport:
    """Average cross-sectional R^2 of cluster dummies across months.

    ``monthly`` is a month panel (see ``monthly_cumulative_returns``). Each
    month uses the companies observed that month that are also in the
    assignment; months with fewer than ``min_companies`` such companies are
    skipped.
    """
    membership = assignment.as_mapping()
    rows = [i for i, company_id in enumerate(monthly.ids) if company_id in membership]
    labels = np.array([membership[monthly.ids[i]] for i in rows], dtype=np.int64)
    values, mask = monthly.values[rows], monthly.mask[rows]
    per_month: dict[str, float] = {}
    degenerate: list[str] = []
    fits: list[AttributionFit] = []
    for m, month in enumerate(monthly.dates):
        seen = mask[:, m]
        if np.count_nonzero(seen) < min_companies:
            continue
        month_values = values[seen, m]
        if winsorize_fraction is not None:
            month_values = winsorize(month_values, winsorize_fraction)
        fit = cross_sectional_fit(month_values, labels[seen], month=month)
        per_month[month] = fit.r_squared
        if fit.degenerate:
            degenerate.append(month)
        fits.append(fit)
    if not per_month:
        raise DataValidationError(
            "no month had enough companies with both returns and clusters"
        )
    avg = float(np.mean([per_month[m] for m in sorted(per_month)]))
    logger.info(
        "attribution over %d months, %d clusters: avg R^2 = %.4f",
        len(per_month), assignment.n_clusters, avg,
    )
    return AttributionReport(
        avg_r_squared=avg,
        per_month=per_month,
        n_months=len(per_month),
        n_clusters=assignment.n_clusters,
        method=assignment.method,
        degenerate_months=degenerate,
        fits=fits,
    )


def save_attribution_csv(report: AttributionReport, path: str | Path) -> None:
    """Per-month table plus an 'average' summary row."""
    adjusted = [adjusted_r_squared(fit) for fit in report.fits]
    rows = [
        [fit.month, f"{fit.r_squared:.8f}", f"{adj:.8f}",
         fit.n_companies, len(fit.coefficients)]
        for fit, adj in zip(report.fits, adjusted)
    ]
    avg_adj = float(np.mean(adjusted)) if adjusted else 0.0
    rows.append(["average", f"{report.avg_r_squared:.8f}", f"{avg_adj:.8f}",
                 sum(fit.n_companies for fit in report.fits), report.n_clusters])
    write_rows(path, ["month", "r2", "adj_r2", "n_obs", "n_clusters_present"], rows)

"""Return attribution: how much of the monthly cross-section of company
returns a cluster assignment explains.

Daily simple returns are compounded into calendar-month returns, then each
month is regressed on cluster-membership dummies:

    R_j = A + sum_i B_i * C_{j,i} + eps_j

with the smallest present cluster index held out as the reference (its
coefficient is 0 by convention). The attribution score is the average
cross-sectional R^2 over months.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterAssignment
from .errors import DataValidationError
from .similarity import ReturnPanel

logger = logging.getLogger(__name__)

DEFAULT_MIN_MONTH_OBS = 15


@dataclass
class MonthlyReturnPanel:
    """Compounded month returns keyed month ("YYYY-MM") -> company -> value."""

    months: list[str]
    returns: dict[str, dict[str, float]]


def monthly_cumulative_returns(
    panel: ReturnPanel, min_obs: int = DEFAULT_MIN_MONTH_OBS
) -> MonthlyReturnPanel:
    """Compound daily returns within each calendar month: prod(1+r) - 1.

    Company-months with fewer than ``min_obs`` daily observations are
    dropped so partially traded months do not masquerade as full ones.
    The product runs left to right over the panel's sorted dates; a
    missing day holds 0.0, so its factor is exactly 1.0 and the result is
    bit-identical to multiplying the observed days in date order.
    """
    if min_obs < 1:
        raise ValueError(f"min_obs must be >= 1, got {min_obs}")
    month_of = [date[:7] for date in panel.dates]
    starts = [j for j, month in enumerate(month_of)
              if j == 0 or month != month_of[j - 1]]
    by_month: dict[str, dict[str, float]] = {}
    if starts:
        growth = np.multiply.reduceat(1.0 + panel.values, starts, axis=1)
        counts = np.add.reduceat(panel.mask, starts, axis=1, dtype=np.int64)
        kept = counts >= min_obs
        for m, start in enumerate(starts):
            rows = np.flatnonzero(kept[:, m])
            if rows.size:
                by_month[month_of[start]] = dict(zip(
                    [panel.ids[i] for i in rows], (growth[rows, m] - 1.0).tolist()
                ))
    months = sorted(by_month)
    if not months:
        raise DataValidationError(
            f"no company-month reached {min_obs} daily observations"
        )
    return MonthlyReturnPanel(months=months, returns=by_month)


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
    """OLS of one month's returns on cluster dummies.

    The design is an intercept plus a dummy per present cluster except the
    smallest index, solved by least squares; coefficients for that
    reference cluster report as 0. A zero-variance cross-section fits
    trivially and is flagged with r_squared = 0.
    """
    returns = np.asarray(returns, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if returns.ndim != 1 or returns.shape != labels.shape:
        raise ValueError("returns and labels must be aligned 1-d arrays")
    if returns.size < 2:
        raise DataValidationError("need at least 2 companies in a cross-section")
    present = sorted(int(c) for c in np.unique(labels))
    reference = present[0]
    dummy_clusters = present[1:]
    design = np.ones((returns.size, 1 + len(dummy_clusters)), dtype=np.float64)
    for col, cluster in enumerate(dummy_clusters, start=1):
        design[:, col] = (labels == cluster).astype(np.float64)
    solution, _, _, _ = np.linalg.lstsq(design, returns, rcond=None)
    fitted = design @ solution
    residual = returns - fitted
    ss_res = float(residual @ residual)
    centered = returns - returns.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r_squared = 0.0
        degenerate = True
    else:
        r_squared = 1.0 - ss_res / ss_tot
        degenerate = False
    coefficients = {reference: 0.0}
    for col, cluster in enumerate(dummy_clusters, start=1):
        coefficients[cluster] = float(solution[col])
    return AttributionFit(
        month=month,
        intercept=float(solution[0]),
        coefficients=coefficients,
        reference_cluster=reference,
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
    monthly: MonthlyReturnPanel,
    assignment: ClusterAssignment,
    winsorize_fraction: float | None = None,
    min_companies: int = 2,
) -> AttributionReport:
    """Average cross-sectional R^2 of cluster dummies across months.

    Each month uses the companies present in both the month's returns and
    the assignment; months with fewer than ``min_companies`` such companies
    are skipped.
    """
    membership = assignment.as_mapping()
    per_month: dict[str, float] = {}
    degenerate: list[str] = []
    fits: list[AttributionFit] = []
    for month in monthly.months:
        month_returns = monthly.returns[month]
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["month", "r2", "adj_r2", "n_obs", "n_clusters_present"])
        total_obs = 0
        adjusted = []
        for fit in report.fits:
            adj = adjusted_r_squared(fit)
            adjusted.append(adj)
            total_obs += fit.n_companies
            writer.writerow([
                fit.month,
                f"{fit.r_squared:.8f}",
                f"{adj:.8f}",
                fit.n_companies,
                len(fit.coefficients),
            ])
        avg_adj = float(np.mean(adjusted)) if adjusted else 0.0
        writer.writerow([
            "average",
            f"{report.avg_r_squared:.8f}",
            f"{avg_adj:.8f}",
            total_obs,
            report.n_clusters,
        ])

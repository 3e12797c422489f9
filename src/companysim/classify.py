"""Multinomial logistic regression on document embeddings, plus the
classification metrics used to score it.

The trainer is deterministic: features are standardized with train-set
statistics, parameters start at zero, and optimization is full-batch
gradient descent with a backtracking (Armijo) line search, so the recorded
objective history is non-increasing by construction.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataValidationError
from .outputs import write_json

logger = logging.getLogger(__name__)

MODEL_FORMAT = "companysim-logistic"
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# Parameterization: weights (d, k) and bias (k,) packed into one flat vector
# so the objective/gradient pair can be checked by finite differences.


def pack_params(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return np.concatenate([weights.ravel(), bias])


def unpack_params(params: np.ndarray, n_features: int, n_classes: int):
    split = n_features * n_classes
    weights = params[:split].reshape(n_features, n_classes)
    bias = params[split:]
    return weights, bias


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _log_probs(params: np.ndarray, X: np.ndarray, n_classes: int) -> np.ndarray:
    weights, bias = unpack_params(params, X.shape[1], n_classes)
    return _log_softmax(X @ weights + bias)


def _objective_from(
    log_probs: np.ndarray,
    params: np.ndarray,
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    l2_penalty: float,
) -> float:
    weights, _ = unpack_params(params, X.shape[1], n_classes)
    nll = -float(np.mean(log_probs[np.arange(X.shape[0]), y_index]))
    return nll + 0.5 * l2_penalty * float(np.sum(weights * weights))


def _gradient_from(
    log_probs: np.ndarray,
    params: np.ndarray,
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    l2_penalty: float,
) -> np.ndarray:
    weights, _ = unpack_params(params, X.shape[1], n_classes)
    probs = np.exp(log_probs)
    probs[np.arange(X.shape[0]), y_index] -= 1.0
    probs /= X.shape[0]
    grad_weights = X.T @ probs + l2_penalty * weights
    grad_bias = probs.sum(axis=0)
    return pack_params(grad_weights, grad_bias)


def objective(
    params: np.ndarray,
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    l2_penalty: float,
) -> float:
    """Mean cross-entropy plus (l2/2)*||weights||^2; bias is not penalized."""
    return _objective_from(
        _log_probs(params, X, n_classes), params, X, y_index, n_classes,
        l2_penalty,
    )


def gradient(
    params: np.ndarray,
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    l2_penalty: float,
) -> np.ndarray:
    return _gradient_from(
        _log_probs(params, X, n_classes), params, X, y_index, n_classes,
        l2_penalty,
    )


# ---------------------------------------------------------------------------
# Model


@dataclass
class LogisticModel:
    """Fitted classifier with the standardization baked in, so callers
    always pass raw (unstandardized) features."""

    classes: list[str]
    weights: np.ndarray
    bias: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray
    l2_penalty: float
    n_iter: int
    converged: bool
    final_objective: float
    objective_history: list[float] = field(default_factory=list)

    def standardize(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X - self.feature_mean) / self.feature_std


def fit_classifier(
    X: np.ndarray,
    labels: Sequence[str],
    l2_penalty: float = 1.0,
    max_iter: int = 5000,
    tol: float = 1e-6,
) -> LogisticModel:
    """Train on raw features; at least two classes are required."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[0] != len(labels):
        raise ValueError(f"{X.shape[0]} rows but {len(labels)} labels")
    if l2_penalty < 0:
        raise ConfigError(f"l2_penalty must be >= 0, got {l2_penalty}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DataValidationError(f"need >= 2 classes, got {classes}")
    class_index = {c: i for i, c in enumerate(classes)}
    y_index = np.array([class_index[label] for label in labels], dtype=np.int64)

    feature_mean = X.mean(axis=0)
    feature_std = X.std(axis=0)
    feature_std = np.where(feature_std == 0.0, 1.0, feature_std)
    Xs = (X - feature_mean) / feature_std

    n_features, n_classes = X.shape[1], len(classes)
    params = np.zeros(n_features * n_classes + n_classes, dtype=np.float64)

    # The log-softmax at the accepted point serves both the objective and
    # the next gradient: the accepted candidate is the next iterate.
    terms = (Xs, y_index, n_classes, l2_penalty)
    history: list[float] = []
    converged = False
    step = 1.0
    log_probs = _log_probs(params, Xs, n_classes)
    value = _objective_from(log_probs, params, *terms)
    history.append(value)
    for n_iter in range(1, max_iter + 1):
        grad = _gradient_from(log_probs, params, *terms)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= tol:
            converged = True
            n_iter -= 1
            break
        # Backtracking line search with the Armijo sufficient-decrease test.
        descent = float(grad @ grad)
        step = min(step * 2.0, 1e4)
        while True:
            candidate = params - step * grad
            candidate_log_probs = _log_probs(candidate, Xs, n_classes)
            new_value = _objective_from(candidate_log_probs, candidate, *terms)
            if new_value <= value - 1e-4 * step * descent:
                break
            step *= 0.5
            if step < 1e-14:
                break
        if step < 1e-14:
            logger.warning("line search stalled at iteration %d", n_iter)
            n_iter -= 1
            break
        params, log_probs, value = candidate, candidate_log_probs, new_value
        history.append(value)
    if not converged:
        final_grad = float(np.max(np.abs(
            _gradient_from(log_probs, params, *terms))))
        converged = final_grad <= tol

    weights, bias = unpack_params(params, n_features, n_classes)
    logger.info(
        "fit %d-class classifier on %d examples: %d iters, objective %.6f, %s",
        n_classes, X.shape[0], n_iter, value,
        "converged" if converged else "max_iter",
    )
    return LogisticModel(
        classes=classes,
        weights=weights,
        bias=bias,
        feature_mean=feature_mean,
        feature_std=feature_std,
        l2_penalty=l2_penalty,
        n_iter=n_iter,
        converged=converged,
        final_objective=value,
        objective_history=history,
    )


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per input; rows sum to 1."""
    Xs = model.standardize(np.atleast_2d(X))
    return np.exp(_log_softmax(Xs @ model.weights + model.bias))


def predict(model: LogisticModel, X: np.ndarray) -> list[str]:
    probs = predict_proba(model, X)
    return [model.classes[i] for i in np.argmax(probs, axis=1)]


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class ClassificationReport:
    classes: list[str]
    accuracy: float
    micro_f1: float
    weighted_f1: float
    per_class: dict[str, dict[str, float]]
    confusion: np.ndarray
    n_examples: int

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "accuracy": self.accuracy,
            "micro_f1": self.micro_f1,
            "weighted_f1": self.weighted_f1,
            "per_class": self.per_class,
            "confusion": self.confusion.tolist(),
            "n_examples": self.n_examples,
        }


def confusion_matrix(
    y_true: Sequence[str], y_pred: Sequence[str], classes: Sequence[str]
) -> np.ndarray:
    """Rows are true classes, columns predicted."""
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        out[index[t], index[p]] += 1
    return out


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision == recall:
        f1 = precision
    elif precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def score_predictions(
    y_true: Sequence[str], y_pred: Sequence[str]
) -> ClassificationReport:
    if len(y_true) != len(y_pred):
        raise ValueError(f"{len(y_true)} true labels but {len(y_pred)} predictions")
    if not y_true:
        raise ValueError("cannot score an empty prediction set")
    classes = sorted(set(y_true) | set(y_pred))
    confusion = confusion_matrix(y_true, y_pred, classes)
    n = len(y_true)

    per_class: dict[str, dict[str, float]] = {}
    tp_total = fp_total = fn_total = 0
    weighted_f1 = 0.0
    for i, label in enumerate(classes):
        tp = int(confusion[i, i])
        fp = int(confusion[:, i].sum() - tp)
        fn = int(confusion[i, :].sum() - tp)
        support = int(confusion[i, :].sum())
        precision, recall, f1 = _prf(tp, fp, fn)
        per_class[label] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": support,
        }
        tp_total += tp
        fp_total += fp
        fn_total += fn
        weighted_f1 += f1 * support

    accuracy = float(np.trace(confusion)) / n
    # In single-label multiclass scoring every false positive is some other
    # class's false negative, so micro precision == micro recall == accuracy;
    # computing it as tp/(tp+fp) keeps that an exact identity.
    micro_p, micro_r, micro_f1 = _prf(tp_total, fp_total, fn_total)
    return ClassificationReport(
        classes=classes,
        accuracy=accuracy,
        micro_f1=micro_f1,
        weighted_f1=weighted_f1 / n,
        per_class=per_class,
        confusion=confusion,
        n_examples=n,
    )


def evaluate(
    model: LogisticModel, X: np.ndarray, labels: Sequence[str]
) -> ClassificationReport:
    return score_predictions(list(labels), predict(model, X))


def soft_class_distribution(
    model: LogisticModel, X: np.ndarray, ids: Sequence[str]
) -> list[dict]:
    """Per-company probability mass over classes, for graded exposure views."""
    if len(ids) != np.atleast_2d(X).shape[0]:
        raise ValueError("ids and rows must align")
    probs = predict_proba(model, X)
    out = []
    for i, company_id in enumerate(ids):
        out.append({
            "company_id": company_id,
            "distribution": {c: float(probs[i, j]) for j, c in enumerate(model.classes)},
        })
    return out


# ---------------------------------------------------------------------------
# Persistence (JSON keeps float64 exactly via repr round-trip)


def model_to_dict(model: LogisticModel) -> dict:
    """What ``save_model`` writes, as a JSON-ready dict."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "classes": model.classes,
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        "l2_penalty": model.l2_penalty,
        "n_iter": model.n_iter,
        "converged": model.converged,
        "final_objective": model.final_objective,
    }


def save_model(model: LogisticModel, path: str | Path) -> None:
    write_json(path, model_to_dict(model), indent=None)


def load_model(path: str | Path) -> LogisticModel:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != MODEL_FORMAT:
        raise DataValidationError(f"not a classifier model file: {path}")
    if payload.get("version") != MODEL_VERSION:
        raise DataValidationError(
            f"unsupported model version {payload.get('version')}"
        )
    return LogisticModel(
        classes=list(payload["classes"]),
        weights=np.array(payload["weights"], dtype=np.float64),
        bias=np.array(payload["bias"], dtype=np.float64),
        feature_mean=np.array(payload["feature_mean"], dtype=np.float64),
        feature_std=np.array(payload["feature_std"], dtype=np.float64),
        l2_penalty=float(payload["l2_penalty"]),
        n_iter=int(payload["n_iter"]),
        converged=bool(payload["converged"]),
        final_objective=float(payload["final_objective"]),
    )


def format_report(report: ClassificationReport) -> str:
    """Fixed-width text summary, stable across runs."""
    lines = [
        f"examples : {report.n_examples}",
        f"accuracy : {report.accuracy:.6f}",
        f"micro F1 : {report.micro_f1:.6f}",
        f"weighted F1 : {report.weighted_f1:.6f}",
        "",
        f"{'class':<28} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}",
    ]
    for label in report.classes:
        row = report.per_class[label]
        lines.append(
            f"{label:<28} {row['precision']:>9.4f} {row['recall']:>9.4f} "
            f"{row['f1']:>9.4f} {row['support']:>8d}"
        )
    return "\n".join(lines) + "\n"

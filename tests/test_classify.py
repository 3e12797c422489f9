import logging

import numpy as np
import pytest

from companysim.classify import (
    evaluate,
    fit_classifier,
    gradient,
    load_model,
    objective,
    predict,
    predict_proba,
    save_model,
    score_predictions,
    unpack_params,
)
from companysim.errors import ConfigError, DataValidationError


def _finite_difference(params, X, y, n_classes, l2, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += eps
        down = params.copy()
        down[i] -= eps
        grad[i] = (
            objective(up, X, y, n_classes, l2)
            - objective(down, X, y, n_classes, l2)
        ) / (2 * eps)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(5, 20))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        l2 = float(rng.uniform(0, 2))
        params = rng.normal(scale=0.5, size=d * k + k)
        analytic = gradient(params, X, y, k, l2)
        numeric = _finite_difference(params, X, y, k, l2)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


# The fit loop that ``fit_classifier`` replaced, kept verbatim: it calls
# ``objective`` at each candidate and ``gradient`` again at the accepted one.
def _reference_fit(X, labels, l2_penalty, max_iter, tol):
    classes = sorted(set(labels))
    class_index = {c: i for i, c in enumerate(classes)}
    y_index = np.array([class_index[label] for label in labels], dtype=np.int64)

    feature_mean = X.mean(axis=0)
    feature_std = X.std(axis=0)
    feature_std = np.where(feature_std == 0.0, 1.0, feature_std)
    Xs = (X - feature_mean) / feature_std

    n_features, n_classes = X.shape[1], len(classes)
    params = np.zeros(n_features * n_classes + n_classes, dtype=np.float64)

    history: list[float] = []
    converged = False
    step = 1.0
    value = objective(params, Xs, y_index, n_classes, l2_penalty)
    history.append(value)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        grad = gradient(params, Xs, y_index, n_classes, l2_penalty)
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
            new_value = objective(candidate, Xs, y_index, n_classes, l2_penalty)
            if new_value <= value - 1e-4 * step * descent:
                break
            step *= 0.5
            if step < 1e-14:
                break
        if step < 1e-14:
            n_iter -= 1
            break
        params = params - step * grad
        value = new_value
        history.append(value)
    else:
        n_iter = max_iter
    if not converged:
        final_grad = float(np.max(np.abs(
            gradient(params, Xs, y_index, n_classes, l2_penalty))))
        converged = final_grad <= tol
    weights, bias = unpack_params(params, n_features, n_classes)
    return weights, bias, n_iter, converged, value, history


@pytest.mark.parametrize("l2, max_iter, tol, path", [
    (0.1, 5000, 1e-6, "converged"),
    (0.01, 8, 1e-9, "max_iter"),
    (0.0, 5000, 1e-4, "converged"),
    (3e14, 500, 0.0, "stalled"),
])
def test_fit_equals_reference_loop(caplog, l2, max_iter, tol, path):
    rng = np.random.default_rng(31)
    for _ in range(3):
        n, d = int(rng.integers(20, 60)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 5.0, size=d)
        # unbalanced classes, so the bias gradient is not zero at the start
        labels = [str(min(i % 5, 2)) for i in range(n)]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="companysim.classify"):
            model = fit_classifier(X, labels, l2_penalty=l2,
                                   max_iter=max_iter, tol=tol)
        weights, bias, n_iter, converged, value, history = _reference_fit(
            X, labels, l2, max_iter, tol)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.bias, bias)
        assert (model.n_iter, model.converged, model.final_objective) == (
            n_iter, converged, value)
        assert model.objective_history == history
        stalled = "line search stalled" in caplog.text
        assert stalled == (path == "stalled")
        assert converged == (path == "converged")
        if path == "max_iter":
            assert n_iter == max_iter
        if path == "stalled":
            assert 0 < n_iter < max_iter


def test_objective_decreases_monotonically():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    labels = ["neg", "pos"]
    model = fit_classifier(X, [labels[i] for i in y], l2_penalty=0.1, max_iter=200)
    hist = np.array(model.objective_history)
    assert np.all(np.diff(hist) <= 0)
    assert model.n_iter >= 1


def test_separable_data_is_learned():
    rng = np.random.default_rng(2)
    centers = np.array([[3, 0], [-3, 0], [0, 3]])
    X = np.vstack([c + 0.3 * rng.normal(size=(30, 2)) for c in centers])
    y = [f"class{i}" for i in range(3) for _ in range(30)]
    model = fit_classifier(X, y, l2_penalty=0.01)
    assert predict(model, X) == y


def test_predict_proba_rows_sum_to_one():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    model = fit_classifier(X, [str(i) for i in y], max_iter=50)
    probs = predict_proba(model, rng.normal(size=(25, 3)) * 50)
    assert probs.shape == (25, 3)
    assert np.all(probs >= 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


def test_standardization_makes_fit_scale_invariant():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 4))
    y = [str(i) for i in rng.integers(0, 2, size=50)]
    scaled = X * np.array([3.0, 0.5, 10.0, 1.0]) + np.array([5, -2, 0, 100])
    a = fit_classifier(X, y, l2_penalty=0.1, max_iter=100)
    b = fit_classifier(scaled, y, l2_penalty=0.1, max_iter=100)
    pa = predict_proba(a, X)
    pb = predict_proba(b, scaled)
    assert np.allclose(pa, pb, atol=1e-9)


def test_constant_feature_does_not_break_fit():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    X[:, 1] = 7.0
    y = [str(i) for i in rng.integers(0, 2, size=30)]
    model = fit_classifier(X, y, max_iter=50)
    assert np.isfinite(model.final_objective)


def test_requires_two_classes():
    with pytest.raises(DataValidationError):
        fit_classifier(np.zeros((5, 2)), ["same"] * 5)


@pytest.mark.parametrize("max_iter", [0, -2])
def test_rejects_max_iter_below_one(max_iter):
    X = np.random.default_rng(27).normal(size=(10, 2))
    y = ["a", "b"] * 5
    with pytest.raises(ConfigError, match=f"max_iter must be >= 1, got {max_iter}"):
        fit_classifier(X, y, max_iter=max_iter)
    assert fit_classifier(X, y, max_iter=1, tol=0.0).n_iter == 1


def test_micro_f1_equals_accuracy_for_single_label():
    rng = np.random.default_rng(31)
    classes = list("abcde")
    for _ in range(200):
        n = int(rng.integers(1, 50))
        y_true = [classes[i] for i in rng.integers(0, 5, size=n)]
        y_pred = [classes[i] for i in rng.integers(0, 5, size=n)]
        report = score_predictions(y_true, y_pred)
        assert report.micro_f1 == report.accuracy


def test_metrics_match_hand_computed_table():
    # Confusion (rows true, cols predicted) for classes a, b, c:
    #   a: [2, 1, 0]
    #   b: [0, 3, 1]
    #   c: [1, 0, 2]
    y_true = list("aaabbbbccc")
    y_pred = list("aabbbbcacc")
    report = score_predictions(y_true, y_pred)
    assert report.confusion.tolist() == [[2, 1, 0], [0, 3, 1], [1, 0, 2]]
    assert report.accuracy == 7 / 10
    pa, ra = 2 / 3, 2 / 3
    pb, rb = 3 / 4, 3 / 4
    pc, rc = 2 / 3, 2 / 3
    fa = 2 * pa * ra / (pa + ra)
    fb = 2 * pb * rb / (pb + rb)
    fc = 2 * pc * rc / (pc + rc)
    assert np.isclose(report.per_class["a"]["precision"], pa)
    assert np.isclose(report.per_class["a"]["recall"], ra)
    assert np.isclose(report.per_class["a"]["f1"], fa)
    assert report.per_class["b"]["support"] == 4
    expected_weighted = (3 * fa + 4 * fb + 3 * fc) / 10
    assert np.isclose(report.weighted_f1, expected_weighted)


def test_zero_denominator_conventions():
    # class c never predicted and never true-positive: precision = recall = 0
    report = score_predictions(["a", "a", "c"], ["a", "a", "a"])
    assert report.per_class["c"]["precision"] == 0.0
    assert report.per_class["c"]["recall"] == 0.0
    assert report.per_class["c"]["f1"] == 0.0


def test_model_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 5))
    y = [str(i) for i in rng.integers(0, 3, size=40)]
    model = fit_classifier(X, y, l2_penalty=0.5, max_iter=60)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.classes == model.classes
    assert np.array_equal(again.weights, model.weights)
    assert np.array_equal(again.bias, model.bias)
    assert np.array_equal(again.feature_mean, model.feature_mean)
    assert np.array_equal(again.feature_std, model.feature_std)
    Xq = rng.normal(size=(10, 5))
    assert np.array_equal(predict_proba(model, Xq), predict_proba(again, Xq))


def test_evaluate_on_split(small_corpus):
    rng = np.random.default_rng(3)
    labels = small_corpus.gics_labels("sector")
    ids = small_corpus.ids()
    X = rng.normal(size=(len(ids), 6))
    sectors = sorted(set(labels.values()))
    for i, cid in enumerate(ids):
        X[i, sectors.index(labels[cid])] += 4.0
    model = fit_classifier(X, [labels[c] for c in ids], l2_penalty=0.01)
    report = evaluate(model, X, [labels[c] for c in ids])
    assert report.accuracy > 0.95
    assert report.n_examples == len(ids)

"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single PASS line straight to the terminal when it
succeeds; a failed criterion shows up as an ordinary pytest failure. The
numeric checks compare the library against oracles coded here from scratch
with explicit loops, not against the library's own helpers.
"""

import json
import math
import time

import numpy as np
import pytest

from companysim.attribution import (
    attribution_metric,
    monthly_cumulative_returns,
)
from companysim.cache import load_cache, save_cache
from companysim.classify import (
    fit_classifier,
    gradient,
    load_model,
    objective,
    predict,
    predict_proba,
    save_model,
    score_predictions,
)
from companysim.cli import main as cli_main
from companysim.cluster import (
    ClusterAssignment,
    cluster_quality,
    fit_clusters,
    kmeans,
    random_cluster_assignment,
)
from companysim.corpus import generate_finetune_pairs, stratified_split
from companysim.embeddings import EmbeddingMatrix, corpus_documents, embed_corpus
from companysim.errors import (
    RemoteProtocolError,
    RemoteTransportError,
    SectionNotFoundError,
    SectionTooShortError,
)
from companysim.filings import extract_item1
from companysim.providers import TfidfProvider, remote_embed
from companysim.similarity import (
    ReturnPanel,
    avg_peer_correlation,
    gics_baseline_correlation,
)
from companysim.synth import (
    make_synthetic_corpus,
    make_synthetic_returns,
    synthetic_hierarchy,
)
from companysim.textprep import (
    ChunkingConfig,
    chunk,
    clean_text,
    tokenize,
    truncate,
)

from test_remote import Stub, vector_for


def _pass(capsys, number, label):
    with capsys.disabled():
        print(f"\nacceptance [{number:2d}/10] PASS  {label}")


def _tfidf_matrix(corpus, budget=512):
    chunking = ChunkingConfig(window=512, context_budget=budget,
                              tokens_per_word=1.0)
    tokens = [
        truncate(tokenize(clean_text(corpus.get(i).description)),
                 chunking.effective_budget())
        for i in corpus.ids()
    ]
    provider = TfidfProvider.fit(tokens)
    return embed_corpus(corpus_documents(corpus, chunking), provider, chunking)


# ---------------------------------------------------------------------------
# 1. Peer correlation agrees with a brute-force oracle.


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


def _oracle_rho_bar(matrix, panel, k, years, min_overlap):
    ids = sorted(i for i in matrix.ids if i in panel.series)
    vectors = {i: matrix.row(i).astype(np.float64) for i in ids}
    peer_sets = {}
    for cid in ids:
        sims = sorted(
            (-_oracle_cosine(vectors[cid], vectors[other]), other)
            for other in ids if other != cid
        )
        peer_sets[cid] = [other for _, other in sims[:k]]
    per_year = {}
    for year in years:
        prefix = f"{year:04d}-"
        scores = []
        for cid in ids:
            mine = {d: v for d, v in panel.series[cid].items()
                    if d.startswith(prefix)}
            rhos = []
            for peer in peer_sets[cid]:
                theirs = {d: v for d, v in panel.series[peer].items()
                          if d.startswith(prefix)}
                common = sorted(set(mine) & set(theirs))
                if len(common) < max(2, min_overlap):
                    continue
                rho = _oracle_pearson([mine[d] for d in common],
                                      [theirs[d] for d in common])
                if rho is not None:
                    rhos.append(rho)
            if rhos:
                scores.append(sum(rhos) / len(rhos))
        if scores:
            per_year[year] = sum(scores) / len(scores)
    values = [per_year[y] for y in sorted(per_year)]
    return sum(values) / len(values), per_year


def test_acceptance_01_peer_correlation_matches_bruteforce(capsys):
    start = time.monotonic()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        k = int(rng.integers(1, 6))
        ids = [f"c{i:02d}" for i in range(n)]
        matrix = EmbeddingMatrix(
            ids=ids,
            matrix=rng.normal(size=(n, 6)).astype(np.float32),
            provider_id="t", context_budget=512,
        )
        dates = [f"2021-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(80)]
        series = {}
        for idx, cid in enumerate(ids):
            if idx == 0:
                # 0.25 is exact in binary, so the variance is exactly zero
                series[cid] = {d: 0.25 for d in dates}
            elif idx == 1:
                series[cid] = {d: float(rng.normal()) for d in dates[:5]}
            else:
                series[cid] = {d: float(rng.normal()) for d in dates
                               if rng.random() < 0.85}
        panel = ReturnPanel(series)
        report = avg_peer_correlation(matrix, panel, k=k, years=[2021],
                                      min_overlap=10)
        oracle_rho, oracle_years = _oracle_rho_bar(matrix, panel, k, [2021], 10)
        assert abs(report.rho_bar - oracle_rho) <= 1e-12, f"seed {seed}"
        for year, value in oracle_years.items():
            assert abs(report.per_year[year] - value) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _pass(capsys, 1, "top-k peer correlation matches a brute-force oracle "
                     "to 1e-12 across 10 random universes")


# ---------------------------------------------------------------------------
# 2. Attribution regression agrees with explicit normal equations.


def _month_panel(months):
    """A month panel from month -> company -> compounded return."""
    series = {}
    for month, returns in months.items():
        for cid, value in returns.items():
            series.setdefault(cid, {})[month] = value
    return ReturnPanel(series)


def _oracle_dummy_regression(y, labels):
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels)
    present = sorted(int(c) for c in np.unique(labels))
    ref, dummies = present[0], present[1:]
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


def test_acceptance_02_attribution_matches_normal_equations(capsys):
    ids = [f"c{i:02d}" for i in range(30)]
    for panel_seed in range(10):
        rng = np.random.default_rng(1000 + panel_seed)
        labels = rng.integers(0, 3, size=30)
        labels[:3] = np.arange(3)
        assignment = ClusterAssignment(ids, labels, 3, "t")
        months = {
            f"2021-{m:02d}": dict(zip(ids, rng.normal(scale=0.05, size=30)))
            for m in range(1, 7)
        }
        monthly = _month_panel(months)
        report = attribution_metric(monthly, assignment)
        assert report.n_months == 6
        for fit in report.fits:
            y = np.array([months[fit.month][cid] for cid in ids])
            o_int, o_coefs, o_r2 = _oracle_dummy_regression(y, labels)
            assert abs(fit.intercept - o_int) <= 1e-9
            assert abs(fit.r_squared - o_r2) <= 1e-9
            for c, b in o_coefs.items():
                assert abs(fit.coefficients[c] - b) <= 1e-9

    # returns exactly constant within clusters -> R^2 is exactly 1
    labels = np.array([i % 3 for i in range(30)])
    assignment = ClusterAssignment(ids, labels, 3, "t")
    months = {
        m: {cid: 0.01 * (labels[i] + 1) + shift
            for i, cid in enumerate(ids)}
        for m, shift in (("2021-01", 0.0), ("2021-02", 0.003), ("2021-03", -0.02))
    }
    monthly = _month_panel(months)
    report = attribution_metric(monthly, assignment)
    assert abs(report.avg_r_squared - 1.0) <= 1e-12
    for fit in report.fits:
        assert abs(fit.r_squared - 1.0) <= 1e-12
    _pass(capsys, 2, "per-month cluster-dummy fits on ten 30-company panels "
                     "match normal equations to 1e-9; constant-within-cluster "
                     "panels score R^2 = 1")


# ---------------------------------------------------------------------------
# 3. Classifier gradient and descent direction.


def test_acceptance_03_gradient_and_descent(capsys):
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 8))
        kc = int(rng.integers(2, 5))
        lam = float(rng.choice([0.0, 0.1, 1.0]))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, kc, size=n)
        y[:kc] = np.arange(kc)
        params = 0.5 * rng.normal(size=(d + 1) * kc)
        analytic = gradient(params, X, y, kc, lam)
        numeric = np.empty_like(analytic)
        eps = 1e-5
        for j in range(params.size):
            up = params.copy()
            dn = params.copy()
            up[j] += eps
            dn[j] -= eps
            numeric[j] = (objective(up, X, y, kc, lam)
                          - objective(dn, X, y, kc, lam)) / (2 * eps)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert np.max(rel) <= 1e-5, f"trial {trial}"

    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(60, 5))
        y = [f"k{v}" for v in rng.integers(0, 3, size=60)]
        model = fit_classifier(X, y, l2_penalty=0.5, max_iter=200)
        hist = np.array(model.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)
    _pass(capsys, 3, "analytic gradient matches central differences to 1e-5 "
                     "at 20 random settings; training objective never rises")


# ---------------------------------------------------------------------------
# 4. Exact metric identities.


def test_acceptance_04_metric_identities(capsys):
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        classes = [f"c{v}" for v in range(int(rng.integers(1, 7)))]
        y_true = [classes[i] for i in rng.integers(0, len(classes), size=n)]
        y_pred = [classes[i] for i in rng.integers(0, len(classes), size=n)]
        report = score_predictions(y_true, y_pred)
        assert report.micro_f1 == report.accuracy

    X = rng.normal(size=(1000, 6))
    y = [f"k{v}" for v in rng.integers(0, 4, size=40)]
    model = fit_classifier(rng.normal(size=(40, 6)), y, max_iter=100)
    probs = predict_proba(model, X)
    assert probs.shape == (1000, 4)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9

    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        truth = rng.integers(0, 5, size=n).tolist()
        pred = rng.integers(0, 5, size=n).tolist()
        q = cluster_quality(truth, pred)
        if q.homogeneity + q.completeness > 0:
            expected = (2 * q.homogeneity * q.completeness
                        / (q.homogeneity + q.completeness))
            assert q.v_measure == expected
        else:
            assert q.v_measure == 0.0
        checked += 1
    assert checked == 100
    _pass(capsys, 4, "micro-F1 equals accuracy on 1000 random prediction "
                     "sets; probability rows sum to 1 within 1e-9; v-measure "
                     "is exactly the harmonic mean")


# ---------------------------------------------------------------------------
# 5. Synthetic sectors are recoverable end to end.


def test_acceptance_05_sector_recovery(capsys):
    start = time.monotonic()
    for seed in range(3):
        corpus = make_synthetic_corpus(300, seed=seed)
        matrix = _tfidf_matrix(corpus, budget=512)
        sectors = corpus.gics_labels("sector")
        split = stratified_split(corpus, sectors, 0.2, seed=seed)
        train = matrix.subset(split.train_ids)
        test = matrix.subset(split.test_ids)
        model = fit_classifier(
            train.matrix, [sectors[i] for i in split.train_ids]
        )
        predictions = predict(model, test.matrix)
        truth = [sectors[i] for i in split.test_ids]
        accuracy = float(np.mean([p == t for p, t in zip(predictions, truth)]))
        assert accuracy >= 0.90, f"seed {seed}: accuracy {accuracy:.3f}"

        labels = fit_clusters(
            matrix.matrix.astype(np.float64), "spectral", [6],
            seed=seed, n_init=8, n_neighbors=30,
        )[6][0]
        quality = cluster_quality(
            [sectors[i] for i in matrix.ids], labels.tolist()
        )
        assert quality.homogeneity >= 0.9, f"seed {seed}: {quality}"
        assert quality.completeness >= 0.9, f"seed {seed}: {quality}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _pass(capsys, 5, "held-out sector accuracy >= 0.90 and 6-way spectral "
                     "clusters reach homogeneity/completeness >= 0.9 on 300 "
                     "synthetic companies, 3 seeds")


# ---------------------------------------------------------------------------
# 6. Embedding peers and clusters beat their baselines.


def test_acceptance_06_margins_over_baselines(capsys):
    for seed in range(5):
        corpus = make_synthetic_corpus(120, seed=seed)
        panel = make_synthetic_returns(corpus, [2021], seed=seed)
        matrix = _tfidf_matrix(corpus)
        embedding = avg_peer_correlation(matrix, panel, k=1)
        sectors = corpus.gics_labels("sector")
        baseline = gics_baseline_correlation(sectors, panel)
        margin = embedding.rho_bar - baseline.rho_bar
        assert margin >= 0.02, f"seed {seed}: peer margin {margin:.4f}"

        monthly = monthly_cumulative_returns(panel)
        clustered = kmeans(matrix.matrix.astype(np.float64), 12,
                           seed=seed, n_init=4)
        assignment = ClusterAssignment(matrix.ids, clustered.labels, 12, "kmeans")
        scored = attribution_metric(monthly, assignment)
        random_assignment = random_cluster_assignment(matrix.ids, 12, seed=seed)
        random_scored = attribution_metric(monthly, random_assignment)
        cluster_margin = scored.avg_r_squared - random_scored.avg_r_squared
        assert cluster_margin >= 0.02, (
            f"seed {seed}: attribution margin {cluster_margin:.4f}"
        )
    _pass(capsys, 6, "top-1 embedding peers beat sector-membership peers and "
                     "k-means clusters beat random clusters by >= 0.02, 5 seeds")


# ---------------------------------------------------------------------------
# 7. Pair generation emits exactly two pairs per company.


def test_acceptance_07_pair_count(capsys):
    corpus = make_synthetic_corpus(2590, seed=1)
    pairs = generate_finetune_pairs(corpus, seed=1)
    assert len(pairs) == 5180
    assert sum(1 for p in pairs if p.label == 1) == 2590
    assert sum(1 for p in pairs if p.label == 0) == 2590
    _pass(capsys, 7, "a 2590-company corpus yields exactly 5180 balanced "
                     "finetuning pairs")


# ---------------------------------------------------------------------------
# 8. Filing section extraction on the frozen fixture corpus.


def test_acceptance_08_filing_fixtures(capsys, filings_manifest):
    manifest, texts = filings_manifest
    assert len(manifest) >= 10
    outcomes = {entry["outcome"] for entry in manifest.values()}
    assert {"span", "not_found", "too_short"} <= outcomes
    assert "toc" in manifest  # heading appears in a table of contents first
    for name, entry in sorted(manifest.items()):
        raw = texts[name]
        if entry["outcome"] == "span":
            assert extract_item1(raw) == entry["expected"], name
        elif entry["outcome"] == "not_found":
            with pytest.raises(SectionNotFoundError):
                extract_item1(raw)
        else:
            with pytest.raises(SectionTooShortError):
                extract_item1(raw)
    _pass(capsys, 8, f"{len(manifest)} filing fixtures extract the exact "
                     "expected spans, including TOC and missing-section cases")


# ---------------------------------------------------------------------------
# 9. Determinism and losslessness.


def test_acceptance_09_determinism(capsys, tmp_path):
    from companysim import synth
    ws = tmp_path / "ws"
    synth.main(["--out-dir", str(ws), "--companies", "36", "--seed", "13",
                "--years", "2021"])
    reports = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        cache = d / "emb.bin"
        assert cli_main(["embed", "--corpus", str(ws / "corpus.jsonl"),
                         "--hierarchy", str(ws / "hierarchy.csv"),
                         "--out", str(cache)]) == 0
        assert cli_main(["classify", "--cache", str(cache),
                         "--corpus", str(ws / "corpus.jsonl"),
                         "--hierarchy", str(ws / "hierarchy.csv"),
                         "--model-out", str(d / "model.json"),
                         "--report-out", str(d / "cls.json")]) == 0
        assert cli_main(["peers", "--cache", str(cache),
                         "--returns", str(ws / "returns.csv"),
                         "--out", str(d / "peers.json")]) == 0
        reports.append((cache.read_bytes(),
                        (d / "cls.json").read_bytes(),
                        (d / "model.json").read_bytes(),
                        (d / "peers.json").read_bytes()))
    assert reports[0] == reports[1]

    # cache round trip is bit-exact
    loaded = load_cache(tmp_path / "a" / "emb.bin")
    reloaded_path = tmp_path / "copy.bin"
    save_cache(loaded, reloaded_path)
    assert (tmp_path / "a" / "emb.bin").read_bytes() == reloaded_path.read_bytes()

    # model round trip reproduces parameters exactly
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = [f"k{v}" for v in rng.integers(0, 3, size=30)]
    model = fit_classifier(X, y, max_iter=80)
    save_model(model, tmp_path / "m.json")
    restored = load_model(tmp_path / "m.json")
    assert np.array_equal(model.weights, restored.weights)
    assert np.array_equal(model.bias, restored.bias)
    assert predict(model, X) == predict(restored, X)

    # chunking partitions the truncated token stream: 1000 random cases
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n_tokens = int(rng.integers(0, 400))
        tokens = [f"w{v}" for v in rng.integers(0, 50, size=n_tokens)]
        window = int(rng.integers(1, 80))
        budget = int(rng.choice([512, 1024, 1536]))
        tpw = float(rng.choice([1.0, 1.3, 2.0]))
        cfg = ChunkingConfig(window=window, context_budget=budget,
                             tokens_per_word=tpw)
        seq = truncate(tokens, cfg.effective_budget())
        chunks = chunk(seq, cfg.effective_window())
        rebuilt = [t for c in chunks for t in c]
        assert rebuilt == seq
        assert all(1 <= len(c) <= cfg.effective_window() for c in chunks)
    _pass(capsys, 9, "reruns are byte-identical, cache and model round trips "
                     "are lossless, chunking partitions 1000 random streams")


# ---------------------------------------------------------------------------
# 10. Remote provider protocol behavior against a live stub server.


def test_acceptance_10_remote_protocol(capsys):
    stub = Stub()
    try:
        texts = ["solar modules", "core banking", "grid operations", "ai chips"]
        vectors = remote_embed(stub.url, "m", texts)
        for text, vec in zip(texts, vectors):
            assert vec.tolist() == vector_for(text)

        stub.script(("raw", json.dumps(
            {"dimension": 3, "embeddings": [vector_for("x")]}).encode()))
        with pytest.raises(RemoteProtocolError) as exc:
            remote_embed(stub.url, "m", ["a", "b"])
        assert exc.value.reason == "count_mismatch"

        stub.server.log.clear()
        stub.script(("status", 500), ("ok",))
        vectors = remote_embed(stub.url, "m", ["retry me"],
                               retries=2, backoff=0.01)
        assert vectors[0].tolist() == vector_for("retry me")
        assert len(stub.server.log) == 2

        stub.script(("sleep", 2.0), ("sleep", 2.0))
        with pytest.raises(RemoteTransportError):
            remote_embed(stub.url, "m", ["a"], timeout=0.2, retries=1,
                         backoff=0.01)
    finally:
        stub.close()
    _pass(capsys, 10, "remote protocol preserves order, rejects count "
                      "mismatches, retries transient failures, and surfaces "
                      "timeouts")

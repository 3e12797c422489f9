import csv
import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from companysim import cache as cache_module
from companysim import cli as cli_module
from companysim import providers, synth, textprep
from companysim.cache import load_cache, save_cache
from companysim.classify import load_model
from companysim.cli import _build_provider, _provider_identity, main
from companysim.cluster import (
    agglomerative,
    fit_clusters,
    kmeans,
    load_assignment,
    random_cluster_assignment,
    reduce_dims,
    spectral_embedding,
)
from companysim.config import config_from_dict
from companysim.corpus import load_corpus
from companysim.embeddings import EmbeddingMatrix, corpus_documents
from companysim.errors import ComputationError
from companysim.similarity import top_k_peers
from companysim.textprep import ChunkingConfig
from test_remote import Stub


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus + hierarchy + one year of returns, built once."""
    root = tmp_path_factory.mktemp("ws")
    rc = synth.main([
        "--out-dir", str(root), "--companies", "48",
        "--seed", "7", "--years", "2021",
    ])
    assert rc == 0
    return root


def run(*argv):
    return main([str(a) for a in argv])


def test_embed_classify_peers_pipeline(workspace, tmp_path, capsys):
    cache = tmp_path / "emb.bin"
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", cache) == 0
    assert cache.exists() and cache.with_suffix(".bin.ids").exists()

    model = tmp_path / "model.json"
    report = tmp_path / "classify.json"
    assert run("classify", "--cache", cache,
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--model-out", model, "--report-out", report) == 0
    data = json.loads(report.read_text())
    assert set(data) >= {"config_hash", "level", "report"}
    assert 0.0 <= data["report"]["accuracy"] <= 1.0
    assert data["n_train"] + data["n_test"] == 48

    peers = tmp_path / "peers.json"
    assert run("peers", "--cache", cache,
               "--returns", workspace / "returns.csv",
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", peers) == 0
    pdata = json.loads(peers.read_text())
    assert -1.0 <= pdata["embedding"]["rho_bar"] <= 1.0
    assert pdata["baseline"] is not None
    assert pdata["margin"] == pytest.approx(
        pdata["embedding"]["rho_bar"] - pdata["baseline"]["rho_bar"])

    out = capsys.readouterr().out
    assert "embedded 48 companies" in out
    assert "rho_bar" in out


def test_cluster_attribute_report_pipeline(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cluster": {"method": "kmeans", "n_clusters": 6}}))
    assignment = tmp_path / "clusters.csv"
    quality = tmp_path / "quality.json"
    assert run("--config", cfg, "cluster", "--cache", cache,
               "--out", assignment, "--quality-out", quality,
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv") == 0
    with open(assignment) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["company_id", "cluster"]
    assert len(rows) == 49
    qdata = json.loads(quality.read_text())
    assert 0.0 <= qdata["quality"]["v_measure"] <= 1.0

    attribution = tmp_path / "attr.json"
    assert run("attribute", "--assignment", assignment,
               "--returns", workspace / "returns.csv",
               "--out", attribution, "--random-baseline") == 0
    adata = json.loads(attribution.read_text())
    assert adata["attribution"]["n_months"] == 12
    assert adata["random_baseline"] is not None

    summary = tmp_path / "summary.txt"
    assert run("report", "--attribution", attribution, "--out", summary) == 0
    text = summary.read_text()
    assert "[return attribution]" in text
    assert "avg R^2" in text


def test_pairs_project_outliers(workspace, tmp_path):
    pairs = tmp_path / "pairs.csv"
    assert run("pairs", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", pairs) == 0
    with open(pairs) as f:
        rows = list(csv.reader(f))
    assert len(rows) - 1 == 2 * 48

    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)

    proj = tmp_path / "coords.csv"
    assert run("project", "--cache", cache, "--out", proj,
               "--method", "pca", "--components", "2") == 0
    with open(proj) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["company_id", "x0", "x1"]
    assert len(rows) == 49

    outliers = tmp_path / "outliers.csv"
    assert run("outliers", "--cache", cache,
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", outliers) == 0
    with open(outliers) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["company_id", "sector", "score"]
    scores = [float(r[2]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True)


def test_reruns_are_byte_identical(workspace, tmp_path):
    outputs = []
    for tag in ("a", "b"):
        cache = tmp_path / f"emb_{tag}.bin"
        report = tmp_path / f"cls_{tag}.json"
        model = tmp_path / f"model_{tag}.json"
        peers = tmp_path / f"peers_{tag}.json"
        run("embed", "--corpus", workspace / "corpus.jsonl",
            "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
        run("classify", "--cache", cache,
            "--corpus", workspace / "corpus.jsonl",
            "--hierarchy", workspace / "hierarchy.csv",
            "--model-out", model, "--report-out", report)
        run("peers", "--cache", cache, "--returns", workspace / "returns.csv",
            "--out", peers)
        outputs.append((cache.read_bytes(), report.read_bytes(),
                        model.read_bytes(), peers.read_bytes()))
    assert outputs[0] == outputs[1]


def test_embed_resume_reuses_cache(workspace, tmp_path, capsys):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    first = cache.read_bytes()
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", cache, "--resume") == 0
    assert cache.read_bytes() == first

    export = tmp_path / "emb.jsonl"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv",
        "--out", tmp_path / "emb2.bin", "--export-jsonl", export)
    lines = export.read_text().splitlines()
    assert len(lines) == 48
    row = json.loads(lines[0])
    assert set(row) >= {"company_id", "vector"}


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every companysim module that
    binds it; returns the list that grows by one per call."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, m in list(sys.modules.items()):
        if key.split(".")[0] == "companysim" and getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counting)
    return calls


@pytest.mark.parametrize("provider", ["tfidf", "tfidf-rp"])
def test_tfidf_embed_tokenizes_each_document_once(workspace, tmp_path,
                                                  monkeypatch, provider):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embedding": {"provider": provider, "dimension": 16}}))
    tokenized = _count_calls(monkeypatch, textprep, "tokenize")
    assert run("--config", cfg, "embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "emb.bin") == 0
    assert len(tokenized) == 48


def test_resume_loads_the_cache_once_and_prepares_only_missing(
    workspace, tmp_path, monkeypatch
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embedding": {"provider": "hash-bow", "dimension": 16}}))
    lines = (workspace / "corpus.jsonl").read_text().splitlines(keepends=True)
    first = tmp_path / "first.jsonl"
    first.write_text("".join(lines[:30]))
    args = ("--hierarchy", workspace / "hierarchy.csv", "--out")
    fresh = tmp_path / "fresh.bin"
    assert run("--config", cfg, "embed", "--corpus", workspace / "corpus.jsonl",
               *args, fresh) == 0
    resumed = tmp_path / "resumed.bin"
    assert run("--config", cfg, "embed", "--corpus", first, *args, resumed) == 0

    loads = _count_calls(monkeypatch, cache_module, "load_cache")
    prepared = _count_calls(monkeypatch, textprep, "prepare_chunks")
    assert run("--config", cfg, "embed", "--corpus", workspace / "corpus.jsonl",
               *args, resumed, "--resume") == 0
    assert len(loads) == 1
    assert len(prepared) == 18
    # hash-bow rows depend on their own document only
    assert resumed.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "resumed.bin.ids").read_bytes() == (
        tmp_path / "fresh.bin.ids").read_bytes()


def _write_config(path, **embedding):
    path.write_text(json.dumps({"embedding": embedding}))
    return path


def _first_lines(workspace, tmp_path, n):
    lines = (workspace / "corpus.jsonl").read_text().splitlines(keepends=True)
    first = tmp_path / f"first{n}.jsonl"
    first.write_text("".join(lines[:n]))
    return first


@pytest.mark.parametrize("config", [
    {"provider": "tfidf", "context_budget": 1024},
    {"provider": "tfidf", "context_budget": 512},
    {"provider": "hash-bow", "dimension": 16, "context_budget": 1024},
])
def test_resume_refuses_a_complete_cache_of_another_provider_or_budget(
    workspace, tmp_path, caplog, config
):
    cache = tmp_path / "emb.bin"
    hash_bow = _write_config(tmp_path / "hb.json", provider="hash-bow", dimension=16)
    args = ("--corpus", workspace / "corpus.jsonl",
            "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    assert run("--config", hash_bow, "embed", *args) == 0
    before = cache.read_bytes(), (tmp_path / "emb.bin.ids").read_bytes()
    other = _write_config(tmp_path / "other.json", **config)
    assert run("--config", other, "embed", *args, "--resume") == 2
    provider, budget = config["provider"], config["context_budget"]
    expected = (f"cache provider 'hash-bow' != {provider!r}" if provider != "hash-bow"
                else f"cache context budget 512 != {budget}")
    assert expected in caplog.text
    assert (cache.read_bytes(), (tmp_path / "emb.bin.ids").read_bytes()) == before


@pytest.mark.parametrize("provider", ["tfidf", "hash-bow"])
def test_resume_refuses_a_mismatch_before_preparing_anything(
    workspace, tmp_path, monkeypatch, caplog, provider
):
    cache = tmp_path / "emb.bin"
    first = _first_lines(workspace, tmp_path, 24)
    assert run("--config", _write_config(tmp_path / "a.json", provider="hash-bow",
                                         dimension=16, context_budget=1024),
               "embed", "--corpus", first, "--hierarchy", workspace / "hierarchy.csv",
               "--out", cache) == 0
    prepared = _count_calls(monkeypatch, textprep, "prepare_chunks")
    fitted = _count_calls(monkeypatch, providers, "tfidf_fit")
    other = {"provider": provider, "dimension": 16}
    assert run("--config", _write_config(tmp_path / "b.json", **other),
               "embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", cache, "--resume") == 2
    assert (prepared, fitted) == ([], [])
    assert ("cache provider 'hash-bow' != 'tfidf'" if provider == "tfidf"
            else "cache context budget 1024 != 512") in caplog.text


def test_remote_resume_refuses_a_mismatch_before_any_request(workspace, tmp_path, caplog):
    cache = tmp_path / "emb.bin"
    first = _first_lines(workspace, tmp_path, 24)
    stub = Stub()
    try:
        def config(name, model):
            return _write_config(tmp_path / name, provider="remote", endpoint=stub.url,
                                 remote_provider_id=model, dimension=3)

        assert run("--config", config("a.json", "model-a"), "embed", "--corpus", first,
                   "--hierarchy", workspace / "hierarchy.csv", "--out", cache) == 0
        sent = len(stub.log)
        assert sent > 0
        assert run("--config", config("b.json", "model-b"), "embed",
                   "--corpus", workspace / "corpus.jsonl",
                   "--hierarchy", workspace / "hierarchy.csv",
                   "--out", cache, "--resume") == 2
        assert len(stub.log) == sent
        assert "cache provider 'model-a' != 'model-b'" in caplog.text
    finally:
        stub.close()


@pytest.mark.parametrize("provider", ["tfidf", "tfidf-rp"])
def test_fitted_resume_writes_what_a_fresh_run_writes(workspace, tmp_path, provider):
    cfg = _write_config(tmp_path / "cfg.json", provider=provider, dimension=16)
    hierarchy = ("--hierarchy", workspace / "hierarchy.csv")
    fresh, resumed = tmp_path / "fresh.bin", tmp_path / "resumed.bin"
    assert run("--config", cfg, "embed", "--corpus", workspace / "corpus.jsonl",
               *hierarchy, "--out", fresh) == 0
    assert run("--config", cfg, "embed", "--corpus", _first_lines(workspace, tmp_path, 24),
               *hierarchy, "--out", resumed) == 0
    assert resumed.read_bytes() != fresh.read_bytes()
    assert run("--config", cfg, "embed", "--corpus", workspace / "corpus.jsonl",
               *hierarchy, "--out", resumed, "--resume") == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "resumed.bin.ids").read_bytes() == (
        tmp_path / "fresh.bin.ids").read_bytes()


def test_fitted_resume_drops_cached_ids_outside_the_corpus(workspace, tmp_path):
    hierarchy = ("--hierarchy", workspace / "hierarchy.csv")
    lines = (workspace / "corpus.jsonl").read_text().splitlines(keepends=True)
    head, tail = tmp_path / "head.jsonl", tmp_path / "tail.jsonl"
    head.write_text("".join(lines[:30]))
    tail.write_text("".join(lines[20:]))
    fresh, resumed = tmp_path / "fresh.bin", tmp_path / "resumed.bin"
    assert run("embed", "--corpus", tail, *hierarchy, "--out", fresh) == 0
    assert run("embed", "--corpus", head, *hierarchy, "--out", resumed) == 0
    assert run("embed", "--corpus", tail, *hierarchy, "--out", resumed, "--resume") == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "resumed.bin.ids").read_bytes() == (
        tmp_path / "fresh.bin.ids").read_bytes()


def test_complete_fitted_resume_neither_tokenizes_nor_fits(workspace, tmp_path, monkeypatch):
    cache = tmp_path / "emb.bin"
    args = ("--corpus", workspace / "corpus.jsonl",
            "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    assert run("embed", *args) == 0
    before = cache.read_bytes()
    tokenized = _count_calls(monkeypatch, textprep, "tokenize")
    fitted = _count_calls(monkeypatch, providers, "tfidf_fit")
    assert run("embed", *args, "--resume") == 0
    assert (tokenized, fitted) == ([], [])
    assert cache.read_bytes() == before


@pytest.mark.parametrize("provider", ["hash-bow", "tfidf", "tfidf-rp", "remote"])
def test_built_provider_carries_the_derived_identity(small_corpus, provider):
    cfg = config_from_dict({"embedding": {
        "provider": provider, "dimension": 8, "context_budget": 1024,
        "endpoint": "http://127.0.0.1:9", "remote_provider_id": "my-model",
    }})
    documents = list(corpus_documents(small_corpus, ChunkingConfig()))
    provider_id, budget = _provider_identity(cfg)
    assert provider_id == ("my-model" if provider == "remote" else provider)
    assert budget == 1024
    assert _build_provider(cfg, documents).provider_id == provider_id


def test_tfidf_on_one_document_is_a_data_error(workspace, tmp_path, caplog):
    one = tmp_path / "one.jsonl"
    one.write_text((workspace / "corpus.jsonl").read_text().splitlines()[0] + "\n")
    assert run("embed", "--corpus", one, "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "emb.bin") == 2
    assert "provider 'tfidf' is fitted on the corpus and needs at least 2 " \
           "documents, got 1" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "emb.bin").exists()


@pytest.fixture(scope="module")
def staged(workspace, tmp_path_factory):
    """The workspace's inputs, a cache, an assignment and an empty config."""
    root = tmp_path_factory.mktemp("staged")
    shutil.copytree(workspace, root, dirs_exist_ok=True)
    assert run("embed", "--corpus", root / "corpus.jsonl",
               "--hierarchy", root / "hierarchy.csv", "--out", root / "emb.bin") == 0
    assert run("cluster", "--cache", root / "emb.bin", "--out", root / "assign.csv") == 0
    (root / "config.json").write_text("{\n}\n")
    return root


STAGE_ARGV = {
    "embed": ["--corpus", "corpus.jsonl", "--hierarchy", "hierarchy.csv",
              "--out", "new.bin"],
    "peers": ["--cache", "emb.bin", "--returns", "returns.csv", "--out", "peers.json"],
    "attribute": ["--assignment", "assign.csv", "--returns", "returns.csv",
                  "--out", "attribution.json"],
}


@pytest.mark.parametrize("spoiled, stage, code", [
    ("returns.csv", "peers", 2),
    ("assign.csv", "attribute", 2),
    ("corpus.jsonl", "embed", 2),
    ("hierarchy.csv", "embed", 2),
    ("config.json", "embed", 1),
    ("wide returns.csv", "peers", 2),
])
def test_an_undecodable_input_is_refused_with_its_exit_code(
    staged, tmp_path, capsys, caplog, spoiled, stage, code
):
    """A 0xff byte, which no UTF-8 text holds, at the start of each kind of
    input's second line; and a CSV field over the csv module's field size
    limit."""
    shutil.copytree(staged, tmp_path, dirs_exist_ok=True)
    path = tmp_path / spoiled.split()[-1]
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = (b"x" * 200_000 if spoiled.startswith("wide") else b"\xff") + lines[1]
    path.write_bytes(b"".join(lines))
    argv = [a if a.startswith("--") else tmp_path / a for a in STAGE_ARGV[stage]]
    caplog.clear()
    assert run("--config", tmp_path / "config.json", stage, *argv) == code
    assert ("config error:" if code == 1 else "data error:") in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text


def test_cluster_reads_a_given_corpus_before_writing_anything(staged, tmp_path, caplog):
    shutil.copytree(staged, tmp_path, dirs_exist_ok=True)
    corpus = tmp_path / "corpus.jsonl"
    lines = corpus.read_bytes().splitlines(keepends=True)
    corpus.write_bytes(lines[0] + b"\xff" + b"".join(lines[1:]))
    assert run("cluster", "--cache", tmp_path / "emb.bin",
               "--out", tmp_path / "new.csv", "--quality-out", tmp_path / "q.json",
               "--corpus", corpus, "--hierarchy", tmp_path / "hierarchy.csv") == 2
    assert "data error:" in caplog.text
    assert not (tmp_path / "new.csv").exists()
    assert not (tmp_path / "q.json").exists()


# Each case names two missing inputs; the stage reports the one its
# declaration loads first, and writes nothing.
LOAD_ORDER = [
    ("classify", ["--cache", "gone.bin", "--corpus", "gone.jsonl",
                  "--hierarchy", "hierarchy.csv", "--model-out", "m.json",
                  "--report-out", "r.json"], "gone.jsonl", "gone.bin"),
    ("outliers", ["--cache", "gone.bin", "--corpus", "gone.jsonl",
                  "--hierarchy", "hierarchy.csv", "--out", "o.csv"],
     "gone.bin", "gone.jsonl"),
    ("peers", ["--cache", "gone.bin", "--returns", "gone.csv", "--out", "p.json"],
     "gone.bin", "gone.csv"),
    ("peers", ["--cache", "emb.bin", "--returns", "gone.csv", "--out", "p.json",
               "--corpus", "gone.jsonl", "--hierarchy", "hierarchy.csv"],
     "gone.csv", "gone.jsonl"),
    ("attribute", ["--assignment", "gone_assign.csv", "--returns", "gone.csv",
                   "--out", "a.json"], "gone_assign.csv", "gone.csv"),
]


@pytest.mark.parametrize("stage, argv, first, second", LOAD_ORDER,
                         ids=[f"{c[0]}-{c[2]}" for c in LOAD_ORDER])
def test_the_first_declared_bad_input_is_reported(staged, tmp_path, caplog,
                                                  stage, argv, first, second):
    shutil.copytree(staged, tmp_path, dirs_exist_ok=True)
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [a if a.startswith("--") else tmp_path / a for a in argv]
    caplog.clear()
    assert run(stage, *argv) == 2
    assert f"No such file or directory: '{tmp_path / first}'" in caplog.text
    assert str(tmp_path / second) not in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_ingest_extracts_sections(workspace, tmp_path):
    filings = tmp_path / "filings"
    filings.mkdir()
    body = ("makes solar panels and storage systems for utility customers. " * 8)
    for cid in ("X1", "X2"):
        filings.joinpath(f"{cid}.txt").write_text(
            f"PART I\n\nItem 1. Business\n\n{cid} {body}\n\n"
            "Item 1A. Risk Factors\n\nrisks here\n"
        )
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["company_id", "name", "sector", "industry_group",
                    "industry", "sub_industry"])
        for cid in ("X1", "X2"):
            w.writerow([cid, f"{cid} Corp", "Energy", "Energy Group",
                        "Solar Power", "Solar Power Core"])
    out = tmp_path / "ingested.jsonl"
    assert run("ingest", "--filings-dir", filings, "--labels", labels,
               "--hierarchy", workspace / "hierarchy.csv", "--out", out) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert {r["company_id"] for r in recs} == {"X1", "X2"}
    assert all(r["description"].startswith(r["company_id"]) for r in recs)
    assert all("risk" not in r["description"].lower() for r in recs)


def _ingest_inputs(tmp_path, filings):
    """A filings directory holding ``<id>.txt`` for each (id, text) pair and
    a labels file listing each id in the order given (repeats included)."""
    root = tmp_path / "filings"
    root.mkdir(exist_ok=True)
    for cid, text in filings:
        root.joinpath(f"{cid}.txt").write_text(text, encoding="utf-8")
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["company_id", "name", "sector", "industry_group",
                    "industry", "sub_industry"])
        for cid, _ in filings:
            w.writerow([cid, f"{cid} Corp", "Energy", "Energy Group",
                        "Solar Power", "Solar Power Core"])
    return root, labels


@pytest.mark.parametrize("filings,message", [
    ([("X1", "solar panels " * 5), ("X2", "\u2603" * 50)],
     "line 3: company 'X2': description cleans to 0 chars"),
    ([("X1", "solar panels " * 5), ("X2", "storage " * 5), ("X1", "solar panels " * 5)],
     "line 4: duplicate company_id 'X1' (first seen on line 2)"),
])
def test_ingest_applies_the_corpus_record_checks(workspace, tmp_path, caplog,
                                                  filings, message):
    root, labels = _ingest_inputs(tmp_path, filings)
    out = tmp_path / "ingested.jsonl"
    assert run("ingest", "--mode", "plain", "--filings-dir", root, "--labels", labels,
               "--hierarchy", workspace / "hierarchy.csv", "--out", out) == 2
    assert message in caplog.text
    assert not out.exists()


def test_ingested_corpus_loads(workspace, tmp_path):
    root, labels = _ingest_inputs(tmp_path, [("X2", "storage \u2603 " * 5),
                                             ("X1", "solar panels " * 5)])
    out = tmp_path / "ingested.jsonl"
    assert run("ingest", "--mode", "plain", "--filings-dir", root, "--labels", labels,
               "--hierarchy", workspace / "hierarchy.csv", "--out", out) == 0
    corpus = load_corpus(out, workspace / "hierarchy.csv")
    assert corpus.ids() == ["X1", "X2"]
    assert corpus.get("X2").description == "storage \u2603 " * 5
    assert corpus.get("X1").raw_filing_path == str(root / "X1.txt")


def _report_inputs(tmp_path, baselines):
    classify = {
        "config_hash": "abc123def456", "level": "sector", "n_train": 38,
        "n_test": 10, "singleton_classes": [],
        "report": {"accuracy": 0.9, "micro_f1": 0.9, "weighted_f1": 0.8912345678},
    }
    peers = {
        "config_hash": "abc123def456",
        "embedding": {"k": 10, "rho_bar": 0.31234567, "n_companies": 48},
        "baseline": {"rho_bar": 0.25} if baselines else None,
        "margin": 0.06234567 if baselines else None,
    }
    attribution = {
        "config_hash": "fff000111222",
        "attribution": {"avg_r_squared": 0.4, "n_months": 12, "n_clusters": 6,
                        "method": "kmeans"},
        "random_baseline": {"avg_r_squared": 0.1234564} if baselines else None,
        "margin": -0.0000004 if baselines else None,
    }
    paths = []
    for name, payload in (("classify", classify), ("peers", peers),
                          ("attribution", attribution)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths += [f"--{name}", path]
    return paths


_REPORT = """company embedding evaluation

[classification]
config hash : abc123def456
level       : sector
train/test  : 38/10
accuracy    : 0.900000
micro F1    : 0.900000
weighted F1 : 0.891235

[peer correlation]
config hash : abc123def456
k           : 10
rho_bar     : 0.312346
companies   : 48
{peers_baseline}
[return attribution]
config hash : fff000111222
avg R^2     : 0.400000
months      : 12
clusters    : 6 (kmeans)
{attribution_baseline}"""


@pytest.mark.parametrize("baselines", [False, True])
def test_report_output_byte_for_byte(tmp_path, baselines):
    out = tmp_path / "summary.txt"
    assert run("report", *_report_inputs(tmp_path, baselines), "--out", out) == 0
    expected = _REPORT.format(
        peers_baseline=("baseline    : 0.250000\nmargin      : +0.062346\n"
                        if baselines else ""),
        attribution_baseline=("random R^2  : 0.123456\nmargin      : -0.000000\n"
                              if baselines else ""),
    )
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("flag,content,message", [
    ("--peers", '{"x": 1}', "has no key 'embedding'"),
    ("--classify", "accuracy: 0.9\n", "is not JSON"),
    ("--attribution", '{"config_hash": "c", "attribution": []}', "has unexpected content"),
], ids=["missing-key", "not-json", "wrong-shape"])
def test_report_rejects_malformed_inputs(tmp_path, caplog, flag, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = tmp_path / "summary.txt"
    assert run("report", flag, bad, "--out", out) == 2
    assert f"{bad} {message}" in caplog.text
    assert not out.exists()


def test_exit_code_usage_errors(tmp_path, capsys):
    assert run() == 1
    assert run("nosuchcommand") == 1
    assert run("embed", "--corpus", "x") == 1  # missing required flags
    capsys.readouterr()


def test_exit_code_config_errors(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embeding": {}}))
    assert run("--config", cfg, "embed",
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "e.bin") == 1


def test_exit_code_config_error_on_bad_peers_type(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"peers": {"years": "2021"}}))
    assert run("--config", cfg, "peers", "--cache", tmp_path / "none.bin",
               "--returns", workspace / "returns.csv",
               "--out", tmp_path / "p.json") == 1


def test_exit_code_data_error_on_bad_returns(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv", "--out", cache) == 0
    bad = tmp_path / "returns.csv"
    bad.write_text("company_id,date,return\nC0001,2021-01-04,nan\n")
    assert run("peers", "--cache", cache, "--returns", bad,
               "--out", tmp_path / "p.json") == 2
    assert not (tmp_path / "p.json").exists()


def _peers_reports(cache, returns, out):
    """Run ``peers`` with every report; returns its exit code and reports."""
    out.mkdir()
    code = run("peers", "--cache", cache, "--returns", returns,
               "--out", out / "p.json", "--top-out", out / "top.csv",
               "--csv-out", out / "p.csv")
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_peers_reports_do_not_depend_on_the_returns_cache(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv", "--out", cache) == 0
    returns = tmp_path / "returns.csv"
    shutil.copyfile(workspace / "returns.csv", returns)
    sidecar = tmp_path / "returns.csv.panel.npz"
    parsed = _peers_reports(cache, returns, tmp_path / "parsed")
    assert sidecar.is_file()
    assert _peers_reports(cache, returns, tmp_path / "hit") == parsed
    assert parsed[0] == 0 and len(parsed[1]) == 3
    # a directory where the cache would go: parsed, not cached, same reports
    sidecar.unlink()
    sidecar.mkdir()
    assert _peers_reports(cache, returns, tmp_path / "blocked") == parsed
    assert sidecar.is_dir() and not any(sidecar.iterdir())
    assert not list(tmp_path.glob("*.tmp"))


def test_peers_reads_returns_from_a_fifo_without_caching(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv", "--out", cache) == 0
    fifo = tmp_path / "returns.csv"
    os.mkfifo(fifo)
    body = (workspace / "returns.csv").read_bytes()

    def feed():
        with open(fifo, "wb") as f:
            f.write(body)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    from_fifo = _peers_reports(cache, fifo, tmp_path / "fifo")
    writer.join(timeout=30)
    assert not writer.is_alive()
    regular = tmp_path / "regular" / "returns.csv"
    regular.parent.mkdir()
    regular.write_bytes(body)
    assert from_fifo == _peers_reports(cache, regular, tmp_path / "file")
    assert from_fifo[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "emb.bin", "emb.bin.ids", "fifo", "file", "regular", "returns.csv"]


@pytest.mark.parametrize("command", ["peers", "cluster"])
@pytest.mark.parametrize("given,missing", [("corpus", "hierarchy"),
                                           ("hierarchy", "corpus")])
def test_gics_inputs_need_each_other(workspace, tmp_path, caplog, command,
                                     given, missing):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    inputs = {"corpus": "corpus.jsonl", "hierarchy": "hierarchy.csv"}
    extra = {"peers": ["--returns", workspace / "returns.csv"],
             "cluster": ["--quality-out", tmp_path / "q.json"]}
    assert run(command, "--cache", cache, *extra[command],
               f"--{given}", workspace / inputs[given],
               "--out", tmp_path / "out") == 1
    assert f"--{given} needs --{missing}" in caplog.text
    assert not (tmp_path / "out").exists()


def test_attribute_rejects_a_repeated_company(workspace, tmp_path, caplog):
    assignment = tmp_path / "clusters.csv"
    assignment.write_text("company_id,cluster\nC0000,0\nC0001,1\nC0000,1\n")
    assert run("attribute", "--assignment", assignment,
               "--returns", workspace / "returns.csv",
               "--out", tmp_path / "attr.json") == 2
    assert "line 4: duplicate company id 'C0000' (first seen on line 2)" in caplog.text
    assert not (tmp_path / "attr.json").exists()


def test_peers_top_out_lists_the_scored_peers(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    top = tmp_path / "top.csv"
    assert run("peers", "--cache", cache,
               "--returns", workspace / "returns.csv",
               "--out", tmp_path / "p.json", "--top-out", top) == 0
    matrix = load_cache(cache)
    expected = top_k_peers(matrix, 10)
    with open(top) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["company_id", "rank", "peer_id", "similarity"]
    assert rows[1:] == [
        [company_id, str(rank), peer, f"{sim:.8f}"]
        for company_id in sorted(expected)
        for rank, (peer, sim) in enumerate(expected[company_id], start=1)
    ]


def test_exit_code_data_errors(workspace, tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert run("embed", "--corpus", missing,
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "e.bin") == 2

    bad_labels = tmp_path / "bad.csv"
    bad_labels.write_text("company,title\nX1,X\n")
    assert run("ingest", "--filings-dir", tmp_path, "--labels", bad_labels,
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "c.jsonl") == 2


@pytest.mark.parametrize("stage", ["embed", "cluster", "project"])
def test_an_empty_corpus_or_cache_is_a_data_error(workspace, tmp_path, caplog, stage):
    """A corpus file with no records, and a cache with no rows, fail the
    stage that reads them (exit 2, naming the file) before it writes."""
    if stage == "embed":
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        inputs = ["--corpus", empty, "--hierarchy", workspace / "hierarchy.csv"]
        message = f"{empty}: no records"
    else:
        empty = tmp_path / "empty.bin"
        save_cache(EmbeddingMatrix([], np.zeros((0, 8), dtype=np.float32),
                                   "hash-bow", 256), empty)
        inputs = ["--cache", empty]
        message = f"{empty}: cache holds no rows"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(stage, *inputs, "--out", tmp_path / "out") == 2
    assert "data error:" in caplog.text and message in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_classify_refuses_a_split_that_holds_nothing_out(workspace, tmp_path, caplog):
    """One company per sector: no sector class can lose a member to the
    test set, so classify has nothing to score."""
    first_of_sector = {}
    for line in (workspace / "corpus.jsonl").read_text().splitlines():
        first_of_sector.setdefault(json.loads(line)["gics"]["sector"], line)
    assert len(first_of_sector) == 6
    corpus = tmp_path / "six.jsonl"
    corpus.write_text("".join(line + "\n" for line in first_of_sector.values()))
    gics = ["--corpus", corpus, "--hierarchy", workspace / "hierarchy.csv"]
    assert run("embed", *gics, "--out", tmp_path / "emb.bin") == 0
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    assert run("classify", "--cache", tmp_path / "emb.bin", *gics,
               "--model-out", model, "--report-out", report) == 2
    assert "no sector class has 2 companies" in caplog.text
    assert "Traceback" not in caplog.text
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("outside", ["../secret", "absolute"])
def test_ingest_reads_filings_only_inside_the_filings_dir(workspace, tmp_path,
                                                          caplog, outside):
    root, labels = _ingest_inputs(tmp_path, [("X1", "solar panels " * 5)])
    secret = tmp_path / "secret"
    secret.with_suffix(".txt").write_text("storage " * 5, encoding="utf-8")
    company_id = str(secret) if outside == "absolute" else outside
    with open(labels, "a", newline="") as f:
        csv.writer(f).writerow([company_id, "Secret Corp", "Energy", "Energy Group",
                                "Solar Power", "Solar Power Core"])
    out = tmp_path / "ingested.jsonl"
    assert run("ingest", "--mode", "plain", "--filings-dir", root, "--labels", labels,
               "--hierarchy", workspace / "hierarchy.csv", "--out", out) == 2
    assert (f"line 3: company id {company_id!r} names a file outside the "
            f"filings directory") in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("cluster", "--out", "assign.csv"),
    ("project", "--method", "spectral", "--out", "coords.csv"),
    ("project", "--method", "pca", "--out", "coords.csv"),
])
def test_non_finite_cache_is_a_data_error(workspace, tmp_path, caplog, command):
    cache = tmp_path / "emb.bin"
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv", "--out", cache) == 0
    matrix = load_cache(cache)
    matrix.matrix[5, 0] = float("nan")
    save_cache(matrix, cache)
    name, *rest = command
    assert run(name, "--cache", cache, *rest[:-1], tmp_path / rest[-1]) == 2
    assert f"first {matrix.ids[5]!r} (row 5)" in caplog.text
    assert not (tmp_path / rest[-1]).exists()


def test_project_rejects_non_positive_components(workspace, tmp_path, caplog):
    cache = tmp_path / "emb.bin"
    assert run("embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv", "--out", cache) == 0
    for method in ("pca", "spectral"):
        out = tmp_path / f"{method}.csv"
        assert run("project", "--cache", cache, "--method", method,
                   "--components", "-3", "--out", out) == 1
        assert not out.exists()
    assert caplog.text.count("n_components must be >= 1, got -3") == 2


def test_exit_code_provider_errors(workspace, tmp_path):
    cfg = tmp_path / "remote.json"
    cfg.write_text(json.dumps({"embedding": {
        "provider": "remote",
        "endpoint": "http://127.0.0.1:9",
        "remote_provider_id": "m",
        "dimension": 8,
        "retries": 0,
        "timeout": 0.2,
        "backoff": 0.0,
    }}))
    assert run("--config", cfg, "embed",
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "e.bin") == 3


def test_quiet_suppresses_progress(workspace, tmp_path, capsys):
    cache = tmp_path / "emb.bin"
    assert run("--quiet", "embed", "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", cache) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cache.exists()


def test_classify_csv_report_accumulates(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    table = tmp_path / "runs.csv"
    for _ in range(2):
        assert run("classify", "--cache", cache,
                   "--corpus", workspace / "corpus.jsonl",
                   "--hierarchy", workspace / "hierarchy.csv",
                   "--model-out", tmp_path / "m.json",
                   "--report-out", tmp_path / "r.json",
                   "--csv-report", table) == 0
    with open(table) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["provider", "context_budget", "level",
                       "accuracy", "micro_f1", "weighted_f1", "n_test"]
    assert len(rows) == 3  # header + one row per run
    assert rows[1] == rows[2]
    assert rows[1][0].startswith("tfidf")
    assert rows[1][1] == "512"
    assert 0.0 <= float(rows[1][3]) <= 1.0


def test_classify_csv_report_heads_an_empty_file(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    table = tmp_path / "runs.csv"
    table.touch()
    assert run("classify", "--cache", cache,
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--model-out", tmp_path / "m.json",
               "--report-out", tmp_path / "r.json",
               "--csv-report", table) == 0
    with open(table) as f:
        rows = list(csv.reader(f))
    assert rows[0][:3] == ["provider", "context_budget", "level"]
    assert len(rows) == 2


def test_classify_text_report(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    model, text = tmp_path / "m.json", tmp_path / "report.txt"
    assert run("classify", "--cache", cache,
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--model-out", model, "--report-out", tmp_path / "r.json",
               "--text-report", text) == 0
    data = json.loads((tmp_path / "r.json").read_text())["report"]
    lines = text.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"examples : {data['n_examples']}"
    assert lines[1] == f"accuracy : {data['accuracy']:.6f}"
    assert len(lines) == 6 + len(load_model(model).classes)


@pytest.mark.parametrize("cluster", [
    {"method": "agglomerative", "linkage": "ward"},
    {"method": "agglomerative", "metric": "cosine"},
    {"method": "spectral", "n_neighbors": 8},
    {"method": "random"},
    {"method": "kmeans", "reduce_method": "pca", "reduce_components": 5},
    {"method": "kmeans", "reduce_method": "spectral", "reduce_components": 3,
     "n_neighbors": 8},
], ids=lambda c: "-".join(map(str, c.values())))
def test_cluster_methods_and_reductions(workspace, tmp_path, cluster):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    payload = {"cluster": {"n_clusters": 4, **cluster}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    out, quality = tmp_path / "asg.csv", tmp_path / "q.json"
    assert run("--config", config, "cluster", "--cache", cache, "--out", out,
               "--quality-out", quality) == 0

    cfg = config_from_dict(payload)
    c = cfg.cluster
    matrix = load_cache(cache)
    X = matrix.matrix.astype(np.float64)
    if c.reduce_method is not None:
        X = reduce_dims(X, c.reduce_components, method=c.reduce_method,
                        n_neighbors=c.n_neighbors)
    expected = {
        "kmeans": lambda: kmeans(X, 4, seed=cfg.seed, n_init=c.n_init).labels,
        "agglomerative": lambda: agglomerative(X, 4, c.linkage, c.metric)[0],
        "spectral": lambda: fit_clusters(
            X, "spectral", [4], seed=cfg.seed, n_init=c.n_init,
            n_neighbors=c.n_neighbors)[4][0],
        "random": lambda: random_cluster_assignment(matrix.ids, 4, seed=cfg.seed).labels,
    }[c.method]()
    assignment = load_assignment(out)
    assert assignment.ids == matrix.ids
    assert assignment.labels.tolist() == expected.tolist()
    written = json.loads(quality.read_text())
    assert (written["method"], written["n_clusters"]) == (c.method, 4)
    assert written["meta"].get("reduce_method") == c.reduce_method


def test_random_cluster_run_never_reduces_the_features(workspace, tmp_path, monkeypatch):
    """``random`` labels ignore the features, so a reduction that would fail
    is never run: the run exits 0 and writes the bytes it writes when the
    reduction works."""
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    config = tmp_path / "cfg.json"

    def cluster(method, name):
        config.write_text(json.dumps({"cluster": {
            "method": method, "n_clusters": 4, "reduce_method": "spectral",
            "reduce_components": 3, "n_neighbors": 8}}))
        out, quality = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        code = run("--config", config, "cluster", "--cache", cache, "--out", out,
                   "--corpus", workspace / "corpus.jsonl",
                   "--hierarchy", workspace / "hierarchy.csv",
                   "--quality-out", quality)
        return code, (out.read_bytes(), quality.read_bytes()) if code == 0 else None

    code, reduced = cluster("random", "reduced")
    assert code == 0

    def failing_reduction(*args, **kwargs):
        raise ComputationError("reduction failed")

    monkeypatch.setattr(cli_module, "reduce_dims", failing_reduction)
    assert cluster("random", "unreduced") == (0, reduced)
    assert cluster("kmeans", "kmeans") == (3, None)  # a fit still reduces


def test_peers_csv_includes_baseline_row(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    table = tmp_path / "peers.csv"
    assert run("peers", "--cache", cache,
               "--returns", workspace / "returns.csv",
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--out", tmp_path / "peers.json", "--csv-out", table) == 0
    with open(table) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["method", "k", "rho_bar", "n_companies", "n_years"]
    assert [r[0] for r in rows[1:]] == ["embedding", "gics-sector"]
    assert rows[1][1] == "10"
    assert rows[2][1] == "dynamic"
    assert all(-1.0 <= float(r[2]) <= 1.0 for r in rows[1:])


def test_attribute_csv_per_month_table(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    assignment = tmp_path / "clusters.csv"
    run("cluster", "--cache", cache, "--out", assignment)
    table = tmp_path / "attr.csv"
    assert run("attribute", "--assignment", assignment,
               "--returns", workspace / "returns.csv",
               "--out", tmp_path / "attr.json", "--csv-out", table) == 0
    with open(table) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["month", "r2", "adj_r2", "n_obs", "n_clusters_present"]
    assert len(rows) == 1 + 12 + 1  # header, one per month, summary
    assert rows[-1][0] == "average"
    assert all(r[0].startswith("2021-") for r in rows[1:-1])


def test_cluster_sweep_out(workspace, tmp_path):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    sweep = tmp_path / "sweep.csv"
    assert run("cluster", "--cache", cache, "--out", tmp_path / "asg.csv",
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--sweep-out", sweep) == 0
    with open(sweep) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["method", "n_clusters", "reduced_dim",
                       "homogeneity", "completeness", "v_measure", "seed"]
    assert len(rows) > 1
    counts = {int(r[1]) for r in rows[1:]}
    assert counts <= {11, 25}  # 66 and 100 exceed the 48-company universe
    # requires reference labels
    assert run("cluster", "--cache", cache, "--out", tmp_path / "asg2.csv",
               "--sweep-out", tmp_path / "s2.csv") == 1


def test_cluster_stage_that_fails_in_the_sweep_writes_nothing(
    workspace, tmp_path, monkeypatch
):
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    outputs = [tmp_path / name for name in ("asg.csv", "q.json", "sweep.csv")]
    argv = ("cluster", "--cache", cache, "--out", outputs[0],
            "--quality-out", outputs[1], "--corpus", workspace / "corpus.jsonl",
            "--hierarchy", workspace / "hierarchy.csv", "--sweep-out", outputs[2])
    assert run(*argv) == 0
    fresh = [path.read_bytes() for path in outputs]
    for path in outputs:
        path.write_bytes(b"old\n")

    def failing_sweep(*args, **kwargs):
        raise ComputationError("sweep failed")

    monkeypatch.setattr(cli_module, "cluster_sweep", failing_sweep)
    assert run(*argv) == 3
    assert [path.read_bytes() for path in outputs] == [b"old\n"] * 3
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    assert run(*argv) == 0
    assert [path.read_bytes() for path in outputs] == fresh


@pytest.mark.parametrize("method", ["kmeans", "agglomerative", "spectral"])
def test_cluster_stage_matches_its_sweep_cell(workspace, tmp_path, method):
    """The stage at 11 clusters on PCA-5 scores what the sweep's
    (method, 11, 5) row scores, and its meta holds the library's facts."""
    cache = tmp_path / "emb.bin"
    run("embed", "--corpus", workspace / "corpus.jsonl",
        "--hierarchy", workspace / "hierarchy.csv", "--out", cache)
    payload = {"cluster": {"method": method, "n_clusters": 11,
                           "reduce_method": "pca", "reduce_components": 5}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(payload))
    quality, sweep = tmp_path / "q.json", tmp_path / "sweep.csv"
    assert run("--config", config, "cluster", "--cache", cache,
               "--out", tmp_path / "asg.csv",
               "--corpus", workspace / "corpus.jsonl",
               "--hierarchy", workspace / "hierarchy.csv",
               "--quality-out", quality, "--sweep-out", sweep) == 0
    written = json.loads(quality.read_text())
    with open(sweep) as f:
        cells = {(r["method"], r["n_clusters"], r["reduced_dim"]): r
                 for r in csv.DictReader(f)}
    cell = cells[(method, "11", "5")]
    for score in ("homogeneity", "completeness", "v_measure"):
        assert f"{written['quality'][score]:.8f}" == cell[score]

    cfg = config_from_dict(payload)
    c = cfg.cluster
    X = reduce_dims(load_cache(cache).matrix.astype(np.float64), 5, method="pca")
    meta = written["meta"]
    if method == "kmeans":
        result = kmeans(X, 11, seed=cfg.seed, n_init=c.n_init)
        assert meta == {"reduce_method": "pca", "inertia": result.inertia,
                        "n_iter": result.n_iter}
    elif method == "agglomerative":
        _, merges = agglomerative(X, 11, c.linkage, c.metric)
        assert meta == {"reduce_method": "pca", "linkage": c.linkage,
                        "metric": c.metric, "last_merge_cost": merges[-1][2]}
    else:
        # the normalized-cut rule: bottom eigenvectors, unit rows, k-means
        rows = spectral_embedding(X, 11, c.n_neighbors, drop_first=False)
        norms = np.linalg.norm(rows, axis=1)
        norms[norms == 0.0] = 1.0
        result = kmeans(rows / norms[:, None], 11, seed=cfg.seed, n_init=c.n_init)
        assert meta == {"reduce_method": "pca", "inertia": result.inertia,
                        "n_neighbors": c.n_neighbors}

import csv
import json

import pytest

from companysim import synth
from companysim.cache import load_cache
from companysim.cli import main
from companysim.similarity import top_k_peers


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

"""Command line pipeline: ingest filings, build finetune pairs, embed,
classify, score peers, cluster, attribute returns, project, rank outliers,
and summarize.

Conventions shared by every subcommand:

* settings come from an optional JSON config (see ``config``) and a few
  explicit flags; flags win over the config file,
* logs go to stderr, data goes to the paths you name; outputs carry no
  timestamps, so a rerun with the same inputs is byte-identical,
* exit codes: 0 success, 1 usage/config error, 2 data error,
  3 computation or provider error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cache as cache_io
from .attribution import (
    attribution_metric,
    monthly_cumulative_returns,
    save_attribution_csv,
)
from .classify import (
    evaluate,
    fit_classifier,
    format_report,
    save_model,
    soft_class_distribution,
)
from .cluster import (
    ClusterAssignment,
    agglomerative,
    cluster_quality,
    cluster_sweep,
    kmeans,
    load_assignment,
    random_cluster_assignment,
    reduce_dims,
    save_assignment,
    save_sweep_csv,
    spectral_cluster,
)
from .config import RunConfig, config_hash, load_config
from .corpus import (
    GICS_LEVELS,
    Corpus,
    CompanyRecord,
    GicsHierarchy,
    GicsLabels,
    generate_finetune_pairs,
    load_corpus,
    save_corpus,
    save_pairs,
    stratified_split,
)
from .embeddings import EmbeddingMatrix, embed_corpus
from .errors import (
    CompanySimError,
    ComputationError,
    ConfigError,
    DataValidationError,
    ProviderError,
)
from .filings import extract_item1
from .providers import HashBowProvider, RemoteProvider, TfidfProvider
from .similarity import (
    avg_peer_correlation,
    gics_baseline_correlation,
    load_returns_csv,
    sector_outlier_scores,
)
from .textprep import ChunkingConfig, clean_text, tokenize, truncate

logger = logging.getLogger(__name__)

LABELS_HEADER = ["company_id", "name", *GICS_LEVELS]


def _chunking(cfg: RunConfig) -> ChunkingConfig:
    e = cfg.embedding
    return ChunkingConfig(
        window=e.window,
        context_budget=e.context_budget,
        tokens_per_word=e.tokens_per_word,
    )


def _corpus_token_sequences(corpus: Corpus, chunking: ChunkingConfig):
    budget = chunking.effective_budget()
    return [
        truncate(tokenize(clean_text(corpus.get(i).description), i), budget)
        for i in corpus.ids()
    ]


def _build_provider(cfg: RunConfig, corpus: Corpus | None):
    e = cfg.embedding
    if e.provider == "hash-bow":
        return HashBowProvider(e.dimension, seed=e.hash_seed)
    if e.provider in ("tfidf", "tfidf-rp"):
        if corpus is None:
            raise ConfigError(
                f"provider {e.provider!r} must be fitted; pass --corpus"
            )
        tokens = _corpus_token_sequences(corpus, _chunking(cfg))
        projection = e.dimension if e.provider == "tfidf-rp" else None
        return TfidfProvider.fit(
            tokens,
            max_features=e.max_features,
            projection_dim=projection,
            seed=e.projection_seed,
        )
    if e.provider == "remote":
        return RemoteProvider(
            endpoint=e.endpoint,
            provider_id=e.remote_provider_id,
            dimension=e.dimension,
            timeout=e.timeout,
            retries=e.retries,
            backoff=e.backoff,
            auth_env=e.auth_env,
        )
    raise ConfigError(f"unknown provider {e.provider!r}")


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _has_gics_inputs(args) -> bool:
    """Whether ``--corpus`` and ``--hierarchy`` were both given; either one
    alone is a ConfigError naming the missing flag."""
    for given, missing in (("corpus", "hierarchy"), ("hierarchy", "corpus")):
        if getattr(args, given) and not getattr(args, missing):
            raise ConfigError(f"--{given} needs --{missing}")
    return bool(args.corpus)


def _say(args, message: str) -> None:
    # status lines respect --quiet; file outputs never go through here
    if not getattr(args, "quiet", False):
        print(message)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args, cfg: RunConfig) -> int:
    hierarchy = GicsHierarchy.from_csv(args.hierarchy)
    filings_dir = Path(args.filings_dir)
    records = []
    with open(args.labels, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != LABELS_HEADER:
            raise DataValidationError(
                f"labels file must start with {','.join(LABELS_HEADER)!r}, "
                f"got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(LABELS_HEADER):
                raise DataValidationError(
                    f"line {line_no}: expected {len(LABELS_HEADER)} columns"
                )
            company_id, name = row[0], row[1]
            gics = GicsLabels(*row[2:])
            hierarchy.validate_labels(gics)
            filing_path = filings_dir / f"{company_id}.txt"
            if not filing_path.exists():
                raise DataValidationError(f"missing filing file {filing_path}")
            raw = filing_path.read_text(encoding="utf-8")
            if args.mode == "extract":
                description = extract_item1(raw, min_chars=args.min_chars)
            else:
                description = raw
            records.append(CompanyRecord(
                company_id=company_id,
                name=name,
                gics=gics,
                description=description,
                raw_filing_path=str(filing_path),
            ))
    corpus = Corpus(records, hierarchy)
    save_corpus(corpus, args.out)
    logger.info("ingested %d companies into %s", len(records), args.out)
    _say(args, f"ingested {len(records)} companies -> {args.out}")
    return 0


def cmd_pairs(args, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus, args.hierarchy)
    pairs = generate_finetune_pairs(corpus, seed=cfg.seed)
    save_pairs(pairs, args.out)
    _say(args, f"wrote {len(pairs)} pairs -> {args.out}")
    return 0


def cmd_embed(args, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus, args.hierarchy)
    provider = _build_provider(cfg, corpus)
    chunking = _chunking(cfg)
    weighted = cfg.embedding.length_weighted
    if args.resume:
        matrix = cache_io.sync_cache(
            args.out,
            corpus.ids(),
            lambda missing: embed_corpus(
                corpus, provider, chunking, ids=missing, length_weighted=weighted
            ),
        )
    else:
        matrix = embed_corpus(corpus, provider, chunking, length_weighted=weighted)
        cache_io.save_cache(matrix, args.out)
    if args.export_jsonl:
        cache_io.export_jsonl(matrix, args.export_jsonl)
    _say(args,
         f"embedded {len(matrix)} companies "
         f"(provider={matrix.provider_id}, dim={matrix.dimension}) -> {args.out}")
    return 0


def cmd_classify(args, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus, args.hierarchy)
    matrix = cache_io.load_cache(args.cache)
    common = [i for i in corpus.ids() if i in matrix]
    if len(common) < 2:
        raise DataValidationError("cache and corpus share fewer than 2 companies")
    sub_corpus = corpus.subset(common)
    labels = sub_corpus.gics_labels(cfg.classify.level)
    split = stratified_split(
        sub_corpus, labels, cfg.classify.test_fraction, seed=cfg.seed
    )
    train = matrix.subset(split.train_ids)
    test = matrix.subset(split.test_ids)
    model = fit_classifier(
        train.matrix,
        [labels[i] for i in split.train_ids],
        l2_penalty=cfg.classify.l2_penalty,
        max_iter=cfg.classify.max_iter,
        tol=cfg.classify.tol,
    )
    report = evaluate(model, test.matrix, [labels[i] for i in split.test_ids])
    save_model(model, args.model_out)
    payload = {
        "config_hash": config_hash(cfg),
        "level": cfg.classify.level,
        "n_train": len(split.train_ids),
        "n_test": len(split.test_ids),
        "singleton_classes": split.singleton_classes,
        "report": report.to_dict(),
    }
    _write_json(payload, args.report_out)
    if args.text_report:
        with open(args.text_report, "w", encoding="utf-8") as f:
            f.write(format_report(report))
    if args.soft_out:
        rows = soft_class_distribution(model, matrix.matrix, matrix.ids)
        with open(args.soft_out, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row, sort_keys=True) + "\n")
    if args.csv_report:
        # accumulates across runs so provider/context sweeps land in one table
        header = ["provider", "context_budget", "level",
                  "accuracy", "micro_f1", "weighted_f1", "n_test"]
        fresh = not Path(args.csv_report).exists()
        with open(args.csv_report, "a", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            if fresh:
                writer.writerow(header)
            writer.writerow([
                matrix.provider_id, matrix.context_budget, cfg.classify.level,
                f"{report.accuracy:.8f}", f"{report.micro_f1:.8f}",
                f"{report.weighted_f1:.8f}", report.n_examples,
            ])
    _say(args,
         f"classify level={cfg.classify.level}: accuracy={report.accuracy:.4f} "
         f"micro_f1={report.micro_f1:.4f} weighted_f1={report.weighted_f1:.4f} "
         f"on {report.n_examples} held-out companies")
    return 0


def cmd_peers(args, cfg: RunConfig) -> int:
    with_gics = _has_gics_inputs(args)
    matrix = cache_io.load_cache(args.cache)
    panel = load_returns_csv(args.returns)
    years = list(cfg.peers.years) if cfg.peers.years is not None else None
    report = avg_peer_correlation(
        matrix, panel, k=cfg.peers.k, years=years,
        min_overlap=cfg.peers.min_overlap,
    )
    payload = {
        "config_hash": config_hash(cfg),
        "embedding": report.to_dict(),
        "baseline": None,
        "margin": None,
    }
    if with_gics:
        corpus = load_corpus(args.corpus, args.hierarchy)
        level_labels = corpus.gics_labels(cfg.peers.baseline_level)
        labels = {i: level_labels[i] for i in corpus.ids() if i in matrix}
        baseline = gics_baseline_correlation(
            labels, panel, years=years, min_overlap=cfg.peers.min_overlap
        )
        payload["baseline"] = baseline.to_dict()
        payload["margin"] = report.rho_bar - baseline.rho_bar
    _write_json(payload, args.out)
    if args.top_out:
        with open(args.top_out, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["company_id", "rank", "peer_id", "similarity"])
            for company_id, peers in report.peers.items():
                for rank, (peer, sim) in enumerate(peers, start=1):
                    writer.writerow([company_id, rank, peer, f"{sim:.8f}"])
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["method", "k", "rho_bar", "n_companies", "n_years"])

            def csv_row(method: str, rep) -> list:
                k = rep.k if rep.k is not None else "dynamic"
                return [method, k, f"{rep.rho_bar:.8f}",
                        rep.n_companies, len(rep.years)]

            writer.writerow(csv_row("embedding", report))
            if payload["baseline"] is not None:
                writer.writerow(
                    csv_row(f"gics-{cfg.peers.baseline_level}", baseline)
                )
    msg = f"peers k={cfg.peers.k}: rho_bar={report.rho_bar:.4f}"
    if payload["margin"] is not None:
        msg += (
            f" vs {cfg.peers.baseline_level} baseline "
            f"{payload['baseline']['rho_bar']:.4f} "
            f"(margin {payload['margin']:+.4f})"
        )
    _say(args, msg)
    return 0


def _reduced_features(matrix: EmbeddingMatrix, cfg: RunConfig) -> np.ndarray:
    X = matrix.matrix.astype(np.float64)
    c = cfg.cluster
    if c.reduce_method is None:
        return X
    components = min(c.reduce_components, X.shape[1])
    return reduce_dims(
        X, components, method=c.reduce_method, n_neighbors=c.n_neighbors
    )


def cmd_cluster(args, cfg: RunConfig) -> int:
    with_gics = _has_gics_inputs(args)
    if args.sweep_out and not with_gics:
        raise ConfigError("--sweep-out needs --corpus and --hierarchy")
    matrix = cache_io.load_cache(args.cache)
    c = cfg.cluster
    X = _reduced_features(matrix, cfg)
    meta: dict = {"reduce_method": c.reduce_method}
    if c.method == "kmeans":
        result = kmeans(X, c.n_clusters, seed=cfg.seed, n_init=c.n_init)
        labels = result.labels
        meta.update(inertia=result.inertia, n_iter=result.n_iter)
    elif c.method == "agglomerative":
        labels, merges = agglomerative(X, c.n_clusters, c.linkage, c.metric)
        meta.update(linkage=c.linkage, metric=c.metric,
                    last_merge_cost=merges[-1][2] if merges else None)
    elif c.method == "spectral":
        result = spectral_cluster(
            X, c.n_clusters, n_neighbors=c.n_neighbors,
            seed=cfg.seed, n_init=c.n_init,
        )
        labels = result.labels
        meta.update(inertia=result.inertia, n_neighbors=c.n_neighbors)
    elif c.method == "random":
        labels = random_cluster_assignment(
            matrix.ids, c.n_clusters, seed=cfg.seed
        ).labels
    else:
        raise ConfigError(f"unknown cluster method {c.method!r}")
    assignment = ClusterAssignment(
        ids=matrix.ids,
        labels=labels,
        n_clusters=c.n_clusters,
        method=c.method,
        meta=meta,
    )
    save_assignment(assignment, args.out)
    quality_payload: dict = {
        "config_hash": config_hash(cfg),
        "method": c.method,
        "n_clusters": c.n_clusters,
        "meta": {k: v for k, v in meta.items() if v is not None},
        "quality": None,
    }
    if with_gics:
        corpus = load_corpus(args.corpus, args.hierarchy)
        level_labels = corpus.gics_labels(args.labels_level)
        aligned = [level_labels[i] for i in matrix.ids if i in level_labels]
        predicted = [
            int(l) for i, l in zip(matrix.ids, labels) if i in level_labels
        ]
        quality = cluster_quality(aligned, predicted)
        quality_payload["quality"] = quality.to_dict()
        quality_payload["labels_level"] = args.labels_level
    if args.quality_out:
        _write_json(quality_payload, args.quality_out)
    if args.sweep_out:
        keep = [i for i in matrix.ids if i in level_labels]
        sub = matrix.subset(keep)
        rows = cluster_sweep(
            sub.matrix.astype(np.float64),
            [level_labels[i] for i in keep],
            seed=cfg.seed,
            n_init=c.n_init,
            n_neighbors=c.n_neighbors,
        )
        save_sweep_csv(rows, args.sweep_out)
        _say(args, f"swept {len(rows)} cluster settings -> {args.sweep_out}")
    line = f"cluster method={c.method} k={c.n_clusters} -> {args.out}"
    if quality_payload["quality"]:
        q = quality_payload["quality"]
        line += (
            f" (homogeneity={q['homogeneity']:.4f}"
            f" completeness={q['completeness']:.4f}"
            f" v={q['v_measure']:.4f})"
        )
    _say(args, line)
    return 0


def cmd_attribute(args, cfg: RunConfig) -> int:
    assignment = load_assignment(args.assignment)
    panel = load_returns_csv(args.returns)
    monthly = monthly_cumulative_returns(panel, cfg.attribution.min_month_obs)
    report = attribution_metric(
        monthly, assignment,
        winsorize_fraction=cfg.attribution.winsorize,
        min_companies=cfg.attribution.min_companies,
    )
    payload = {
        "config_hash": config_hash(cfg),
        "attribution": report.to_dict(),
        "random_baseline": None,
        "margin": None,
    }
    if args.random_baseline:
        random_assignment = random_cluster_assignment(
            assignment.ids, assignment.n_clusters, seed=cfg.seed
        )
        baseline = attribution_metric(
            monthly, random_assignment,
            winsorize_fraction=cfg.attribution.winsorize,
            min_companies=cfg.attribution.min_companies,
        )
        payload["random_baseline"] = baseline.to_dict()
        payload["margin"] = report.avg_r_squared - baseline.avg_r_squared
    _write_json(payload, args.out)
    if args.csv_out:
        save_attribution_csv(report, args.csv_out)
    msg = (
        f"attribution: avg R^2={report.avg_r_squared:.4f} "
        f"over {report.n_months} months"
    )
    if payload["margin"] is not None:
        msg += (
            f" vs random {payload['random_baseline']['avg_r_squared']:.4f} "
            f"(margin {payload['margin']:+.4f})"
        )
    _say(args, msg)
    return 0


def cmd_project(args, cfg: RunConfig) -> int:
    matrix = cache_io.load_cache(args.cache)
    coords = reduce_dims(
        matrix.matrix.astype(np.float64),
        args.components,
        method=args.method,
        n_neighbors=cfg.cluster.n_neighbors,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["company_id"] + [f"x{i}" for i in range(coords.shape[1])]
        )
        for i, company_id in enumerate(matrix.ids):
            writer.writerow([company_id] + [repr(float(v)) for v in coords[i]])
    _say(args, f"projected {len(matrix)} companies to "
              f"{coords.shape[1]}d -> {args.out}")
    return 0


def cmd_outliers(args, cfg: RunConfig) -> int:
    matrix = cache_io.load_cache(args.cache)
    corpus = load_corpus(args.corpus, args.hierarchy)
    sectors = corpus.gics_labels("sector")
    scores = sector_outlier_scores(matrix, sectors)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["company_id", "sector", "score"])
        for company_id, score in ranked:
            writer.writerow([company_id, sectors[company_id], f"{score:.8f}"])
    _say(args, f"ranked {len(ranked)} companies by sector outlier score "
              f"-> {args.out}")
    return 0


def cmd_report(args, cfg: RunConfig) -> int:
    sections = []
    if args.classify:
        with open(args.classify, "r", encoding="utf-8") as f:
            data = json.load(f)
        r = data["report"]
        sections.append(
            "[classification]\n"
            f"config hash : {data['config_hash']}\n"
            f"level       : {data['level']}\n"
            f"train/test  : {data['n_train']}/{data['n_test']}\n"
            f"accuracy    : {r['accuracy']:.6f}\n"
            f"micro F1    : {r['micro_f1']:.6f}\n"
            f"weighted F1 : {r['weighted_f1']:.6f}\n"
        )
    if args.peers:
        with open(args.peers, "r", encoding="utf-8") as f:
            data = json.load(f)
        emb = data["embedding"]
        block = (
            "[peer correlation]\n"
            f"config hash : {data['config_hash']}\n"
            f"k           : {emb['k']}\n"
            f"rho_bar     : {emb['rho_bar']:.6f}\n"
            f"companies   : {emb['n_companies']}\n"
        )
        if data.get("baseline"):
            block += (
                f"baseline    : {data['baseline']['rho_bar']:.6f}\n"
                f"margin      : {data['margin']:+.6f}\n"
            )
        sections.append(block)
    if args.attribution:
        with open(args.attribution, "r", encoding="utf-8") as f:
            data = json.load(f)
        a = data["attribution"]
        block = (
            "[return attribution]\n"
            f"config hash : {data['config_hash']}\n"
            f"avg R^2     : {a['avg_r_squared']:.6f}\n"
            f"months      : {a['n_months']}\n"
            f"clusters    : {a['n_clusters']} ({a['method']})\n"
        )
        if data.get("random_baseline"):
            block += (
                f"random R^2  : {data['random_baseline']['avg_r_squared']:.6f}\n"
                f"margin      : {data['margin']:+.6f}\n"
            )
        sections.append(block)
    if not sections:
        raise ConfigError(
            "report needs at least one of --classify/--peers/--attribution"
        )
    text = "company embedding evaluation\n\n" + "\n".join(sections)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    _say(args, f"wrote summary -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="companysim",
        description="Company description embeddings evaluated on "
                    "classification, peer correlation, and return attribution.",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument(
        "--log-level", default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines (file outputs unaffected)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a corpus from filing text files")
    p.add_argument("--filings-dir", required=True)
    p.add_argument("--labels", required=True, help="CSV of company labels")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["extract", "plain"], default="extract")
    p.add_argument("--min-chars", type=int, default=200)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="emit balanced finetuning pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("embed", help="embed the corpus into a cache file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true",
                   help="only embed companies missing from the cache")
    p.add_argument("--export-jsonl", default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("classify", help="train/evaluate the GICS classifier")
    p.add_argument("--cache", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--text-report", default=None)
    p.add_argument("--soft-out", default=None,
                   help="JSONL of per-company class probabilities")
    p.add_argument("--csv-report", default=None,
                   help="append a one-line CSV summary of this run")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("peers", help="score top-k peers against returns")
    p.add_argument("--cache", required=True)
    p.add_argument("--returns", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--hierarchy", default=None)
    p.add_argument("--top-out", default=None)
    p.add_argument("--csv-out", default=None,
                   help="CSV with one row per method (embedding + baseline)")
    p.set_defaults(func=cmd_peers)

    p = sub.add_parser("cluster", help="cluster embeddings")
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quality-out", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--hierarchy", default=None)
    p.add_argument("--labels-level", default="sector",
                   choices=GICS_LEVELS)
    p.add_argument("--sweep-out", default=None,
                   help="CSV grid over methods, cluster counts, and PCA dims "
                        "(needs --corpus/--hierarchy)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("attribute", help="explain monthly returns with clusters")
    p.add_argument("--assignment", required=True)
    p.add_argument("--returns", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--random-baseline", action="store_true")
    p.add_argument("--csv-out", default=None,
                   help="per-month CSV with R2, adjusted R2, and counts")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("project", help="2d/low-d coordinates for plotting")
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["pca", "spectral"], default="pca")
    p.add_argument("--components", type=int, default=2)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("outliers", help="rank companies far from their sector")
    p.add_argument("--cache", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser("report", help="summarize previous JSON outputs")
    p.add_argument("--classify", default=None)
    p.add_argument("--peers", default=None)
    p.add_argument("--attribution", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    level = "ERROR" if args.quiet else args.log_level
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except ConfigError as e:
        logger.error("config error: %s", e)
        return 1
    except DataValidationError as e:
        logger.error("data error: %s", e)
        return 2
    except (ComputationError, ProviderError) as e:
        logger.error("computation error: %s", e)
        return 3
    except OSError as e:
        logger.error("i/o error: %s", e)
        return 2
    except CompanySimError as e:
        logger.error("%s", e)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line pipeline: ingest filings, build finetune pairs, embed,
classify, score peers, cluster, attribute returns, project, rank outliers,
and summarize.

Conventions shared by every subcommand:

* settings come from an optional JSON config (see ``config``) and a few
  explicit flags; flags win over the config file,
* logs go to stderr, data goes to the paths you name; outputs carry no
  timestamps, so a rerun with the same inputs is byte-identical,
* every output is a regular file, replaced whole; a target under /dev or
  /proc (``/dev/stdout`` included), a link that leads there, and a target
  that exists and is not a regular file (a FIFO, a directory) are refused
  with exit 2, and a SIGKILL can leave an output's ``<name>.<pid>.tmp``
  behind,
* each stage's inputs (an embedding cache, a corpus with its hierarchy, a
  returns file, a cluster assignment) are declared with its flags in
  ``STAGES`` and opened by ``main`` in the declared order before the stage
  computes anything, so a stage that fails on an input writes no output,
* exit codes: 0 success, 1 usage/config error, 2 data error (an input file
  that is not UTF-8 included), 3 computation or provider error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

# OpenBLAS's idle worker thread busy-waits for 2**28 cycles (its default) when
# numpy loads it and after every threaded product: on 2 vCPUs that spin made
# up about a third of a short stage's CPU time. 2**22 cycles (about 2 ms)
# still spans the gaps between a stage's back-to-back products. OpenBLAS
# reads the variable once, when numpy loads it, so this must run before
# numpy is imported. The thread count is untouched, so every product is split
# as before and every output keeps its bits; a value the user sets wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

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
    GicsHierarchy,
    corpus_from_records,
    generate_finetune_pairs,
    load_corpus,
    save_corpus,
    save_pairs,
    stratified_split,
)
from .embeddings import EmbeddingMatrix, corpus_documents, embed_corpus
from .errors import (
    CompanySimError,
    ComputationError,
    ConfigError,
    DataValidationError,
    ProviderError,
)
from .filings import extract_item1
from .outputs import csv_writer, replacing, write_json, write_rows
from .providers import HashBowProvider, RemoteProvider, TfidfProvider
from .similarity import (
    avg_peer_correlation,
    gics_baseline_correlation,
    load_returns_csv,
    sector_outlier_scores,
)
from .textprep import ChunkingConfig

logger = logging.getLogger(__name__)

LABELS_HEADER = ["company_id", "name", *GICS_LEVELS]


def _chunking(cfg: RunConfig) -> ChunkingConfig:
    e = cfg.embedding
    return ChunkingConfig(
        window=e.window,
        context_budget=e.context_budget,
        tokens_per_word=e.tokens_per_word,
    )


def _provider_identity(cfg: RunConfig) -> tuple[str, int]:
    """The provider id and context budget the run's cache rows carry: a
    remote provider's configured id, otherwise the provider's name."""
    e = cfg.embedding
    provider_id = e.remote_provider_id if e.provider == "remote" else e.provider
    return provider_id, e.context_budget


def _build_provider(cfg: RunConfig, documents: Sequence[tuple[str, list[list[str]]]]):
    """The configured provider. A TF-IDF provider is fitted on ``documents``,
    the ``(company_id, chunks)`` of every document; no other provider reads
    them."""
    e = cfg.embedding
    if e.provider == "hash-bow":
        return HashBowProvider(e.dimension, seed=e.hash_seed)
    if e.provider == "remote":
        return RemoteProvider(
            endpoint=e.endpoint,
            provider_id=_provider_identity(cfg)[0],
            dimension=e.dimension,
            timeout=e.timeout,
            retries=e.retries,
            backoff=e.backoff,
            auth_env=e.auth_env,
        )
    if len(documents) < 2:
        raise DataValidationError(
            f"provider {e.provider!r} is fitted on the corpus and needs at "
            f"least 2 documents, got {len(documents)}"
        )
    projection = e.dimension if e.provider == "tfidf-rp" else None
    return TfidfProvider.fit(
        [chain.from_iterable(chunks) for _, chunks in documents],
        max_features=e.max_features,
        projection_dim=projection,
        seed=e.projection_seed,
    )


@dataclass(frozen=True)
class Input:
    """A kind of input file: the flags that name it, whether they are
    required, and how ``main`` opens it from the parsed arguments."""
    flags: tuple[str, ...]
    load: Callable[[argparse.Namespace], object]
    required: bool = True


def _corpus(args):
    # None when an optional --corpus/--hierarchy pair was left out
    return load_corpus(args.corpus, args.hierarchy) if args.corpus else None


# Each loader looks its function up when it runs, so a wrapper installed
# after import (a tracer, a test's call counter) sees the call.
CACHE = Input(("--cache",), lambda args: cache_io.load_cache(args.cache))
CORPUS = Input(("--corpus", "--hierarchy"), _corpus)
GICS = Input(CORPUS.flags, _corpus, required=False)  # the pair, when given
RETURNS = Input(("--returns",), lambda args: load_returns_csv(args.returns))
ASSIGNMENT = Input(("--assignment",), lambda args: load_assignment(args.assignment))


def _check_flags(args) -> None:
    """The rules between flags, checked before any input is opened."""
    if hasattr(args, "corpus"):
        for given, missing in (("corpus", "hierarchy"), ("hierarchy", "corpus")):
            if getattr(args, given) and not getattr(args, missing):
                raise ConfigError(f"--{given} needs --{missing}")
    if getattr(args, "sweep_out", None) and not args.corpus:
        raise ConfigError("--sweep-out needs --corpus and --hierarchy")


# ---------------------------------------------------------------------------
# Subcommands


def _labelled_filings(labels, filings_dir: Path, mode: str, min_chars: int):
    """``(line number, corpus record)`` for each row of the labels CSV, the
    description read from ``<filings_dir>/<company_id>.txt``."""
    reader = csv.reader(labels)
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
        company_id, name, *levels = row
        filing_path = filings_dir / f"{company_id}.txt"
        if not filing_path.exists():
            raise DataValidationError(f"missing filing file {filing_path}")
        raw = filing_path.read_text(encoding="utf-8")
        yield line_no, {
            "company_id": company_id,
            "name": name,
            "gics": dict(zip(GICS_LEVELS, levels)),
            "description": (extract_item1(raw, min_chars=min_chars)
                            if mode == "extract" else raw),
            "raw_filing_path": str(filing_path),
        }


def cmd_ingest(args, cfg: RunConfig) -> str:
    hierarchy = GicsHierarchy.from_csv(args.hierarchy)
    with open(args.labels, "r", encoding="utf-8", newline="") as f:
        # the records load_corpus accepts, so the next stage reads them back
        corpus = corpus_from_records(
            _labelled_filings(f, Path(args.filings_dir), args.mode, args.min_chars),
            hierarchy,
        )
    save_corpus(corpus, args.out)
    logger.info("ingested %d companies into %s", len(corpus), args.out)
    return f"ingested {len(corpus)} companies -> {args.out}"


def cmd_pairs(args, cfg: RunConfig, corpus) -> str:
    pairs = generate_finetune_pairs(corpus, seed=cfg.seed)
    save_pairs(pairs, args.out)
    return f"wrote {len(pairs)} pairs -> {args.out}"


def cmd_embed(args, cfg: RunConfig, corpus) -> str:
    chunking = _chunking(cfg)
    # A TF-IDF fit depends on every document it reads, so a fitted provider
    # always embeds the whole corpus and a resume replaces its cache: one
    # cache holds rows from one fit.
    fitted = cfg.embedding.provider in ("tfidf", "tfidf-rp")

    def embed(ids: list[str]) -> EmbeddingMatrix:
        documents = corpus_documents(corpus, chunking, ids)
        if fitted:
            # prepared once, read by the fit and then by the embedding
            documents = list(documents)
        provider = _build_provider(cfg, documents)
        return embed_corpus(documents, provider, chunking,
                            length_weighted=cfg.embedding.length_weighted)

    def update(cached: EmbeddingMatrix | None, missing: list[str]) -> EmbeddingMatrix:
        if fitted:
            return embed(corpus.ids())
        return cache_io.append_rows(cached, embed(missing))

    if args.resume:
        matrix = cache_io.sync_cache(args.out, corpus.ids(), update,
                                     *_provider_identity(cfg))
    else:
        matrix = embed(corpus.ids())
        cache_io.save_cache(matrix, args.out)
    if args.export_jsonl:
        cache_io.export_jsonl(matrix, args.export_jsonl)
    return (f"embedded {len(matrix)} companies "
            f"(provider={matrix.provider_id}, dim={matrix.dimension}) -> {args.out}")


def cmd_classify(args, cfg: RunConfig, corpus, matrix: EmbeddingMatrix) -> str:
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
    write_json(args.report_out, payload)
    if args.text_report:
        with replacing(args.text_report) as f:
            f.write(format_report(report))
    if args.soft_out:
        rows = soft_class_distribution(model, matrix.matrix, matrix.ids)
        with replacing(args.soft_out) as f:
            for row in rows:
                f.write(json.dumps(row, sort_keys=True) + "\n")
    if args.csv_report:
        # accumulates across runs so sweeps land in one table; rewritten
        # whole, old bytes first, so a failed run adds no partial row
        header = ["provider", "context_budget", "level",
                  "accuracy", "micro_f1", "weighted_f1", "n_test"]
        path = Path(args.csv_report)
        with replacing(path) as f:
            table = path.read_bytes() if path.exists() else b""
            f.buffer.write(table)  # before any text, so it comes first
            writer = csv_writer(f)
            if not table:
                writer.writerow(header)
            writer.writerow([
                matrix.provider_id, matrix.context_budget, cfg.classify.level,
                f"{report.accuracy:.8f}", f"{report.micro_f1:.8f}",
                f"{report.weighted_f1:.8f}", report.n_examples,
            ])
    return (f"classify level={cfg.classify.level}: accuracy={report.accuracy:.4f} "
            f"micro_f1={report.micro_f1:.4f} weighted_f1={report.weighted_f1:.4f} "
            f"on {report.n_examples} held-out companies")


def cmd_peers(args, cfg: RunConfig, matrix: EmbeddingMatrix, panel, corpus) -> str:
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
    methods = [("embedding", report)]
    if corpus is not None:
        level_labels = corpus.gics_labels(cfg.peers.baseline_level)
        labels = {i: level_labels[i] for i in corpus.ids() if i in matrix}
        baseline = gics_baseline_correlation(
            labels, panel, years=years, min_overlap=cfg.peers.min_overlap
        )
        payload["baseline"] = baseline.to_dict()
        payload["margin"] = report.rho_bar - baseline.rho_bar
        methods.append((f"gics-{cfg.peers.baseline_level}", baseline))
    write_json(args.out, payload)
    if args.top_out:
        write_rows(args.top_out, ["company_id", "rank", "peer_id", "similarity"], (
            [company_id, rank, peer, f"{sim:.8f}"]
            for company_id, peers in report.peers.items()
            for rank, (peer, sim) in enumerate(peers, start=1)
        ))
    if args.csv_out:
        write_rows(args.csv_out, ["method", "k", "rho_bar", "n_companies", "n_years"], (
            [method, rep.k if rep.k is not None else "dynamic",
             f"{rep.rho_bar:.8f}", rep.n_companies, len(rep.years)]
            for method, rep in methods
        ))
    msg = f"peers k={cfg.peers.k}: rho_bar={report.rho_bar:.4f}"
    if payload["margin"] is not None:
        msg += (
            f" vs {cfg.peers.baseline_level} baseline "
            f"{payload['baseline']['rho_bar']:.4f} "
            f"(margin {payload['margin']:+.4f})"
        )
    return msg


def _reduced_features(matrix: EmbeddingMatrix, cfg: RunConfig) -> np.ndarray:
    c = cfg.cluster
    if c.reduce_method is None:
        return matrix.matrix
    components = min(c.reduce_components, matrix.dimension)
    return reduce_dims(
        matrix.matrix, components, method=c.reduce_method, n_neighbors=c.n_neighbors
    )


def cmd_cluster(args, cfg: RunConfig, matrix: EmbeddingMatrix, corpus) -> str:
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
    else:  # "random": the config allows no other method
        labels = random_cluster_assignment(
            matrix.ids, c.n_clusters, seed=cfg.seed
        ).labels
    assignment = ClusterAssignment(
        ids=matrix.ids,
        labels=labels,
        n_clusters=c.n_clusters,
        method=c.method,
    )
    save_assignment(assignment, args.out)
    quality_payload: dict = {
        "config_hash": config_hash(cfg),
        "method": c.method,
        "n_clusters": c.n_clusters,
        "meta": {k: v for k, v in meta.items() if v is not None},
        "quality": None,
    }
    if corpus is not None:
        level_labels = corpus.gics_labels(args.labels_level)
        aligned = [level_labels[i] for i in matrix.ids if i in level_labels]
        predicted = [
            int(l) for i, l in zip(matrix.ids, labels) if i in level_labels
        ]
        quality = cluster_quality(aligned, predicted)
        quality_payload["quality"] = quality.to_dict()
        quality_payload["labels_level"] = args.labels_level
    if args.quality_out:
        write_json(args.quality_out, quality_payload)
    lines = []
    if args.sweep_out:
        keep = [i for i in matrix.ids if i in level_labels]
        sub = matrix.subset(keep)
        rows = cluster_sweep(
            sub.matrix,
            [level_labels[i] for i in keep],
            seed=cfg.seed,
            n_init=c.n_init,
            n_neighbors=c.n_neighbors,
        )
        save_sweep_csv(rows, args.sweep_out)
        lines.append(f"swept {len(rows)} cluster settings -> {args.sweep_out}")
    line = f"cluster method={c.method} k={c.n_clusters} -> {args.out}"
    if quality_payload["quality"]:
        q = quality_payload["quality"]
        line += (
            f" (homogeneity={q['homogeneity']:.4f}"
            f" completeness={q['completeness']:.4f}"
            f" v={q['v_measure']:.4f})"
        )
    return "\n".join([*lines, line])


def cmd_attribute(args, cfg: RunConfig, assignment: ClusterAssignment, panel) -> str:
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
    write_json(args.out, payload)
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
    return msg


def cmd_project(args, cfg: RunConfig, matrix: EmbeddingMatrix) -> str:
    coords = reduce_dims(
        matrix.matrix,
        args.components,
        method=args.method,
        n_neighbors=cfg.cluster.n_neighbors,
    )
    write_rows(args.out, ["company_id"] + [f"x{i}" for i in range(coords.shape[1])], (
        [company_id] + [repr(float(v)) for v in row]
        for company_id, row in zip(matrix.ids, coords)
    ))
    return f"projected {len(matrix)} companies to {coords.shape[1]}d -> {args.out}"


def cmd_outliers(args, cfg: RunConfig, matrix: EmbeddingMatrix, corpus) -> str:
    sectors = corpus.gics_labels("sector")
    scores = sector_outlier_scores(matrix, sectors)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    write_rows(args.out, ["company_id", "sector", "score"], (
        [company_id, sectors[company_id], f"{score:.8f}"]
        for company_id, score in ranked
    ))
    return f"ranked {len(ranked)} companies by sector outlier score -> {args.out}"


def _classify_section(data: dict) -> str:
    r = data["report"]
    return (
        "[classification]\n"
        f"config hash : {data['config_hash']}\n"
        f"level       : {data['level']}\n"
        f"train/test  : {data['n_train']}/{data['n_test']}\n"
        f"accuracy    : {r['accuracy']:.6f}\n"
        f"micro F1    : {r['micro_f1']:.6f}\n"
        f"weighted F1 : {r['weighted_f1']:.6f}\n"
    )


def _peers_section(data: dict) -> str:
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
    return block


def _attribution_section(data: dict) -> str:
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
    return block


def _section(path: str, render) -> str:
    """``render`` applied to the JSON output of an earlier stage; a file that
    is not such an output is a DataValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return render(json.load(f))
    except json.JSONDecodeError as e:
        raise DataValidationError(f"{path} is not JSON: {e}") from None
    except KeyError as e:
        raise DataValidationError(f"{path} has no key {e}") from None
    except (TypeError, ValueError) as e:
        raise DataValidationError(f"{path} has unexpected content: {e}") from None


def cmd_report(args, cfg: RunConfig) -> str:
    sections = [
        _section(path, render)
        for path, render in ((args.classify, _classify_section),
                             (args.peers, _peers_section),
                             (args.attribution, _attribution_section))
        if path
    ]
    if not sections:
        raise ConfigError(
            "report needs at least one of --classify/--peers/--attribution"
        )
    text = "company embedding evaluation\n\n" + "\n".join(sections)
    with replacing(args.out) as f:
        f.write(text)
    return f"wrote summary -> {args.out}"


# ---------------------------------------------------------------------------
# Parser


@dataclass(frozen=True)
class Stage:
    """A subcommand: its help line, its body, and its flags in the order
    ``--help`` lists them, where an ``Input`` stands for that input's flags.
    ``main`` opens the inputs in the order the flags name them, or in
    ``load_order`` when given, and passes them to ``run`` in that order
    after ``args`` and the config; ``run`` returns the stage's status line."""
    name: str
    help: str
    run: Callable[..., str]
    flags: tuple
    load_order: tuple[Input, ...] = ()

    @property
    def inputs(self) -> tuple[Input, ...]:
        return self.load_order or tuple(f for f in self.flags if isinstance(f, Input))


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    """A stage's own flag: ``(name, keyword arguments of add_argument)``."""
    return name, kwargs


OUT = _flag("--out", required=True)

STAGES = (
    Stage("ingest", "build a corpus from filing text files", cmd_ingest, (
        _flag("--filings-dir", required=True),
        _flag("--labels", required=True, help="CSV of company labels"),
        _flag("--hierarchy", required=True),
        OUT,
        _flag("--mode", choices=["extract", "plain"], default="extract"),
        _flag("--min-chars", type=int, default=200),
    )),
    Stage("pairs", "emit balanced finetuning pairs", cmd_pairs, (CORPUS, OUT)),
    Stage("embed", "embed the corpus into a cache file", cmd_embed, (
        CORPUS, OUT,
        _flag("--resume", action="store_true",
              help="only embed companies missing from the cache"),
        _flag("--export-jsonl"),
    )),
    Stage("classify", "train/evaluate the GICS classifier", cmd_classify, (
        CACHE, CORPUS,
        _flag("--model-out", required=True),
        _flag("--report-out", required=True),
        _flag("--text-report"),
        _flag("--soft-out", help="JSONL of per-company class probabilities"),
        _flag("--csv-report", help="append a one-line CSV summary of this run"),
    ), load_order=(CORPUS, CACHE)),
    Stage("peers", "score top-k peers against returns", cmd_peers, (
        CACHE, RETURNS, OUT, GICS,
        _flag("--top-out"),
        _flag("--csv-out", help="CSV with one row per method (embedding + baseline)"),
    )),
    Stage("cluster", "cluster embeddings", cmd_cluster, (
        CACHE, OUT,
        _flag("--quality-out"),
        GICS,
        _flag("--labels-level", default="sector", choices=GICS_LEVELS),
        _flag("--sweep-out", help="CSV grid over methods, cluster counts, and PCA "
                                  "dims (needs --corpus/--hierarchy)"),
    )),
    Stage("attribute", "explain monthly returns with clusters", cmd_attribute, (
        ASSIGNMENT, RETURNS, OUT,
        _flag("--random-baseline", action="store_true"),
        _flag("--csv-out", help="per-month CSV with R2, adjusted R2, and counts"),
    )),
    Stage("project", "2d/low-d coordinates for plotting", cmd_project, (
        CACHE, OUT,
        _flag("--method", choices=["pca", "spectral"], default="pca"),
        _flag("--components", type=int, default=2),
    )),
    Stage("outliers", "rank companies far from their sector", cmd_outliers,
          (CACHE, CORPUS, OUT)),
    Stage("report", "summarize previous JSON outputs", cmd_report, (
        _flag("--classify"), _flag("--peers"), _flag("--attribution"), OUT,
    )),
)


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
    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        for entry in stage.flags:
            if isinstance(entry, Input):
                for name in entry.flags:
                    p.add_argument(name, required=entry.required)
            else:
                p.add_argument(entry[0], **entry[1])
        p.set_defaults(stage=stage)
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
        _check_flags(args)
        inputs = [kind.load(args) for kind in args.stage.inputs]
        status = args.stage.run(args, cfg, *inputs)
        if not args.quiet:  # status lines only; file outputs are unaffected
            print(status)
        return 0
    except ConfigError as e:
        logger.error("config error: %s", e)
        return 1
    except (DataValidationError, UnicodeDecodeError, csv.Error) as e:
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

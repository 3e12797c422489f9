"""Seeded inputs for the benchmark workloads.

Builds on ``companysim.synth`` and adds what real return panels have and
the synthetic generator never produces: companies that list mid-sample,
companies that delist, companies with no returns at all, and company-days
missing at random. Every input is a function of (workload, size, seed).
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

from companysim.corpus import save_corpus
from companysim.similarity import ReturnPanel, save_returns_csv
from companysim.synth import (
    make_synthetic_corpus,
    make_synthetic_returns,
    synthetic_hierarchy,
)
from companysim.textprep import ChunkingConfig, prepare_chunks

# workload -> size -> parameters. "full" is what the benchmark measures;
# "tiny" is the smoke-test size that runs every stage in seconds.
SIZES = {
    "returns-panel": {
        "full": {"companies": 150, "years": [2020, 2021, 2022], "words": 80},
        "tiny": {"companies": 24, "years": [2021], "words": 40},
    },
    "text-universe": {
        "full": {"companies": 2590, "words": 400},
        "tiny": {"companies": 24, "words": 400},
    },
    "remote-embed": {
        "full": {"companies": 600, "first": 400, "words": 300},
        "tiny": {"companies": 24, "first": 16, "words": 300},
    },
}

# Shares of companies (returns-panel) with each kind of gap, and the share
# of company-days dropped at random.
LISTED_SHARE = 0.10
DELISTED_SHARE = 0.05
NO_RETURNS_SHARE = 0.02
MISSING_DAY_SHARE = 0.01

# Program settings per workload. The text workload uses the paper's largest
# context budget; the remote workload embeds several short windows per
# document so each request carries a multi-chunk payload.
CONFIGS = {
    "returns-panel": {"seed": 0},
    "text-universe": {
        "seed": 0,
        "embedding": {"context_budget": 1536, "window": 256},
    },
    "remote-embed": {
        "seed": 0,
        "embedding": {
            "provider": "remote",
            "remote_provider_id": "stub-embed",
            "dimension": 32,
            "window": 128,
            "retries": 2,
            "backoff": 0.05,
        },
    },
}


def _add_gaps(panel: ReturnPanel, seed: int) -> ReturnPanel:
    """Drop return observations to make listing, delisting, no-returns and
    missing-day gaps. Categories are disjoint; shares round to whole
    companies."""
    rng = np.random.default_rng([seed, 1])
    ids = panel.companies()
    dates = sorted(next(iter(panel.series.values())))
    n, n_days = len(ids), len(dates)
    order = [ids[i] for i in rng.permutation(n)]
    n_none = round(n * NO_RETURNS_SHARE)
    n_listed = round(n * LISTED_SHARE)
    n_delisted = round(n * DELISTED_SHARE)
    no_returns = set(order[:n_none])
    listed = set(order[n_none:n_none + n_listed])
    delisted = set(order[n_none + n_listed:n_none + n_listed + n_delisted])
    series: dict[str, dict[str, float]] = {}
    for company_id in ids:
        if company_id in no_returns:
            continue
        lo, hi = 0, n_days
        if company_id in listed:
            lo = int(rng.integers(n_days // 10, (2 * n_days) // 3))
        if company_id in delisted:
            hi = int(rng.integers(n_days // 3, (9 * n_days) // 10))
        keep = rng.random(n_days) >= MISSING_DAY_SHARE
        obs = panel.series[company_id]
        series[company_id] = {
            dates[d]: obs[dates[d]] for d in range(lo, hi) if keep[d]
        }
    return ReturnPanel(series)


def generate(workload: str, size: str, seed: int, out: Path,
             endpoint: dict | None = None) -> None:
    """Write the workload's input files into ``out``; ``endpoint`` holds
    embedding settings known only once the stub service listens."""
    p = SIZES[workload][size]
    out.mkdir(parents=True, exist_ok=True)
    corpus = make_synthetic_corpus(
        p["companies"], seed=seed, words_per_description=p["words"]
    )
    save_corpus(corpus, out / "corpus.jsonl")
    synthetic_hierarchy().to_csv(out / "hierarchy.csv")
    config = copy.deepcopy(CONFIGS[workload])
    if endpoint:
        config["embedding"].update(endpoint)
    with open(out / "config.json", "w", encoding="utf-8") as f:
        json.dump(config, f, sort_keys=True, indent=2)
        f.write("\n")
    if workload == "returns-panel":
        panel = make_synthetic_returns(corpus, p["years"], seed=seed)
        save_returns_csv(_add_gaps(panel, seed), out / "returns.csv")
    elif workload == "remote-embed":
        first = corpus.subset(corpus.ids()[:p["first"]])
        save_corpus(first, out / "corpus_first.jsonl")


def properties(workload: str, size: str, out: Path) -> dict:
    """Measured properties of the generated inputs, for the result record."""
    p = SIZES[workload][size]
    corpus_lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    descriptions = [json.loads(line)["description"] for line in corpus_lines]
    emb = CONFIGS[workload].get("embedding", {})
    chunking = ChunkingConfig(
        window=emb.get("window", 512),
        context_budget=emb.get("context_budget", 512),
    )
    sample = descriptions[:50]
    chunks = sum(len(prepare_chunks(d, chunking)) for d in sample)
    props = {
        "companies": len(descriptions),
        "words_per_description": p["words"],
        "chunks_per_document": chunks / len(sample),
    }
    returns = out / "returns.csv"
    if returns.exists():
        seen: set[str] = set()
        dates: set[str] = set()
        rows = 0
        with open(returns, encoding="utf-8") as f:
            next(f)
            for line in f:
                company_id, date, _ = line.split(",", 2)
                seen.add(company_id)
                dates.add(date)
                rows += 1
        props.update(
            return_rows=rows,
            return_days=len(dates),
            missing_share=1.0 - rows / (len(descriptions) * len(dates)),
            companies_without_returns=len(descriptions) - len(seen),
        )
    return props

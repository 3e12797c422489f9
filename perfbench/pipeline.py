"""The CLI stages each workload runs, in order, and the files each writes.

A stage is one ``companysim`` invocation. Inputs are read from the data
directory; outputs go to the pass directory, which is the working
directory of every stage of one pass. ``metric`` names the end-to-end
stage time the stage counts toward: both ``--resume`` passes of the
remote workload count toward ``resume_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Stage:
    metric: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]


CACHE = ("cache.bin", "cache.bin.ids")
CORPUS = ("--corpus", "{data}/corpus.jsonl", "--hierarchy", "{data}/hierarchy.csv")

WORKLOADS: dict[str, tuple[Stage, ...]] = {
    "returns-panel": (
        Stage("embed", ("embed", *CORPUS, "--out", "cache.bin"), CACHE),
        Stage("peers", (
            "peers", "--cache", "cache.bin", "--returns", "{data}/returns.csv",
            "--out", "peers.json", *CORPUS,
            "--top-out", "top.csv", "--csv-out", "peers.csv",
        ), ("peers.json", "top.csv", "peers.csv")),
        Stage("cluster", (
            "cluster", "--cache", "cache.bin", "--out", "assign.csv",
            "--quality-out", "quality.json", *CORPUS, "--sweep-out", "sweep.csv",
        ), ("assign.csv", "quality.json", "sweep.csv")),
        Stage("attribute", (
            "attribute", "--assignment", "assign.csv",
            "--returns", "{data}/returns.csv", "--out", "attribution.json",
            "--random-baseline", "--csv-out", "attribution.csv",
        ), ("attribution.json", "attribution.csv")),
    ),
    "text-universe": (
        Stage("embed", ("embed", *CORPUS, "--out", "cache.bin"), CACHE),
        Stage("classify", (
            "classify", "--cache", "cache.bin", *CORPUS,
            "--model-out", "model.json", "--report-out", "classify.json",
            "--soft-out", "soft.jsonl",
        ), ("model.json", "classify.json", "soft.jsonl")),
        Stage("outliers", (
            "outliers", "--cache", "cache.bin", *CORPUS, "--out", "outliers.csv",
        ), ("outliers.csv",)),
        Stage("project", (
            "project", "--cache", "cache.bin", "--method", "spectral",
            "--out", "project.csv",
        ), ("project.csv",)),
        Stage("cluster", (
            "cluster", "--cache", "cache.bin", "--out", "assign.csv",
            "--quality-out", "quality.json", *CORPUS,
        ), ("assign.csv", "quality.json")),
    ),
    "remote-embed": (
        Stage("embed", (
            "embed", "--corpus", "{data}/corpus_first.jsonl",
            "--hierarchy", "{data}/hierarchy.csv", "--out", "cache.bin",
        ), CACHE),
        Stage("resume", ("embed", *CORPUS, "--out", "cache.bin", "--resume"), CACHE),
        Stage("resume", ("embed", *CORPUS, "--out", "cache.bin", "--resume"), CACHE),
    ),
}

STAGE_METRICS = (
    "embed", "classify", "peers", "cluster", "attribute", "outliers",
    "project", "resume",
)


def argv(stage: Stage, data: Path) -> list[str]:
    """Arguments for ``companysim`` (after the program name)."""
    return ["--quiet", "--config", f"{data}/config.json"] + [
        a.format(data=data) for a in stage.args
    ]


def output_key(index: int, stage: Stage, name: str) -> str:
    """Reference key of one output of one stage: the remote workload
    rewrites one cache file, so the stage index keeps the keys apart."""
    return f"{index}.{stage.metric}/{name}"

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from companysim.corpus import Corpus
from companysim.synth import make_synthetic_corpus
from companysim.textprep import ChunkingConfig

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def filings_manifest():
    manifest = json.loads((FIXTURES / "filings" / "manifest.json").read_text())
    texts = {
        name: (FIXTURES / "filings" / f"{name}.txt").read_text(encoding="utf-8")
        for name in manifest
    }
    return manifest, texts


@pytest.fixture(scope="session")
def small_corpus():
    # 48 companies, 4 per industry; big enough for splits and pair sampling.
    return make_synthetic_corpus(48, seed=11)


@pytest.fixture(scope="session")
def varied_chunking():
    # window 4: a document of w plain words has ceil(w / 4) chunks
    return ChunkingConfig(window=4, context_budget=512)


@pytest.fixture(scope="session")
def varied_corpus(small_corpus):
    """The first 30 companies of ``small_corpus`` with descriptions of 1 to
    5 chunks at ``varied_chunking``, ragged final chunks, and one document
    (the 11th) of 70 chunks."""
    rng = np.random.default_rng(23)
    records = []
    for i, record in enumerate(small_corpus.records[:30]):
        n_chunks = 70 if i == 10 else 1 + i % 5
        n_words = 4 * n_chunks - int(rng.integers(0, 4))
        words = [f"w{k}" for k in rng.integers(0, 40, size=n_words)]
        records.append(dataclasses.replace(record, description=" ".join(words)))
    return Corpus(records, small_corpus.hierarchy)

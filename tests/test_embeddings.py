import dataclasses
from itertools import chain

import numpy as np
import pytest

from companysim.corpus import Corpus
from companysim.embeddings import (
    EmbeddingMatrix,
    corpus_documents,
    embed_corpus,
    pool_chunk_embeddings,
)
from companysim.errors import DataValidationError, ProviderError
from companysim.providers import (
    MAX_TEXTS_PER_REQUEST,
    HashBowProvider,
    TfidfProvider,
    tfidf_fit,
)
from companysim.textprep import (
    ChunkingConfig,
    clean_text,
    prepare_chunks,
    tokenize,
    truncate,
)


def test_pooling_is_arithmetic_mean():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(7, 5))
    pooled = pool_chunk_embeddings(rows)
    assert np.allclose(pooled, rows.mean(axis=0), atol=1e-15)


def test_pooling_single_chunk_identity():
    row = np.arange(4.0)[None, :]
    assert np.array_equal(pool_chunk_embeddings(row), np.arange(4.0))


def test_pooling_weighted_mean():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pooled = pool_chunk_embeddings(rows, weights=[2.0, 1.0, 1.0])
    assert np.allclose(pooled, [0.75, 0.5], atol=1e-15)
    # equal weights reduce to the plain mean
    assert np.allclose(
        pool_chunk_embeddings(rows, weights=[3.0, 3.0, 3.0]),
        rows.mean(axis=0), atol=1e-15,
    )


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 0.0, 2.0], [1.0, -1.0, 2.0]])
def test_pooling_rejects_bad_weights(weights):
    rows = np.ones((3, 4))
    with pytest.raises(ValueError):
        pool_chunk_embeddings(rows, weights=weights)


def _embed_one(text, provider, config, company_id, length_weighted=False):
    """``embed_corpus`` on one document: its pooled row and its chunks."""
    chunks = prepare_chunks(text, config)
    matrix = embed_corpus([(company_id, chunks)], provider, config,
                          length_weighted=length_weighted)
    return matrix.row(company_id), chunks


def test_embed_one_document_matches_manual_pooling():
    provider = HashBowProvider(32, seed=5)
    cfg = ChunkingConfig(window=3, context_budget=12)
    text = "alpha beta gamma delta epsilon zeta eta theta iota"
    vector, chunks = _embed_one(text, provider, cfg, "X")
    assert len(chunks) == 3
    manual = np.mean([provider.embed_chunks([c])[0] for c in chunks], axis=0)
    assert np.allclose(vector, manual, atol=1e-15)


def test_embed_one_document_length_weighted_downweights_short_tail():
    provider = HashBowProvider(32, seed=5)
    cfg = ChunkingConfig(window=4, context_budget=16)
    # 6 tokens -> chunks of 4 and 2; the short tail gets weight 2, not 1/2
    text = "alpha beta gamma delta epsilon zeta"
    plain, chunks = _embed_one(text, provider, cfg, "X")
    weighted, _ = _embed_one(text, provider, cfg, "X", length_weighted=True)
    vecs = np.array([provider.embed_chunks([c])[0] for c in chunks])
    manual = (4.0 * vecs[0] + 2.0 * vecs[1]) / 6.0
    assert np.allclose(weighted, manual, atol=1e-15)
    assert not np.allclose(weighted, plain)


def test_embed_one_document_rejects_empty_text(small_corpus):
    record = dataclasses.replace(small_corpus.records[0], company_id="E",
                                 description="\u2603\u2603")
    corpus = Corpus([record], small_corpus.hierarchy)
    with pytest.raises(DataValidationError):
        embed_corpus(corpus_documents(corpus, ChunkingConfig()),
                     HashBowProvider(8, seed=0), ChunkingConfig())


def test_embed_corpus_aligned_with_ids(small_corpus):
    provider = HashBowProvider(64, seed=1)
    cfg = ChunkingConfig(window=64, context_budget=128)
    matrix = embed_corpus(corpus_documents(small_corpus, cfg), provider, cfg)
    assert matrix.ids == small_corpus.ids()
    assert matrix.matrix.shape == (len(small_corpus), 64)
    assert matrix.matrix.dtype == np.float32
    one, _ = _embed_one(
        small_corpus.get(matrix.ids[5]).description, provider, cfg, matrix.ids[5]
    )
    assert np.allclose(matrix.row(matrix.ids[5]), one, atol=1e-6)


def test_matrix_subset_and_lookup():
    mat = EmbeddingMatrix(
        ids=["a", "b", "c"],
        matrix=np.arange(12, dtype=np.float32).reshape(3, 4),
        provider_id="p",
        context_budget=512,
    )
    assert mat.index("b") == 1
    assert "c" in mat and "z" not in mat
    sub = mat.subset(["c", "a"])
    assert sub.ids == ["c", "a"]
    assert np.array_equal(sub.matrix[0], mat.row("c"))
    with pytest.raises(KeyError):
        mat.row("z")


def test_matrix_rejects_misaligned_or_duplicate_ids():
    with pytest.raises(ValueError):
        EmbeddingMatrix(["a"], np.zeros((2, 3), dtype=np.float32), "p", 512)
    with pytest.raises(ValueError):
        EmbeddingMatrix(["a", "a"], np.zeros((2, 3), dtype=np.float32), "p", 512)


def _stacked_documents(corpus, provider, config, length_weighted):
    """The rows of ``embed_corpus`` run on one document at a time."""
    return np.vstack([
        embed_corpus(corpus_documents(corpus, config, [i]), provider, config,
                     length_weighted=length_weighted).matrix
        for i in corpus.ids()
    ])


def _tfidf(corpus):
    tokens = [tokenize(clean_text(r.description)) for r in corpus]
    return TfidfProvider.fit(tokens, max_features=32)


def test_tfidf_fit_on_chunks_equals_fit_on_truncated_tokens(small_corpus):
    # a budget below every description's length, so truncation drops tokens
    config = ChunkingConfig(window=7, context_budget=40, tokens_per_word=1.3)
    truncated = [
        truncate(tokenize(clean_text(r.description)), config.effective_budget())
        for r in small_corpus
    ]
    assert all(len(t) == config.effective_budget() for t in truncated)
    chunked = [chain.from_iterable(chunks)
               for _, chunks in corpus_documents(small_corpus, config)]
    want, got = tfidf_fit(truncated, 64), tfidf_fit(chunked, 64)
    assert got.vocabulary == want.vocabulary
    assert np.array_equal(got.idf, want.idf)
    assert got.n_docs == want.n_docs == len(small_corpus)


@pytest.mark.parametrize("length_weighted", [False, True])
@pytest.mark.parametrize("make_provider", [
    lambda corpus: HashBowProvider(16, seed=3),
    _tfidf,
], ids=["hash-bow", "tfidf"])
def test_embed_corpus_rows_equal_per_document_embedding(
    varied_corpus, varied_chunking, make_provider, length_weighted
):
    counts = [len(prepare_chunks(r.description, varied_chunking)) for r in varied_corpus]
    assert set(counts) == {1, 2, 3, 4, 5, 70}
    assert max(counts) > MAX_TEXTS_PER_REQUEST
    provider = make_provider(varied_corpus)
    matrix = embed_corpus(corpus_documents(varied_corpus, varied_chunking),
                          provider, varied_chunking,
                          length_weighted=length_weighted)
    expected = _stacked_documents(varied_corpus, provider, varied_chunking,
                                  length_weighted)
    assert np.array_equal(matrix.matrix, expected)


def _prepared(corpus, config):
    """The ``(company_id, chunks)`` documents, and each chunk list's
    ``id()`` mapped to its company id: ``embed_corpus`` hands the provider
    these same list objects."""
    documents = list(corpus_documents(corpus, config))
    owner = {id(c): company_id for company_id, chunks in documents for c in chunks}
    return documents, owner


class _RecordingProvider(HashBowProvider):
    """Hash-BOW that logs the company id of each chunk of each
    ``embed_chunks`` call and raises a plain exception on call number
    ``fail_on``."""

    def __init__(self, owner, fail_on=None):
        super().__init__(16, seed=3)
        self.owner = owner
        self.calls = []
        self.fail_on = fail_on

    def embed_chunks(self, chunks):
        self.calls.append([self.owner[id(c)] for c in chunks])
        if len(self.calls) == self.fail_on:
            raise RuntimeError("boom")
        return super().embed_chunks(chunks)


def test_embed_corpus_groups_whole_consecutive_documents(varied_corpus, varied_chunking):
    documents, owner = _prepared(varied_corpus, varied_chunking)
    provider = _RecordingProvider(owner)
    embed_corpus(documents, provider, varied_chunking)
    ids = varied_corpus.ids()
    seen = []
    for call in provider.calls:
        docs = list(dict.fromkeys(call))
        assert len(call) <= MAX_TEXTS_PER_REQUEST or len(docs) == 1
        seen.extend(docs)
    assert seen == ids  # every document exactly once, in order, never split
    assert 1 < len(provider.calls) < len(ids)


def test_group_failure_names_first_and_last_company(varied_corpus, varied_chunking):
    documents, owner = _prepared(varied_corpus, varied_chunking)
    provider = _RecordingProvider(owner, fail_on=3)
    with pytest.raises(ProviderError) as exc:
        embed_corpus(documents, provider, varied_chunking)
    group = list(dict.fromkeys(provider.calls[2]))
    assert len(group) > 1
    message = str(exc.value)
    assert f"documents {group[0]!r} to {group[-1]!r}" in message
    assert "boom" in message
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_embed_corpus_rejects_empty_document_by_id(varied_corpus, varied_chunking):
    records = list(varied_corpus.records)
    bad = records[4].company_id
    records[4] = dataclasses.replace(records[4], description="\u2603 \u2603")
    corpus = Corpus(records, varied_corpus.hierarchy)
    with pytest.raises(DataValidationError, match=repr(bad)):
        embed_corpus(corpus_documents(corpus, varied_chunking),
                     HashBowProvider(16, seed=3), varied_chunking)

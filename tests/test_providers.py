import math

import numpy as np
import pytest

from companysim.providers import (
    HashBowProvider,
    TfidfProvider,
    hash_bow_embed,
    tfidf_embed,
    tfidf_fit,
)


def test_hash_bow_deterministic_and_unit_norm():
    chunk = ["oil", "drilling", "rig", "oil"]
    a = hash_bow_embed(chunk, 64, seed=1)
    b = hash_bow_embed(chunk, 64, seed=1)
    assert np.array_equal(a, b)
    assert math.isclose(np.linalg.norm(a), 1.0, rel_tol=0, abs_tol=1e-12)


def test_hash_bow_seed_changes_embedding():
    chunk = ["alpha", "beta", "gamma"]
    a = hash_bow_embed(chunk, 64, seed=1)
    b = hash_bow_embed(chunk, 64, seed=2)
    assert not np.array_equal(a, b)


def test_hash_bow_token_order_invariant():
    a = hash_bow_embed(["x", "y", "z"], 32, seed=0)
    b = hash_bow_embed(["z", "x", "y"], 32, seed=0)
    assert np.allclose(a, b)


def test_hash_bow_empty_chunk_is_zero_vector():
    vec = hash_bow_embed([], 16, seed=0)
    assert np.array_equal(vec, np.zeros(16))


def test_hash_bow_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        hash_bow_embed(["a"], 1, seed=0)


def test_tfidf_fit_vocabulary_selection():
    docs = [
        ["apple", "banana", "apple"],
        ["apple", "cherry"],
        ["banana", "cherry", "cherry"],
        ["apple", "date"],
    ]
    model = tfidf_fit(docs, max_features=3)
    # df: apple 3, banana 2, cherry 2, date 1; top 3 keeps apple, banana, cherry.
    assert sorted(model.vocabulary) == ["apple", "banana", "cherry"]
    assert model.n_docs == 4
    n = 4
    for token, df in [("apple", 3), ("banana", 2), ("cherry", 2)]:
        expected = math.log((1 + n) / (1 + df)) + 1.0
        assert math.isclose(model.idf[model.vocabulary[token]], expected, rel_tol=1e-15)


def test_tfidf_fit_tie_breaks_lexicographically():
    docs = [["bb", "aa"], ["cc", "aa"], ["bb", "cc"]]
    # df: aa 2, bb 2, cc 2; keep the 2 lexicographically smallest on the tie.
    model = tfidf_fit(docs, max_features=2)
    assert sorted(model.vocabulary) == ["aa", "bb"]


def test_tfidf_fit_requires_two_docs():
    with pytest.raises(ValueError):
        tfidf_fit([["a"]], max_features=4)


def test_tfidf_embed_matches_hand_computation():
    docs = [["a", "a", "b"], ["b", "c"], ["a", "c", "c"]]
    model = tfidf_fit(docs, max_features=10)
    vec = tfidf_embed(model, ["a", "a", "c"])
    n = 3
    raw = np.zeros(3)
    raw[model.vocabulary["a"]] = 2.0 * (math.log((1 + n) / (1 + 2)) + 1.0)
    raw[model.vocabulary["c"]] = 1.0 * (math.log((1 + n) / (1 + 2)) + 1.0)
    raw /= np.linalg.norm(raw)
    assert np.allclose(vec, raw, atol=1e-15)


def test_tfidf_embed_ignores_out_of_vocabulary():
    docs = [["a", "b"], ["a", "c"]]
    model = tfidf_fit(docs, max_features=10)
    vec = tfidf_embed(model, ["zzz", "qqq"])
    assert np.array_equal(vec, np.zeros(len(model.vocabulary)))


def test_tfidf_projection_deterministic_and_normalized():
    docs = [["a", "b", "c"], ["b", "c", "d"], ["a", "d"]]
    model = tfidf_fit(docs, max_features=10)
    v1 = tfidf_embed(model, ["a", "b"], projection=(8, 42))
    v2 = tfidf_embed(model, ["a", "b"], projection=(8, 42))
    v3 = tfidf_embed(model, ["a", "b"], projection=(8, 43))
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)
    assert v1.shape == (8,)
    assert math.isclose(np.linalg.norm(v1), 1.0, abs_tol=1e-12)


def test_provider_classes_report_dimension():
    hb = HashBowProvider(32, seed=0)
    assert hb.dimension == 32
    docs = [["a", "b"], ["b", "c"], ["c", "d"]]
    plain = TfidfProvider.fit(docs, max_features=10)
    assert plain.dimension == 4
    projected = TfidfProvider.fit(docs, max_features=10, projection_dim=6, seed=1)
    assert projected.dimension == 6
    assert projected.provider_id == "tfidf-rp"


def test_embed_chunks_stacks_rows():
    hb = HashBowProvider(16, seed=3)
    chunks = [["a", "b"], ["c"], ["d", "e", "f"]]
    out = hb.embed_chunks(chunks)
    assert out.shape == (3, 16)
    assert np.allclose(out[1], hb.embed_chunks([chunks[1]])[0])

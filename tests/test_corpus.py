import json

import numpy as np
import pytest

from companysim.corpus import (
    Corpus,
    GicsHierarchy,
    GicsLabels,
    PairExample,
    generate_finetune_pairs,
    load_corpus,
    load_pairs,
    save_corpus,
    save_pairs,
    stratified_split,
)
from companysim.errors import (
    CorpusFormatError,
    DataValidationError,
    HierarchyError,
)
from companysim.synth import make_synthetic_corpus, synthetic_hierarchy


def test_gics_labels_reject_empty():
    with pytest.raises(DataValidationError):
        GicsLabels("Energy", "", "Oil Drilling", "Oil Drilling Core")


def test_hierarchy_rejects_conflicting_parent():
    rows = [
        ("Energy", "Energy Group", "Oil Drilling", "Oil Drilling Core"),
        ("Utilities", "Utilities Group", "Oil Drilling", "Oil Drilling Core"),
    ]
    with pytest.raises(HierarchyError):
        GicsHierarchy(rows)


def test_hierarchy_validate_labels_chain(small_corpus):
    h = synthetic_hierarchy()
    good = small_corpus.get("C0000").gics
    h.validate_labels(good)
    with pytest.raises(HierarchyError):
        h.validate_labels(GicsLabels(
            "Utilities", good.industry_group, good.industry, good.sub_industry
        ))
    with pytest.raises(HierarchyError):
        h.validate_labels(GicsLabels("Energy", "Energy Group", "Oil Drilling", "Nope"))


def test_hierarchy_mismatch_names_the_level_that_disagrees():
    h = GicsHierarchy([("Energy", "Energy Group", "Oil Drilling", "Oil Core")])
    with pytest.raises(HierarchyError, match=(
            "sub_industry 'Oil Core' belongs to industry 'Oil Drilling', not 'X'")):
        h.validate_labels(GicsLabels("Energy", "Energy Group", "X", "Oil Core"))
    with pytest.raises(HierarchyError, match=(
            "industry 'Oil Drilling' belongs to industry_group 'Energy Group', "
            "not 'X'")):
        h.validate_labels(GicsLabels("Energy", "X", "Oil Drilling", "Oil Core"))
    with pytest.raises(HierarchyError, match=(
            "industry_group 'Energy Group' belongs to sector 'Energy', not 'X'")):
        h.validate_labels(GicsLabels("X", "Energy Group", "Oil Drilling", "Oil Core"))


def test_hierarchy_csv_round_trip(tmp_path):
    h = synthetic_hierarchy()
    path = tmp_path / "h.csv"
    h.to_csv(path)
    again = GicsHierarchy.from_csv(path)
    assert again.rows == h.rows


def test_corpus_sorted_and_indexed(small_corpus):
    ids = small_corpus.ids()
    assert ids == sorted(ids)
    assert small_corpus.get(ids[3]).company_id == ids[3]
    with pytest.raises(KeyError):
        small_corpus.get("NOPE")


def test_corpus_rejects_duplicate_ids(small_corpus):
    records = list(small_corpus.records) + [small_corpus.records[0]]
    with pytest.raises(DataValidationError):
        Corpus(records, small_corpus.hierarchy)


def test_corpus_jsonl_round_trip(tmp_path, small_corpus):
    corpus_path = tmp_path / "corpus.jsonl"
    hier_path = tmp_path / "hier.csv"
    save_corpus(small_corpus, corpus_path)
    small_corpus.hierarchy.to_csv(hier_path)
    again = load_corpus(corpus_path, hier_path)
    assert again.ids() == small_corpus.ids()
    for cid in again.ids():
        a, b = again.get(cid), small_corpus.get(cid)
        assert (a.name, a.gics, a.description) == (b.name, b.gics, b.description)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_corpus_reports_line_numbers(tmp_path, small_corpus):
    hier_path = tmp_path / "hier.csv"
    small_corpus.hierarchy.to_csv(hier_path)
    record = {
        "company_id": "A",
        "name": "A Corp",
        "gics": small_corpus.get("C0000").gics.to_dict(),
        "description": "drilling " * 30,
    }
    bad = dict(record, company_id="B", bogus_key=1)
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(record), json.dumps(bad)])
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path, hier_path)

    _write_lines(path, [json.dumps(record), "{not json"])
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path, hier_path)

    dup = dict(record, name="A again")
    _write_lines(path, [json.dumps(record), json.dumps(dup)])
    with pytest.raises(CorpusFormatError, match="first seen on line 1"):
        load_corpus(path, hier_path)


def test_load_corpus_min_description_chars(tmp_path, small_corpus):
    hier_path = tmp_path / "hier.csv"
    small_corpus.hierarchy.to_csv(hier_path)
    record = {
        "company_id": "A",
        "name": "A Corp",
        "gics": small_corpus.get("C0000").gics.to_dict(),
        "description": "short text",
    }
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(record)])
    load_corpus(path, hier_path, min_description_chars=10)
    with pytest.raises(CorpusFormatError, match="cleans to 10 chars"):
        load_corpus(path, hier_path, min_description_chars=11)


def test_stratified_split_counts_and_partition(small_corpus):
    labels = small_corpus.gics_labels("sector")
    split = stratified_split(small_corpus, labels, 0.25, seed=3)
    assert sorted(split.train_ids + split.test_ids) == small_corpus.ids()
    assert not set(split.train_ids) & set(split.test_ids)
    # 8 per sector, fraction 0.25 -> exactly 2 test members per sector.
    by_sector = {}
    for cid in split.test_ids:
        by_sector[labels[cid]] = by_sector.get(labels[cid], 0) + 1
    assert all(v == 2 for v in by_sector.values())
    assert len(by_sector) == 6


def test_stratified_split_deterministic(small_corpus):
    labels = small_corpus.gics_labels("industry")
    a = stratified_split(small_corpus, labels, 0.3, seed=9)
    b = stratified_split(small_corpus, labels, 0.3, seed=9)
    c = stratified_split(small_corpus, labels, 0.3, seed=10)
    assert a.test_ids == b.test_ids
    assert a.test_ids != c.test_ids


def test_stratified_split_small_class_keeps_train_member():
    corpus = make_synthetic_corpus(13, seed=0)  # industry 0 has 2, others 1
    labels = corpus.gics_labels("industry")
    split = stratified_split(corpus, labels, 0.5, seed=1)
    sizes = {}
    for cid in corpus.ids():
        sizes[labels[cid]] = sizes.get(labels[cid], 0) + 1
    singles = [ind for ind, n in sizes.items() if n == 1]
    assert sorted(split.singleton_classes) == sorted(singles)
    # every singleton stays in train
    for cid in corpus.ids():
        if labels[cid] in singles:
            assert cid in split.train_ids


def test_pair_example_validation():
    with pytest.raises(DataValidationError):
        PairExample("A", "A", 1)
    with pytest.raises(DataValidationError):
        PairExample("A", "B", 2)


def test_generate_pairs_balanced_and_valid(small_corpus):
    pairs = generate_finetune_pairs(small_corpus, seed=5)
    assert len(pairs) == 2 * len(small_corpus)
    industry = small_corpus.gics_labels("industry")
    positives = [p for p in pairs if p.label == 1]
    negatives = [p for p in pairs if p.label == 0]
    assert len(positives) == len(negatives) == len(small_corpus)
    for p in positives:
        assert industry[p.id_a] == industry[p.id_b]
    for p in negatives:
        assert industry[p.id_a] != industry[p.id_b]


def test_generate_pairs_deterministic(small_corpus):
    a = generate_finetune_pairs(small_corpus, seed=5)
    b = generate_finetune_pairs(small_corpus, seed=5)
    assert a == b


def test_generate_pairs_needs_two_industries(small_corpus):
    industry = small_corpus.gics_labels("industry")
    one = [cid for cid in small_corpus.ids() if industry[cid] == "Oil Drilling"]
    with pytest.raises(DataValidationError):
        generate_finetune_pairs(small_corpus.subset(one), seed=0)


def test_pairs_csv_round_trip(tmp_path, small_corpus):
    pairs = generate_finetune_pairs(small_corpus, seed=2)
    path = tmp_path / "pairs.csv"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs


def test_subset_preserves_hierarchy(small_corpus):
    sub = small_corpus.subset(small_corpus.ids()[:10])
    assert len(sub) == 10
    assert sub.hierarchy is small_corpus.hierarchy

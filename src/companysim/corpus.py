"""Company universe: records, GICS hierarchy, splits and pair generation.

File formats:
  corpus: JSONL, one record per line with keys company_id, name,
      gics {sector, industry_group, industry, sub_industry}, description,
      and optional raw_filing_path.
  hierarchy: CSV with header sector,industry_group,industry,sub_industry,
      one row per sub-industry leaf.
  pair dataset: CSV with header id_a,id_b,label.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import CorpusFormatError, DataValidationError, HierarchyError
from .outputs import replacing, write_rows
from .textprep import has_text

logger = logging.getLogger(__name__)

GICS_LEVELS = ("sector", "industry_group", "industry", "sub_industry")
# (child level, parent level), leaf first: the order validate_labels checks
_PARENT_LEVEL = (
    ("sub_industry", "industry"),
    ("industry", "industry_group"),
    ("industry_group", "sector"),
)

_RECORD_KEYS = {"company_id", "name", "gics", "description", "raw_filing_path"}
_REQUIRED_KEYS = {"company_id", "name", "gics", "description"}


@dataclass(frozen=True)
class GicsLabels:
    """One company's category at each of the four GICS levels."""

    sector: str
    industry_group: str
    industry: str
    sub_industry: str

    def __post_init__(self):
        for level in GICS_LEVELS:
            if not getattr(self, level):
                raise DataValidationError(f"GICS {level} must be non-empty")

    def level(self, name: str) -> str:
        if name not in GICS_LEVELS:
            raise ValueError(f"unknown GICS level {name!r}, expected one of {GICS_LEVELS}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        return {level: getattr(self, level) for level in GICS_LEVELS}

    @classmethod
    def from_dict(cls, d: Mapping) -> "GicsLabels":
        missing = [level for level in GICS_LEVELS if level not in d]
        if missing:
            raise DataValidationError(f"gics object missing keys: {missing}")
        for level in GICS_LEVELS:
            if not isinstance(d[level], str):
                raise DataValidationError(f"GICS {level} must be a string")
        return cls(*(d[level] for level in GICS_LEVELS))


@dataclass(frozen=True)
class CompanyRecord:
    """One company: identifier, GICS labels and business-description text."""

    company_id: str
    name: str
    gics: GicsLabels
    description: str
    raw_filing_path: str | None = None


@dataclass
class GicsHierarchy:
    """Level-mapping table; each child category has exactly one parent."""

    rows: list[tuple[str, str, str, str]]

    def __post_init__(self):
        # child level -> {child category: parent category}
        self._parent: dict[str, dict[str, str]] = {child: {} for child, _ in _PARENT_LEVEL}
        for row in self.rows:
            if len(row) != 4 or not all(row):
                raise HierarchyError(f"hierarchy row must have 4 non-empty fields, got {row!r}")
            category = dict(zip(GICS_LEVELS, row))
            for child_level, parent_level in _PARENT_LEVEL:
                table = self._parent[child_level]
                child, parent = category[child_level], category[parent_level]
                if child in table and table[child] != parent:
                    raise HierarchyError(
                        f"{child_level} {child!r} mapped to both {table[child]!r} and {parent!r}"
                    )
                table[child] = parent

    @classmethod
    def from_csv(cls, path: str | Path) -> "GicsHierarchy":
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise HierarchyError(f"{path}: empty hierarchy file") from None
            if [h.strip() for h in header] != list(GICS_LEVELS):
                raise HierarchyError(
                    f"{path}: expected header {','.join(GICS_LEVELS)}, got {','.join(header)}"
                )
            rows = [tuple(cell.strip() for cell in row) for row in reader if row]
        if not rows:
            raise HierarchyError(f"{path}: hierarchy has no rows")
        return cls(rows)

    def to_csv(self, path: str | Path) -> None:
        write_rows(path, GICS_LEVELS, self.rows, lineterminator="\r\n")

    def validate_labels(self, gics: GicsLabels) -> None:
        """Raise HierarchyError unless the 4-tuple is consistent with the table."""
        if gics.sub_industry not in self._parent["sub_industry"]:
            raise HierarchyError(f"unknown GICS sub_industry {gics.sub_industry!r}")
        for child_level, parent_level in _PARENT_LEVEL:
            child, parent = gics.level(child_level), gics.level(parent_level)
            expected = self._parent[child_level][child]
            if parent != expected:
                raise HierarchyError(
                    f"{child_level} {child!r} belongs to {parent_level} "
                    f"{expected!r}, not {parent!r}"
                )


@dataclass
class Corpus:
    """Validated company universe; records sorted by company_id."""

    records: list[CompanyRecord]
    hierarchy: GicsHierarchy

    def __post_init__(self):
        self.records = sorted(self.records, key=lambda r: r.company_id)
        self._by_id = {r.company_id: r for r in self.records}
        if len(self._by_id) != len(self.records):
            raise DataValidationError("duplicate company_id in corpus records")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[CompanyRecord]:
        return iter(self.records)

    def ids(self) -> list[str]:
        return [r.company_id for r in self.records]

    def get(self, company_id: str) -> CompanyRecord:
        try:
            return self._by_id[company_id]
        except KeyError:
            raise KeyError(f"unknown company_id {company_id!r}") from None

    def gics_labels(self, level: str) -> dict[str, str]:
        """Map company_id to its GICS category at the given level."""
        return {r.company_id: r.gics.level(level) for r in self.records}

    def subset(self, ids) -> "Corpus":
        wanted = set(ids)
        return Corpus(
            [r for r in self.records if r.company_id in wanted],
            self.hierarchy,
        )


@dataclass(frozen=True)
class PairExample:
    """A labeled company pair: 1 = same GICS industry, 0 = different."""

    id_a: str
    id_b: str
    label: int

    def __post_init__(self):
        if self.id_a == self.id_b:
            raise DataValidationError(f"pair ({self.id_a!r}) must join distinct companies")
        if self.label not in (0, 1):
            raise DataValidationError(f"pair label must be 0 or 1, got {self.label!r}")


def corpus_from_records(records, hierarchy: GicsHierarchy,
                        source: str | Path) -> Corpus:
    """The corpus of ``(line number, raw record)`` pairs read from the file
    ``source``, which must hold at least one. A record must be an object
    with the record keys; company_id (non-empty and on no earlier line),
    name, description and the GICS levels must be strings, and
    raw_filing_path a string or null; the labels must fit the hierarchy and
    the description must clean to at least one character. CorpusFormatError
    names the line of the first record that breaks a rule."""
    checked: list[CompanyRecord] = []
    first_line: dict[str, int] = {}
    for line, raw in records:
        if not isinstance(raw, dict):
            raise CorpusFormatError("record must be a JSON object", line=line)
        missing = _REQUIRED_KEYS - raw.keys()
        if missing:
            raise CorpusFormatError(f"missing keys: {sorted(missing)}", line=line)
        unknown = raw.keys() - _RECORD_KEYS
        if unknown:
            raise CorpusFormatError(f"unknown keys: {sorted(unknown)}", line=line)
        for key in ("company_id", "name", "description"):
            if not isinstance(raw[key], str):
                raise CorpusFormatError(f"{key} must be a string", line=line)
        raw_filing_path = raw.get("raw_filing_path")
        if raw_filing_path is not None and not isinstance(raw_filing_path, str):
            raise CorpusFormatError("raw_filing_path must be a string or null", line=line)
        company_id = raw["company_id"]
        if not company_id:
            raise CorpusFormatError("company_id must be non-empty", line=line)
        if company_id in first_line:
            raise CorpusFormatError(
                f"duplicate company_id {company_id!r} "
                f"(first seen on line {first_line[company_id]})",
                line=line,
            )
        first_line[company_id] = line
        if not isinstance(raw["gics"], dict):
            raise CorpusFormatError("gics must be an object", line=line)
        try:
            gics = GicsLabels.from_dict(raw["gics"])
            hierarchy.validate_labels(gics)
        except DataValidationError as e:
            raise CorpusFormatError(f"company {company_id!r}: {e}", line=line) from None
        if not has_text(raw["description"]):
            raise CorpusFormatError(
                f"company {company_id!r}: description cleans to 0 chars", line=line
            )
        checked.append(CompanyRecord(company_id, raw["name"], gics,
                                     raw["description"], raw_filing_path))
    if not checked:
        raise CorpusFormatError(f"{source}: no records")
    return Corpus(checked, hierarchy)


def load_corpus(path: str | Path, hierarchy_path: str | Path) -> Corpus:
    """Load a JSONL corpus, each record checked against a hierarchy table
    as ``corpus_from_records`` checks it."""
    hierarchy = GicsHierarchy.from_csv(hierarchy_path)
    with Path(path).open(encoding="utf-8") as fh:
        return corpus_from_records(_json_lines(fh), hierarchy, path)


def _json_lines(fh) -> Iterator[tuple[int, object]]:
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            yield line_no, json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"invalid JSON ({e.msg})", line=line_no) from None


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write records as JSONL; round-trips through load_corpus."""
    with replacing(path) as fh:
        for r in corpus:
            obj = {
                "company_id": r.company_id,
                "name": r.name,
                "gics": r.gics.to_dict(),
                "description": r.description,
            }
            if r.raw_filing_path is not None:
                obj["raw_filing_path"] = r.raw_filing_path
            fh.write(json.dumps(obj) + "\n")


@dataclass
class StratifiedSplit:
    """Disjoint, exhaustive train/test id partition."""

    train_ids: list[str]
    test_ids: list[str]
    singleton_classes: list[str]


def stratified_split(
    corpus: Corpus,
    labels: Mapping[str, str],
    test_fraction: float,
    seed: int,
) -> StratifiedSplit:
    """Per-class split: test count = round(n_c * test_fraction) clamped to
    [1, n_c - 1]. Classes with a single member go entirely to train and are
    reported in the result. Deterministic given the seed.
    """
    if len(corpus) == 0:
        raise DataValidationError("cannot split an empty corpus")
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    missing = [cid for cid in corpus.ids() if cid not in labels]
    if missing:
        raise DataValidationError(f"labels missing for ids: {missing[:5]}")

    by_class: dict[str, list[str]] = {}
    for cid in corpus.ids():
        by_class.setdefault(labels[cid], []).append(cid)

    rng = np.random.default_rng(seed)
    train: list[str] = []
    test: list[str] = []
    singletons: list[str] = []
    for cls in sorted(by_class):
        members = sorted(by_class[cls])
        n = len(members)
        if n == 1:
            singletons.append(cls)
            train.extend(members)
            continue
        n_test = min(max(round(n * test_fraction), 1), n - 1)
        order = rng.permutation(n)
        chosen = {members[i] for i in order[:n_test]}
        test.extend(m for m in members if m in chosen)
        train.extend(m for m in members if m not in chosen)
    if singletons:
        logger.warning(
            "stratified_split: %d singleton class(es) kept in train: %s",
            len(singletons), singletons,
        )
    return StratifiedSplit(sorted(train), sorted(test), singletons)


def generate_finetune_pairs(corpus: Corpus, seed: int) -> list[PairExample]:
    """For every company draw one positive partner from its own GICS industry
    and one negative partner from any other industry.

    Companies alone in their industry contribute only the negative pair (a
    warning is logged). Output is deterministic given the seed and balanced
    (2 * |corpus| pairs) whenever every industry has at least 2 members.
    """
    industry_of = corpus.gics_labels("industry")
    by_industry: dict[str, list[str]] = {}
    for cid in corpus.ids():
        by_industry.setdefault(industry_of[cid], []).append(cid)
    if len(by_industry) < 2:
        raise DataValidationError(
            "pair generation needs >= 2 distinct industries (no negative pairs possible)"
        )

    all_ids = corpus.ids()
    outside: dict[str, list[str]] = {
        ind: [cid for cid in all_ids if industry_of[cid] != ind] for ind in by_industry
    }
    rng = np.random.default_rng(seed)
    pairs: list[PairExample] = []
    singletons: list[str] = []
    for cid in all_ids:
        ind = industry_of[cid]
        same = [other for other in by_industry[ind] if other != cid]
        if same:
            partner = same[int(rng.integers(len(same)))]
            pairs.append(PairExample(cid, partner, 1))
        else:
            singletons.append(cid)
        others = outside[ind]
        partner = others[int(rng.integers(len(others)))]
        pairs.append(PairExample(cid, partner, 0))
    if singletons:
        logger.warning(
            "generate_finetune_pairs: %d company(ies) alone in their industry "
            "contribute only a negative pair: %s",
            len(singletons), singletons[:10],
        )
    return pairs


def save_pairs(pairs: list[PairExample], path: str | Path) -> None:
    write_rows(path, ["id_a", "id_b", "label"],
               ([p.id_a, p.id_b, p.label] for p in pairs), lineterminator="\r\n")

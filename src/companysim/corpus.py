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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import CorpusFormatError, DataValidationError, HierarchyError
from .textprep import clean_text

logger = logging.getLogger(__name__)

GICS_LEVELS = ("sector", "industry_group", "industry", "sub_industry")

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
        return cls(*(str(d[level]) for level in GICS_LEVELS))


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
        self._sub_parent: dict[str, str] = {}
        self._industry_parent: dict[str, str] = {}
        self._group_parent: dict[str, str] = {}
        for row in self.rows:
            if len(row) != 4 or not all(row):
                raise HierarchyError(f"hierarchy row must have 4 non-empty fields, got {row!r}")
            sector, group, industry, sub = row
            for table, child, parent, level in (
                (self._sub_parent, sub, industry, "sub_industry"),
                (self._industry_parent, industry, group, "industry"),
                (self._group_parent, group, sector, "industry_group"),
            ):
                if child in table and table[child] != parent:
                    raise HierarchyError(
                        f"{level} {child!r} mapped to both {table[child]!r} and {parent!r}"
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
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(GICS_LEVELS)
            writer.writerows(self.rows)

    def validate_labels(self, gics: GicsLabels) -> None:
        """Raise HierarchyError unless the 4-tuple is consistent with the table."""
        if gics.sub_industry not in self._sub_parent:
            raise HierarchyError(f"unknown GICS sub_industry {gics.sub_industry!r}")
        expect_industry = self._sub_parent[gics.sub_industry]
        if gics.industry != expect_industry:
            raise HierarchyError(
                f"sub_industry {gics.sub_industry!r} belongs to industry "
                f"{expect_industry!r}, not {gics.industry!r}"
            )
        expect_group = self._industry_parent[gics.industry]
        if gics.industry_group != expect_group:
            raise HierarchyError(
                f"industry {gics.industry!r} belongs to industry_group "
                f"{expect_group!r}, not {gics.industry_group!r}"
            )
        expect_sector = self._group_parent[gics.industry_group]
        if gics.sector != expect_sector:
            raise HierarchyError(
                f"industry_group {gics.industry_group!r} belongs to sector "
                f"{expect_sector!r}, not {gics.sector!r}"
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


def load_corpus(
    path: str | Path,
    hierarchy_path: str | Path,
    min_description_chars: int = 1,
) -> Corpus:
    """Load and validate a JSONL corpus against a hierarchy table.

    Rejects malformed records (with line number), duplicate company ids,
    GICS labels inconsistent with the hierarchy, and descriptions that clean
    down to fewer than ``min_description_chars`` characters.
    """
    hierarchy = GicsHierarchy.from_csv(hierarchy_path)
    path = Path(path)
    records: list[CompanyRecord] = []
    first_line: dict[str, int] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusFormatError(f"invalid JSON ({e.msg})", line=lineno) from None
            if not isinstance(raw, dict):
                raise CorpusFormatError("record must be a JSON object", line=lineno)
            missing = _REQUIRED_KEYS - raw.keys()
            if missing:
                raise CorpusFormatError(f"missing keys: {sorted(missing)}", line=lineno)
            unknown = raw.keys() - _RECORD_KEYS
            if unknown:
                raise CorpusFormatError(f"unknown keys: {sorted(unknown)}", line=lineno)
            company_id = str(raw["company_id"])
            if not company_id:
                raise CorpusFormatError("company_id must be non-empty", line=lineno)
            if company_id in first_line:
                raise CorpusFormatError(
                    f"duplicate company_id {company_id!r} "
                    f"(first seen on line {first_line[company_id]})",
                    line=lineno,
                )
            first_line[company_id] = lineno
            if not isinstance(raw["gics"], dict):
                raise CorpusFormatError("gics must be an object", line=lineno)
            try:
                gics = GicsLabels.from_dict(raw["gics"])
                hierarchy.validate_labels(gics)
            except DataValidationError as e:
                raise CorpusFormatError(f"company {company_id!r}: {e}", line=lineno) from None
            description = str(raw["description"])
            cleaned_len = len(clean_text(description))
            if cleaned_len < max(1, min_description_chars):
                raise CorpusFormatError(
                    f"company {company_id!r}: description cleans to {cleaned_len} chars "
                    f"(minimum {max(1, min_description_chars)})",
                    line=lineno,
                )
            records.append(
                CompanyRecord(
                    company_id=company_id,
                    name=str(raw["name"]),
                    gics=gics,
                    description=description,
                    raw_filing_path=raw.get("raw_filing_path"),
                )
            )
    return Corpus(records, hierarchy)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write records as JSONL; round-trips through load_corpus."""
    with Path(path).open("w", encoding="utf-8") as fh:
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

    def __iter__(self):
        return iter((self.train_ids, self.test_ids))


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
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "label"])
        for p in pairs:
            writer.writerow([p.id_a, p.id_b, p.label])


def load_pairs(path: str | Path) -> list[PairExample]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id_a", "id_b", "label"]:
            raise DataValidationError(f"{path}: expected header id_a,id_b,label, got {header}")
        return [PairExample(row[0], row[1], int(row[2])) for row in reader if row]

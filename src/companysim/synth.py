"""Synthetic corpus and return generator.

Builds a controllable stand-in for a real filing universe: six sectors,
each with two industries, where descriptions draw most of their words from
an industry-specific vocabulary and daily returns share sector and industry
factors. Embedding pipelines evaluated on this data have a known ground
truth: nearest neighbors should be same-industry, clusters should recover
sectors, and cluster dummies should explain the factor share of return
variance.

Run as a module to write a ready-to-use data directory:

    python -m companysim.synth --out-dir data --companies 300 --seed 7
"""

from __future__ import annotations

import argparse
import datetime as dt
import logging
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    CompanyRecord,
    Corpus,
    GicsHierarchy,
    GicsLabels,
    save_corpus,
)
from .similarity import ReturnPanel, save_returns_csv

logger = logging.getLogger(__name__)

# sector -> (industry -> vocabulary). Vocabularies are disjoint across
# sectors so the label signal in the text is unambiguous.
SECTOR_INDUSTRIES: dict[str, dict[str, list[str]]] = {
    "Energy": {
        "Oil Drilling": [
            "rig", "drilling", "wellhead", "crude", "barrels", "offshore",
            "onshore", "oilfield", "petroleum", "derrick", "fracking",
            "pipeline", "downhole", "wellbore", "seismic", "basin",
            "refinery", "upstream", "viscosity", "flaring",
        ],
        "Solar Power": [
            "photovoltaic", "solar", "panels", "inverters", "irradiance",
            "rooftop", "modules", "gigawatt", "polysilicon", "trackers",
            "renewables", "sunlight", "arrays", "microgrids", "installers",
            "heliostat", "insolation", "daylight", "racking", "stringers",
        ],
    },
    "Health Care": {
        "Pharmaceuticals": [
            "clinical", "trials", "compounds", "molecules", "oncology",
            "dosage", "formulation", "biotech", "therapeutics", "placebo",
            "efficacy", "pills", "vaccines", "antibodies", "enzymes",
            "genomics", "biomarkers", "prescriptions", "dosing", "immunology",
        ],
        "Medical Devices": [
            "implants", "catheters", "stents", "surgical", "diagnostics",
            "imaging", "orthopedic", "prosthetics", "sterilization",
            "cardiology", "monitors", "scalpels", "endoscopy", "pacemakers",
            "ultrasound", "biopsy", "sutures", "ventilators", "wearables",
            "defibrillators",
        ],
    },
    "Financials": {
        "Retail Banking": [
            "deposits", "branches", "mortgages", "checking", "savings",
            "lending", "tellers", "overdraft", "loans", "creditworthiness",
            "debit", "atms", "remittances", "payroll", "refinancing",
            "borrowers", "installment", "custodial", "statements", "escrow",
        ],
        "Insurance": [
            "premiums", "actuarial", "claims", "underwriting",
            "policyholders", "reinsurance", "annuities", "casualty",
            "coverage", "deductibles", "indemnity", "adjusters", "solvency",
            "catastrophe", "endorsements", "payouts", "mortality",
            "subrogation", "cedents", "retrocession",
        ],
    },
    "Information Technology": {
        "Enterprise Software": [
            "saas", "subscriptions", "cloud", "apis", "middleware",
            "deployments", "licensing", "workflow", "analytics",
            "dashboards", "integrations", "databases", "authentication",
            "devops", "microservices", "uptime", "provisioning",
            "orchestration", "telemetry", "sandboxing",
        ],
        "Semiconductors": [
            "fabrication", "lithography", "nanometer", "foundry", "chips",
            "transistors", "silicon", "etching", "photomask", "yields",
            "substrates", "gallium", "doping", "cleanroom", "tapeout",
            "asic", "fpga", "interconnects", "dies", "epitaxy",
        ],
    },
    "Consumer Staples": {
        "Packaged Foods": [
            "snacks", "beverages", "cereals", "flavors", "ingredients",
            "recipes", "grocery", "organic", "bakery", "condiments",
            "frozen", "dairy", "confectionery", "nutrition", "pantry",
            "sauces", "juices", "granola", "seasoning", "preservatives",
        ],
        "Household Products": [
            "detergents", "cleaners", "soaps", "tissues", "disinfectants",
            "laundry", "bleach", "fragrances", "toothpaste", "shampoo",
            "razors", "diapers", "wipes", "polish", "sponges", "deodorant",
            "lotion", "surfactants", "mops", "scrubbers",
        ],
    },
    "Utilities": {
        "Electric Utilities": [
            "transmission", "substations", "megawatts", "grid", "voltage",
            "transformers", "outages", "ratepayers", "tariffs", "turbines",
            "circuits", "metering", "amperage", "blackouts", "linemen",
            "peaking", "switchgear", "feeders", "kilowatt", "reclosers",
        ],
        "Water Utilities": [
            "reservoirs", "aquifers", "mains", "wastewater", "desalination",
            "filtration", "chlorination", "hydrants", "sewage", "stormwater",
            "purification", "groundwater", "watershed", "conduits",
            "potable", "effluent", "leakage", "sanitation", "flumes",
            "backflow",
        ],
    },
}

SECTOR_VOCAB: dict[str, list[str]] = {
    "Energy": [
        "energy", "fuels", "extraction", "commodity", "output", "fields",
        "production", "reserves",
    ],
    "Health Care": [
        "health", "patients", "medical", "hospitals", "treatment", "care",
        "doctors", "healing",
    ],
    "Financials": [
        "financial", "banking", "capital", "assets", "portfolios",
        "customers", "accounts", "funds",
    ],
    "Information Technology": [
        "technology", "software", "computing", "digital", "platforms",
        "developers", "innovation", "systems",
    ],
    "Consumer Staples": [
        "consumer", "brands", "retailers", "households", "shoppers",
        "staples", "supermarkets", "merchandise",
    ],
    "Utilities": [
        "utility", "infrastructure", "municipal", "regulated", "rates",
        "service", "networks", "maintenance",
    ],
}

FILLER_VOCAB: list[str] = [
    "company", "business", "operations", "revenue", "growth", "markets",
    "segments", "worldwide", "annual", "strategy", "management",
    "employees", "quality", "competitive", "expansion", "offerings",
    "initiatives", "stakeholders", "performance", "results",
]

INDUSTRY_SHARE = 0.5
SECTOR_SHARE = 0.2


def synthetic_hierarchy() -> GicsHierarchy:
    """Four-level chain with one industry group per sector and one
    sub-industry per industry."""
    rows = [
        (sector, f"{sector} Group", industry, f"{industry} Core")
        for sector, industries in SECTOR_INDUSTRIES.items()
        for industry in industries
    ]
    return GicsHierarchy(rows=rows)


def _industry_list() -> list[tuple[str, str]]:
    return [
        (sector, industry)
        for sector, industries in SECTOR_INDUSTRIES.items()
        for industry in industries
    ]


def make_synthetic_corpus(
    n_companies: int,
    seed: int = 0,
    words_per_description: int = 160,
) -> Corpus:
    """Companies assigned round-robin to the 12 industries; descriptions
    sample half industry vocabulary, a fifth sector vocabulary, and the
    rest generic filler."""
    if n_companies < 1:
        raise ValueError(f"n_companies must be >= 1, got {n_companies}")
    rng = np.random.default_rng(seed)
    industries = _industry_list()
    n_industry = max(1, round(words_per_description * INDUSTRY_SHARE))
    n_sector = max(1, round(words_per_description * SECTOR_SHARE))
    n_filler = max(1, words_per_description - n_industry - n_sector)
    # vocabularies as arrays once; rng.choice would convert a list per call
    industry_vocab = {
        industry: np.array(words)
        for vocabularies in SECTOR_INDUSTRIES.values()
        for industry, words in vocabularies.items()
    }
    sector_vocab = {sector: np.array(words) for sector, words in SECTOR_VOCAB.items()}
    filler_vocab = np.array(FILLER_VOCAB)
    records = []
    for i in range(n_companies):
        sector, industry = industries[i % len(industries)]
        words = np.concatenate([
            rng.choice(industry_vocab[industry], size=n_industry),
            rng.choice(sector_vocab[sector], size=n_sector),
            rng.choice(filler_vocab, size=n_filler),
        ])
        rng.shuffle(words)
        words = words.tolist()  # joining numpy str_ items is ~2x slower
        sentences = [
            " ".join(words[j:j + 12]) + "."
            for j in range(0, len(words), 12)
        ]
        records.append(CompanyRecord(
            company_id=f"C{i:04d}",
            name=f"Synthetic Company {i:04d}",
            gics=GicsLabels(
                sector=sector,
                industry_group=f"{sector} Group",
                industry=industry,
                sub_industry=f"{industry} Core",
            ),
            description=" ".join(sentences),
        ))
    return Corpus(records, synthetic_hierarchy())


def business_days(years: Sequence[int]) -> list[str]:
    """All weekdays of the given calendar years, ISO formatted."""
    out = []
    for year in sorted(set(years)):
        day = dt.date(year, 1, 1)
        while day.year == year:
            if day.weekday() < 5:
                out.append(day.isoformat())
            day += dt.timedelta(days=1)
    return out


def make_synthetic_returns(
    corpus: Corpus,
    years: Sequence[int],
    seed: int = 0,
    sector_share: float = 0.10,
    industry_share: float = 0.25,
    daily_vol: float = 0.02,
) -> ReturnPanel:
    """Daily returns = sector factor + industry factor + idiosyncratic noise.

    The shares split total variance, so two same-industry companies have
    expected correlation sector_share + industry_share, and same-sector
    cross-industry pairs only sector_share.
    """
    if sector_share < 0 or industry_share < 0 or sector_share + industry_share >= 1:
        raise ValueError("variance shares must be non-negative and sum below 1")
    dates = business_days(years)
    ids = corpus.ids()
    sectors = sorted({corpus.get(i).gics.sector for i in ids})
    industries = sorted({corpus.get(i).gics.industry for i in ids})
    sector_idx = np.array(
        [sectors.index(corpus.get(i).gics.sector) for i in ids])
    industry_idx = np.array(
        [industries.index(corpus.get(i).gics.industry) for i in ids])

    rng = np.random.default_rng(seed)
    sigma_sector = daily_vol * np.sqrt(sector_share)
    sigma_industry = daily_vol * np.sqrt(industry_share)
    sigma_idio = daily_vol * np.sqrt(1.0 - sector_share - industry_share)
    sector_factor = rng.normal(0.0, sigma_sector, (len(dates), len(sectors)))
    industry_factor = rng.normal(
        0.0, sigma_industry, (len(dates), len(industries)))
    idio = rng.normal(0.0, sigma_idio, (len(dates), len(ids)))
    returns = (
        sector_factor[:, sector_idx]
        + industry_factor[:, industry_idx]
        + idio
    )
    values = np.ascontiguousarray(returns.T)
    return ReturnPanel.from_arrays(
        ids, dates, values, np.ones(values.shape, dtype=bool))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m companysim.synth",
        description="Write a synthetic corpus, GICS hierarchy, and returns file.",
    )
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--companies", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--years", type=int, nargs="+", default=[2019])
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = make_synthetic_corpus(args.companies, seed=args.seed)
    save_corpus(corpus, out_dir / "corpus.jsonl")
    synthetic_hierarchy().to_csv(out_dir / "hierarchy.csv")
    panel = make_synthetic_returns(corpus, args.years, seed=args.seed)
    save_returns_csv(panel, out_dir / "returns.csv")
    print(f"wrote corpus.jsonl, hierarchy.csv, returns.csv to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

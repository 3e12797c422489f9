"""Run configuration: a strict JSON schema with defaults, plus the canonical
hash that report headers carry so outputs are traceable to their settings.

Unknown keys are rejected rather than ignored; a typo in a config file
should fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .corpus import GICS_LEVELS
from .errors import ConfigError

PROVIDER_CHOICES = ("hash-bow", "tfidf", "tfidf-rp", "remote")
CONTEXT_BUDGET_CHOICES = (512, 1024, 1536)


def _check_keys(data: Mapping, allowed: tuple[str, ...], section: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys in {section}: {unknown}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass but not an integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int_fields(section, name: str) -> None:
    """Every field declared ``int`` holds an integer; a range check alone
    would let 2.5 or true through."""
    for f in dataclasses.fields(section):
        if f.type == "int":
            _require(_is_int(getattr(section, f.name)),
                     f"{name}.{f.name} must be an integer")


@dataclass(frozen=True)
class EmbeddingConfig:
    provider: str = "tfidf"
    dimension: int = 256
    context_budget: int = 512
    window: int = 512
    tokens_per_word: float = 1.0
    max_features: int = 4096
    length_weighted: bool = False
    hash_seed: int = 0
    projection_seed: int = 0
    endpoint: str | None = None
    remote_provider_id: str | None = None
    timeout: float = 10.0
    retries: int = 2
    backoff: float = 0.25
    auth_env: str | None = None

    def __post_init__(self) -> None:
        _require_int_fields(self, "embedding")
        _require(self.provider in PROVIDER_CHOICES,
                 f"embedding.provider must be one of {PROVIDER_CHOICES}")
        _require(self.context_budget in CONTEXT_BUDGET_CHOICES,
                 f"embedding.context_budget must be one of {CONTEXT_BUDGET_CHOICES}")
        _require(self.dimension >= 2, "embedding.dimension must be >= 2")
        _require(self.window >= 1, "embedding.window must be >= 1")
        _require(self.tokens_per_word > 0, "embedding.tokens_per_word must be > 0")
        _require(self.max_features >= 1, "embedding.max_features must be >= 1")
        _require(isinstance(self.length_weighted, bool),
                 "embedding.length_weighted must be a boolean")
        _require(self.timeout > 0, "embedding.timeout must be > 0")
        _require(self.retries >= 0, "embedding.retries must be >= 0")
        _require(self.backoff >= 0, "embedding.backoff must be >= 0")
        if self.provider == "remote":
            _require(self.endpoint is not None,
                     "embedding.endpoint is required for the remote provider")
            _require(self.remote_provider_id is not None,
                     "embedding.remote_provider_id is required for the remote provider")


@dataclass(frozen=True)
class ClassifyConfig:
    level: str = "sector"
    l2_penalty: float = 1.0
    max_iter: int = 5000
    tol: float = 1e-6
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        _require_int_fields(self, "classify")
        _require(self.level in GICS_LEVELS,
                 f"classify.level must be one of {GICS_LEVELS}")
        _require(self.l2_penalty >= 0, "classify.l2_penalty must be >= 0")
        _require(self.max_iter >= 1, "classify.max_iter must be >= 1")
        _require(self.tol > 0, "classify.tol must be > 0")
        _require(0 < self.test_fraction < 1,
                 "classify.test_fraction must be in (0, 1)")


@dataclass(frozen=True)
class PeersConfig:
    k: int = 10
    min_overlap: int = 60
    years: tuple[int, ...] | None = None
    baseline_level: str = "sector"

    def __post_init__(self) -> None:
        _require_int_fields(self, "peers")
        _require(self.k >= 1, "peers.k must be >= 1")
        _require(self.min_overlap >= 2, "peers.min_overlap must be >= 2")
        _require(self.baseline_level in GICS_LEVELS,
                 f"peers.baseline_level must be one of {GICS_LEVELS}")
        if self.years is not None:
            _require(isinstance(self.years, (list, tuple))
                     and all(_is_int(y) for y in self.years),
                     "peers.years must be null or a list of integers")
            object.__setattr__(self, "years", tuple(self.years))


@dataclass(frozen=True)
class ClusterConfig:
    method: str = "kmeans"
    n_clusters: int = 6
    linkage: str = "average"
    metric: str = "euclidean"
    n_neighbors: int = 15
    n_init: int = 4
    reduce_method: str | None = None
    reduce_components: int = 50

    def __post_init__(self) -> None:
        _require_int_fields(self, "cluster")
        _require(self.method in ("kmeans", "agglomerative", "spectral", "random"),
                 "cluster.method must be kmeans, agglomerative, spectral, or random")
        _require(self.n_clusters >= 1, "cluster.n_clusters must be >= 1")
        _require(self.linkage in ("average", "complete", "ward"),
                 "cluster.linkage must be average, complete, or ward")
        _require(self.metric in ("euclidean", "cosine"),
                 "cluster.metric must be euclidean or cosine")
        _require(self.n_neighbors >= 1, "cluster.n_neighbors must be >= 1")
        _require(self.n_init >= 1, "cluster.n_init must be >= 1")
        _require(self.reduce_method in (None, "pca", "spectral"),
                 "cluster.reduce_method must be pca, spectral, or null")
        _require(self.reduce_components >= 1,
                 "cluster.reduce_components must be >= 1")


@dataclass(frozen=True)
class AttributionConfig:
    min_month_obs: int = 15
    winsorize: float | None = None
    min_companies: int = 2

    def __post_init__(self) -> None:
        _require_int_fields(self, "attribution")
        _require(self.min_month_obs >= 1,
                 "attribution.min_month_obs must be >= 1")
        if self.winsorize is not None:
            _require(0 < self.winsorize < 0.5,
                     "attribution.winsorize must be in (0, 0.5)")
        _require(self.min_companies >= 2,
                 "attribution.min_companies must be >= 2")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    peers: PeersConfig = field(default_factory=PeersConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    attribution: AttributionConfig = field(default_factory=AttributionConfig)


_SECTIONS: dict[str, type] = {
    "embedding": EmbeddingConfig,
    "classify": ClassifyConfig,
    "peers": PeersConfig,
    "cluster": ClusterConfig,
    "attribution": AttributionConfig,
}


def config_from_dict(data: Mapping) -> RunConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, ("seed",) + tuple(_SECTIONS), "the top level")
    kwargs: dict = {}
    if "seed" in data:
        if not isinstance(data["seed"], int) or isinstance(data["seed"], bool):
            raise ConfigError("seed must be an integer")
        kwargs["seed"] = data["seed"]
    for name, section_cls in _SECTIONS.items():
        if name not in data:
            continue
        section = data[name]
        if not isinstance(section, Mapping):
            raise ConfigError(f"config section {name!r} must be a JSON object")
        allowed = tuple(f.name for f in dataclasses.fields(section_cls))
        _check_keys(section, allowed, f"section {name!r}")
        try:
            kwargs[name] = section_cls(**section)
        except TypeError as e:
            raise ConfigError(f"bad config section {name!r}: {e}") from None
    return RunConfig(**kwargs)


def load_config(path: str | Path | None) -> RunConfig:
    """Defaults when no path is given; otherwise a strict parse."""
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    return config_from_dict(data)


def config_to_dict(config: RunConfig) -> dict:
    out = dataclasses.asdict(config)
    years = out["peers"]["years"]
    if years is not None:
        out["peers"]["years"] = list(years)
    return out


def config_hash(config: RunConfig) -> str:
    """Short stable digest of the full effective configuration."""
    canonical = json.dumps(
        config_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

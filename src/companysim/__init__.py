"""Company description embeddings with financial downstream evaluations:
GICS classification, peer return correlation, and cluster-based return
attribution."""

from .attribution import (
    AttributionFit,
    AttributionReport,
    adjusted_r_squared,
    attribution_metric,
    cross_sectional_fit,
    monthly_cumulative_returns,
    save_attribution_csv,
)
from .cache import export_jsonl, load_cache, save_cache, sync_cache
from .classify import (
    ClassificationReport,
    LogisticModel,
    evaluate,
    fit_classifier,
    load_model,
    predict,
    predict_proba,
    save_model,
    score_predictions,
    soft_class_distribution,
)
from .cluster import (
    ClusterAssignment,
    ClusterQuality,
    agglomerative,
    cluster_quality,
    cluster_sweep,
    kmeans,
    pca,
    random_cluster_assignment,
    reduce_dims,
    save_sweep_csv,
    spectral_cluster,
    spectral_embedding,
)
from .config import RunConfig, config_hash, load_config
from .corpus import (
    CompanyRecord,
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
from .embeddings import (
    EmbeddingMatrix,
    embed_corpus,
    pool_chunk_embeddings,
)
from .errors import (
    CacheFormatError,
    CompanySimError,
    ComputationError,
    ConfigError,
    CorpusFormatError,
    DataValidationError,
    HierarchyError,
    InsufficientOverlapError,
    ProviderError,
    RankDeficiencyError,
    RemoteProtocolError,
    RemoteStatusError,
    RemoteTransportError,
    SectionNotFoundError,
    SectionTooShortError,
    ZeroVarianceError,
    ZeroVectorError,
)
from .filings import extract_item1
from .providers import (
    EmbeddingProvider,
    HashBowProvider,
    RemoteProvider,
    TfidfModel,
    TfidfProvider,
    hash_bow_embed,
    remote_embed,
    tfidf_embed,
    tfidf_fit,
)
from .similarity import (
    CorrelationReport,
    ReturnPanel,
    avg_peer_correlation,
    gics_baseline_correlation,
    load_returns_csv,
    pairwise_return_correlation,
    pearson_correlation,
    save_returns_csv,
    sector_outlier_scores,
    top_k_peers,
)
from .textprep import (
    ChunkingConfig,
    TokenSequence,
    chunk,
    clean_text,
    prepare_chunks,
    tokenize,
    truncate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Company description embeddings with financial downstream evaluations:
GICS classification, peer return correlation, and cluster-based return
attribution."""

__version__ = "0.1.0"

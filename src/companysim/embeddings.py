"""Document embeddings via chunk-average pooling, and the aligned
id -> row matrix used by every downstream task."""

from __future__ import annotations

import logging
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataValidationError, ProviderError
from .providers import MAX_TEXTS_PER_REQUEST, EmbeddingProvider
from .textprep import ChunkingConfig, prepare_chunks

logger = logging.getLogger(__name__)


def pool_chunk_embeddings(
    chunk_vectors: np.ndarray,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Mean over chunk rows, accumulated in float64.

    With ``weights`` (e.g. chunk token counts) the mean is weighted, so a
    short final chunk no longer counts as much as a full one.
    """
    if chunk_vectors.ndim != 2 or chunk_vectors.shape[0] == 0:
        raise ValueError("need a non-empty (n_chunks, dimension) array")
    rows = chunk_vectors.astype(np.float64, copy=False)
    if weights is None:
        return np.mean(rows, axis=0)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (rows.shape[0],) or np.any(w <= 0):
        raise ValueError("weights must be positive, one per chunk")
    return (w[:, None] * rows).sum(axis=0) / w.sum()


def _pool_group(
    group: Sequence[tuple[str, list[int]]],
    rows: np.ndarray,
    provider: EmbeddingProvider,
    length_weighted: bool,
) -> list[np.ndarray]:
    """Pool the chunk rows of consecutive documents, each given as its id
    and the token count of each of its chunks; one vector per document."""
    n_chunks = sum(len(lengths) for _, lengths in group)
    if rows.shape != (n_chunks, provider.dimension):
        raise ProviderError(
            f"provider {provider.provider_id!r} returned shape {rows.shape} for "
            f"{n_chunks} chunks of {_where(group)}, declared dimension "
            f"{provider.dimension}"
        )
    vectors = []
    start = 0
    for _, lengths in group:
        end = start + len(lengths)
        vectors.append(pool_chunk_embeddings(rows[start:end],
                                             lengths if length_weighted else None))
        start = end
    return vectors


def _where(group: Sequence[tuple[str, list[int]]]) -> str:
    first, last = group[0][0], group[-1][0]
    return (f"document {first!r}" if len(group) == 1
            else f"documents {first!r} to {last!r}")


@dataclass
class EmbeddingMatrix:
    """Company ids aligned with float32 embedding rows.

    Stored as float32 so that the binary cache round-trip is bit-exact;
    similarity math upcasts to float64 where it matters.
    """

    ids: list[str]
    matrix: np.ndarray
    provider_id: str
    context_budget: int
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {self.matrix.shape}")
        if len(self.ids) != self.matrix.shape[0]:
            raise ValueError(
                f"{len(self.ids)} ids but {self.matrix.shape[0]} matrix rows"
            )
        self._index = {}
        for i, company_id in enumerate(self.ids):
            if company_id in self._index:
                raise ValueError(f"duplicate company id {company_id!r}")
            self._index[company_id] = i

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[1])

    def __contains__(self, company_id: str) -> bool:
        return company_id in self._index

    def index(self, company_id: str) -> int:
        if company_id not in self._index:
            raise KeyError(f"unknown company id {company_id!r}")
        return self._index[company_id]

    def row(self, company_id: str) -> np.ndarray:
        return self.matrix[self.index(company_id)]

    def subset(self, ids: Iterable[str]) -> "EmbeddingMatrix":
        """New matrix restricted to ``ids``, preserving the given order."""
        wanted = list(ids)
        rows = [self.index(company_id) for company_id in wanted]
        return EmbeddingMatrix(
            ids=wanted,
            matrix=self.matrix[rows].copy(),
            provider_id=self.provider_id,
            context_budget=self.context_budget,
        )


def corpus_documents(
    corpus: Corpus, config: ChunkingConfig, ids: Iterable[str] | None = None
) -> Iterator[tuple[str, list[list[str]]]]:
    """``(company_id, chunks)`` for each id (default: every company, in
    corpus order), each description prepared as it is reached. A document
    with no tokens after cleaning is a data error, not a zero vector: every
    row in an embedding matrix must come from actual text."""
    for company_id in corpus.ids() if ids is None else ids:
        chunks = prepare_chunks(corpus.get(company_id).description, config)
        if not chunks:
            raise DataValidationError(
                f"document {company_id!r} has no tokens after cleaning"
            )
        yield company_id, chunks


def _document_groups(
    documents: Iterable[tuple[str, list[list[str]]]],
) -> Iterator[list[tuple[str, list[list[str]]]]]:
    """Consecutive documents in groups of at most ``MAX_TEXTS_PER_REQUEST``
    chunks; a longer document is a group alone."""
    group: list[tuple[str, list[list[str]]]] = []
    n_chunks = 0
    for company_id, chunks in documents:
        if group and n_chunks + len(chunks) > MAX_TEXTS_PER_REQUEST:
            yield group
            group, n_chunks = [], 0
        group.append((company_id, chunks))
        n_chunks += len(chunks)
    if group:
        yield group


def embed_corpus(
    documents: Iterable[tuple[str, list[list[str]]]],
    provider: EmbeddingProvider,
    config: ChunkingConfig,
    length_weighted: bool = False,
) -> EmbeddingMatrix:
    """Embed ``(company_id, chunks)`` documents (see ``corpus_documents``)
    chunked with ``config``; rows follow the documents' order.

    The chunks of consecutive documents go to the provider together, so a
    remote provider makes one request per group instead of one per document.
    The provider pulls groups as it embeds them (``embed_batches``); an
    error in reading ``documents`` is raised after the groups before it are
    embedded, as if each group were embedded before the next is read.
    """
    ids: list[str] = []
    vectors: list[np.ndarray] = []
    total_chunks = 0
    # each group the provider has pulled and not yet embedded, without its
    # tokens: the provider may pull several groups ahead
    pulled: deque[list[tuple[str, list[int]]]] = deque()
    unreadable: list[Exception] = []

    def batches() -> Iterator[list[list[str]]]:
        try:
            for group in _document_groups(documents):
                pulled.append([(company_id, [len(c) for c in chunks])
                               for company_id, chunks in group])
                yield [c for _, chunks in group for c in chunks]
        except Exception as e:
            unreadable.append(e)

    with closing(provider.embed_batches(batches())) as embedded:
        while True:
            try:
                rows = next(embedded, None)
            except ProviderError:
                raise
            except Exception as e:
                raise ProviderError(
                    f"provider {provider.provider_id!r} failed on "
                    f"{_where(pulled[0])}: {e}"
                ) from e
            if rows is None:
                break
            group = pulled.popleft()
            ids.extend(company_id for company_id, _ in group)
            vectors.extend(_pool_group(group, rows, provider, length_weighted))
            total_chunks += len(rows)
    if unreadable:
        raise unreadable[0]
    logger.info(
        "embedded %d documents (%d chunks) with provider=%s budget=%d",
        len(ids), total_chunks, provider.provider_id, config.context_budget,
    )
    return EmbeddingMatrix(
        ids=ids,
        matrix=np.array(vectors, dtype=np.float32).reshape(len(ids), provider.dimension),
        provider_id=provider.provider_id,
        context_budget=config.context_budget,
    )

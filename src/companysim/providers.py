"""Chunk embedding providers: hashed bag-of-words, TF-IDF (with optional
random projection), and a generic remote HTTP endpoint.

The offline providers are deterministic given their seeds so the whole
evaluation pipeline can run reproducibly without model servers; their
provider ids are their config names (``hash-bow``, ``tfidf``,
``tfidf-rp``). The remote protocol is a single JSON POST:

    POST {endpoint}/embed
    request  {"provider_id": str, "texts": [str, ...]}
    response {"dimension": int, "embeddings": [[float, ...], ...]}

A request carries at most ``MAX_TEXTS_PER_REQUEST`` texts over its own
connection, made with the standard library (proxies from the environment).
Any non-200 status is a failure, and redirects are not followed; transport
errors, 408, 429 and 5xx are retried. An auth token can be injected from an
environment variable; it is sent as a Bearer header and never logged.

``RemoteProvider.embed_batches`` keeps up to ``MAX_REQUESTS_IN_FLIGHT``
requests outstanding, each sent by a pool thread that reads its answer
whole and closes the connection, and handles the answers in request
order: rows come back in order, each request is retried on its own, and
the error raised is the one of the earliest failed request, as if the
requests were sent one at a time. After a failure no new request
is sent; the at most ``MAX_REQUESTS_IN_FLIGHT - 1`` already out are waited
for and their answers discarded.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    RemoteProtocolError,
    RemoteStatusError,
    RemoteTransportError,
)

logger = logging.getLogger(__name__)

# Most texts one remote request carries; embed_corpus groups documents up to it.
MAX_TEXTS_PER_REQUEST = 64
# Most remote requests outstanding at once while batches are embedded.
MAX_REQUESTS_IN_FLIGHT = 4


class EmbeddingProvider:
    """Base chunk embedder. Instances are immutable after construction and
    safe for concurrent read-only use."""

    provider_id: str
    dimension: int

    def embed_chunks(self, chunks: Sequence[list[str]]) -> np.ndarray:
        """One float64 row of ``dimension`` values per chunk, in order."""
        raise NotImplementedError

    def embed_batches(self, batches: Iterable[Sequence[list[str]]]) -> Iterator[np.ndarray]:
        """``embed_chunks`` of each batch, in order; a batch is pulled from
        ``batches`` when the rows of the one before it have been yielded."""
        for chunks in batches:
            yield self.embed_chunks(chunks)


def hash_bow_embed(chunk: list[str], dimension: int, seed: int) -> np.ndarray:
    """Signed feature-hashing bag of words, L2-normalized unless all-zero.
    Each token's keyed BLAKE2b digest gives its bucket (first 8 bytes) and
    its sign (the 9th byte's low bit), the same in every process."""
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    import hashlib  # here, so stages that never hash skip OpenSSL

    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    vec = np.zeros(dimension, dtype=np.float64)
    for token in chunk:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9, key=key).digest()
        vec[int.from_bytes(digest[:8], "little") % dimension] += (
            1.0 if digest[8] & 1 else -1.0)
    _normalize(vec)
    return vec


def _normalize(vec: np.ndarray) -> None:
    """Divide a 1-d row by its L2 norm in place, unless the norm is 0."""
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm


class HashBowProvider(EmbeddingProvider):
    provider_id = "hash-bow"

    def __init__(self, dimension: int, seed: int = 0):
        if dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {dimension}")
        self.dimension = dimension
        self.seed = seed

    def embed_chunks(self, chunks: Sequence[list[str]]) -> np.ndarray:
        rows = [hash_bow_embed(c, self.dimension, self.seed) for c in chunks]
        return np.array(rows).reshape(len(chunks), self.dimension)


@dataclass
class TfidfModel:
    """Fitted vocabulary and inverse document frequencies."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    n_docs: int


def tfidf_fit(corpus_tokens: Sequence[Iterable[str]], max_features: int) -> TfidfModel:
    """Fit on document frequencies: the vocabulary keeps the ``max_features``
    most frequent tokens (ties broken lexicographically) with
    idf(t) = ln((1 + N) / (1 + df(t))) + 1.

    Each document is any iterable of its tokens, read once: only which
    tokens it holds counts, so a document's chunks give the same fit as its
    truncated token sequence.
    """
    if len(corpus_tokens) == 0:
        raise ValueError("tfidf_fit needs a non-empty corpus")
    if len(corpus_tokens) < 2:
        raise ValueError("tfidf_fit needs at least 2 documents")
    if max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")
    df: dict[str, int] = {}
    for doc in corpus_tokens:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    selected = sorted(df, key=lambda t: (-df[t], t))[:max_features]
    vocabulary = {token: i for i, token in enumerate(sorted(selected))}
    n = len(corpus_tokens)
    idf = np.array(
        [math.log((1 + n) / (1 + df[token])) + 1.0 for token in vocabulary],
        dtype=np.float64,
    )
    return TfidfModel(vocabulary=vocabulary, idf=idf, n_docs=n)


@lru_cache(maxsize=8)
def _gaussian_projection(n_features: int, dimension: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_features, dimension)) / math.sqrt(dimension)


def tfidf_embed(
    model: TfidfModel,
    chunk: list[str],
    projection: tuple[int, int] | None = None,
) -> np.ndarray:
    """tf*idf over the fitted vocabulary, L2-normalized; out-of-vocabulary
    tokens are ignored. With ``projection`` = (dimension, seed), the vector is
    passed through a seeded Gaussian random projection and re-normalized.
    """
    tf = np.zeros(len(model.vocabulary), dtype=np.float64)
    for token in chunk:
        idx = model.vocabulary.get(token)
        if idx is not None:
            tf[idx] += 1.0
    vec = tf * model.idf
    _normalize(vec)
    if projection is not None:
        dim, seed = projection
        vec = vec @ _gaussian_projection(len(model.vocabulary), dim, seed)
        _normalize(vec)
    return vec


class TfidfProvider(EmbeddingProvider):
    def __init__(
        self,
        model: TfidfModel,
        projection: tuple[int, int] | None = None,
    ):
        self.model = model
        self.projection = projection
        self.provider_id = "tfidf-rp" if projection else "tfidf"
        self.dimension = projection[0] if projection else len(model.vocabulary)

    @classmethod
    def fit(
        cls,
        corpus_tokens: Sequence[Iterable[str]],
        max_features: int = 4096,
        projection_dim: int | None = None,
        seed: int = 0,
    ) -> "TfidfProvider":
        model = tfidf_fit(corpus_tokens, max_features)
        projection = (projection_dim, seed) if projection_dim else None
        return cls(model, projection)

    def embed_chunks(self, chunks: Sequence[list[str]]) -> np.ndarray:
        """``tfidf_embed`` of each chunk, bit for bit: one ``bincount``
        counts the terms of the whole batch, and each row is normalized and
        projected on its own, since a matrix product may round a row
        differently from a vector product."""
        vocabulary = self.model.vocabulary
        n_terms = len(vocabulary)
        cells = [row * n_terms + idx
                 for row, chunk in enumerate(chunks)
                 for idx in map(vocabulary.get, chunk) if idx is not None]
        tf = np.bincount(np.array(cells, dtype=np.intp),
                         minlength=len(chunks) * n_terms)
        rows = tf.reshape(len(chunks), n_terms) * self.model.idf
        for vec in rows:
            _normalize(vec)
        if self.projection is None:
            return rows
        dim, seed = self.projection
        gaussian = _gaussian_projection(n_terms, dim, seed)
        projected = np.empty((len(chunks), dim))
        for vec, out in zip(rows, projected):
            out[:] = vec @ gaussian
            _normalize(out)
        return projected


def remote_embed(
    endpoint: str,
    provider_id: str,
    texts: Sequence[str],
    timeout: float = 10.0,
    retries: int = 2,
    backoff: float = 0.25,
    auth_env: str | None = None,
) -> list[np.ndarray]:
    """POST texts to {endpoint}/embed and return one vector per text, in order.

    Transport failures and 408, 429 and 5xx statuses are retried up to
    ``retries`` times with exponential backoff; any other non-200 status,
    a redirect included, is raised at once. Protocol violations (malformed
    body, count mismatch, dimension mismatch) are raised immediately as
    RemoteProtocolError with a machine-readable ``reason``.
    """
    if not texts:
        raise ValueError("remote_embed needs at least one text")
    target = _Target(endpoint, provider_id, auth_env, timeout)
    body = target.encode(texts)
    return _answer(lambda attempt: target.post(body),
                   target.url, len(texts), retries, backoff)


class _Target:
    """How texts are POSTed to one endpoint for one provider id: the
    ``/embed`` URL, the headers and one opener, shared by every request."""

    def __init__(self, endpoint: str, provider_id: str, auth_env: str | None,
                 timeout: float):
        # imported here so that commands which never embed remotely skip its cost
        import urllib.request

        self.url = endpoint.rstrip("/") + "/embed"
        self.provider_id = provider_id
        self.headers = {"Content-Type": "application/json"}
        if auth_env:
            token = os.environ.get(auth_env)
            if token:
                self.headers["Authorization"] = f"Bearer {token}"
        self.timeout = timeout

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None  # a 3xx then raises HTTPError, not a re-sent GET

        # the standard handlers, proxies from the environment included
        self.opener = urllib.request.build_opener(RefuseRedirects)

    def encode(self, texts: Sequence[str]) -> bytes:
        return json.dumps({"provider_id": self.provider_id,
                           "texts": list(texts)}).encode("utf-8")

    def post(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` over its own connection and read the answer whole:
        its status and content, or the status of an error answer with no
        content. A transport failure, in the body read too, raises
        RemoteTransportError."""
        import http.client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self.url, data=body, headers=self.headers,
                                         method="POST")
        try:
            with self.opener.open(request, timeout=self.timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as e:
            e.close()
            return e.code, b""
        except (OSError, http.client.HTTPException) as e:
            failure = f"POST {self.url} failed: {e}"
        raise RemoteTransportError(failure)


def _answer(
    post: Callable[[int], tuple[int, bytes]],
    url: str,
    n_texts: int,
    retries: int,
    backoff: float,
) -> list[np.ndarray]:
    """The vectors of one request, ``post(attempt)`` sending it once per attempt:
    transport failures, 408, 429 and 5xx are retried after a backoff of
    ``backoff * 2^(attempt-1)``, any other non-200 status is raised at
    once, and a 200 is parsed."""
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        if attempt > 0:
            delay = backoff * (2 ** (attempt - 1))
            logger.warning(
                "remote_embed retry %d/%d after %s (sleeping %.2fs)",
                attempt, retries, last_error, delay,
            )
            time.sleep(delay)
        try:
            status, content = post(attempt)
        except RemoteTransportError as e:
            last_error = e
            continue
        if status != 200:
            last_error = RemoteStatusError(
                f"POST {url} returned status {status}", status=status
            )
            if status in (408, 429) or 500 <= status <= 599:
                continue
            raise last_error
        return _parse_embed_response(content, n_texts, url)
    assert last_error is not None
    raise last_error


def _parse_embed_response(content: bytes, n_texts: int, url: str) -> list[np.ndarray]:
    try:
        body = json.loads(content)
    except ValueError:
        raise RemoteProtocolError(f"{url}: response is not JSON", reason="malformed_body") from None
    if not isinstance(body, dict) or "embeddings" not in body or "dimension" not in body:
        raise RemoteProtocolError(
            f"{url}: response must carry 'dimension' and 'embeddings'",
            reason="malformed_body",
        )
    embeddings = body["embeddings"]
    dimension = body["dimension"]
    if not isinstance(embeddings, list) or type(dimension) is not int or dimension < 1:
        raise RemoteProtocolError(f"{url}: malformed embeddings payload", reason="malformed_body")
    if len(embeddings) != n_texts:
        raise RemoteProtocolError(
            f"{url}: count mismatch, sent {n_texts} texts but received "
            f"{len(embeddings)} embeddings",
            reason="count_mismatch",
        )
    vectors: list[np.ndarray] = []
    for i, row in enumerate(embeddings):
        if not isinstance(row, list) or len(row) != dimension:
            raise RemoteProtocolError(
                f"{url}: embedding {i} has length {len(row) if isinstance(row, list) else '?'}"
                f", declared dimension is {dimension}",
                reason="dimension_mismatch",
            )
        # json.loads gives each number as exactly int or float; bool is an
        # int subclass, and is no number here
        if not all(type(v) is float or type(v) is int for v in row):
            raise RemoteProtocolError(
                f"{url}: embedding {i} holds an entry that is not a number",
                reason="malformed_body",
            )
        try:
            vec = np.asarray(row, dtype=np.float64)
            finite = bool(np.all(np.isfinite(vec)))
        except OverflowError:  # an integer beyond the float64 range
            finite = False
        if not finite:
            raise RemoteProtocolError(
                f"{url}: embedding {i} contains non-finite entries",
                reason="malformed_body",
            )
        vectors.append(vec)
    return vectors


class RemoteProvider(EmbeddingProvider):
    """Embeds chunks through the generic remote protocol, at most
    ``MAX_TEXTS_PER_REQUEST`` chunks per POST and at most
    ``MAX_REQUESTS_IN_FLIGHT`` POSTs outstanding."""

    def __init__(
        self,
        endpoint: str,
        provider_id: str,
        dimension: int,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.25,
        auth_env: str | None = None,
    ):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.endpoint = endpoint
        self.provider_id = provider_id
        self.dimension = dimension
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.auth_env = auth_env

    def embed_chunks(self, chunks: Sequence[list[str]]) -> np.ndarray:
        (rows,) = self.embed_batches([chunks])
        return rows

    def _requests(
        self, batches: Iterable[Sequence[list[str]]]
    ) -> Iterator[tuple[list[str], bool]]:
        """The texts of each request, and whether it ends its batch; a
        batch is pulled when the requests before it are sent."""
        for chunks in batches:
            if not chunks:
                raise ValueError("remote_embed needs at least one text")
            texts = [" ".join(c) for c in chunks]
            for start in range(0, len(texts), MAX_TEXTS_PER_REQUEST):
                yield (texts[start : start + MAX_TEXTS_PER_REQUEST],
                       start + MAX_TEXTS_PER_REQUEST >= len(texts))

    def embed_batches(self, batches: Iterable[Sequence[list[str]]]) -> Iterator[np.ndarray]:
        """The rows of each batch, in order, with up to
        ``MAX_REQUESTS_IN_FLIGHT`` requests outstanding.

        A pool thread sends each request once and reads its answer whole.
        This generator encodes each request as a thread comes free, and
        retries (``_answer``, each request on its own) and parses the
        answers in request order, so rows, errors and the first error
        raised are those of sending one request at a time. On an error it
        waits for the requests still out, at most
        ``MAX_REQUESTS_IN_FLIGHT - 1``, and sends no more."""
        from concurrent.futures import ThreadPoolExecutor

        target = _Target(self.endpoint, self.provider_id, self.auth_env, self.timeout)
        requests = self._requests(batches)
        # (text count, ends batch, body, future of its first answer) of each request out
        window: deque = deque()
        vectors: list[np.ndarray] = []
        with ThreadPoolExecutor(MAX_REQUESTS_IN_FLIGHT,
                                thread_name_prefix="remote-embed") as pool:
            while True:
                while len(window) < MAX_REQUESTS_IN_FLIGHT:
                    request = next(requests, None)
                    if request is None:
                        break
                    texts, ends_batch = request
                    body = target.encode(texts)
                    window.append((len(texts), ends_batch, body,
                                   pool.submit(target.post, body)))
                if not window:
                    return
                n_texts, ends_batch, body, future = window.popleft()
                vectors.extend(_answer(
                    lambda attempt: target.post(body) if attempt else future.result(),
                    target.url, n_texts, self.retries, self.backoff,
                ))
                if ends_batch:
                    yield self._stacked(vectors)
                    vectors = []

    def _stacked(self, vectors: list[np.ndarray]) -> np.ndarray:
        out = np.vstack(vectors)
        if out.shape[1] != self.dimension:
            raise RemoteProtocolError(
                f"endpoint returned dimension {out.shape[1]}, "
                f"provider declared {self.dimension}",
                reason="dimension_mismatch",
            )
        return out

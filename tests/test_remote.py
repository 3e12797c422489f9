import gc
import json
import math
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from companysim.embeddings import corpus_documents, embed_corpus
from companysim.errors import (
    RemoteProtocolError,
    RemoteStatusError,
    RemoteTransportError,
)
from companysim.providers import MAX_TEXTS_PER_REQUEST, RemoteProvider, remote_embed
from companysim.textprep import prepare_chunks


def vector_for(text):
    """Deterministic per-text stub embedding, independent of batch order."""
    return [float(len(text)), float(ord(text[0])), float(sum(map(ord, text)) % 97)]


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.log.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "body": body,
        })
        action = self.server.script.pop(0) if self.server.script else ("ok",)
        kind = action[0]
        if kind == "status":
            self.send_response(action[1])
            self.end_headers()
            return
        if kind == "redirect":
            self.send_response(action[1])
            self.send_header("Location", "/embed")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if kind == "hangup":  # close the connection without an answer
            return
        if kind == "sleep":
            time.sleep(action[1])
            kind = "ok"
        if kind == "raw":
            payload = action[1]
        elif kind in ("ok", "truncate"):
            vectors = [vector_for(t) for t in body.get("texts", [])]
            payload = json.dumps({"dimension": 3, "embeddings": vectors}).encode()
        else:
            raise AssertionError(f"unknown stub action {kind}")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if kind == "truncate":  # half the promised body, then close
            payload = payload[: len(payload) // 2]
        self.wfile.write(payload)

    def do_GET(self):
        # logged so that a POST re-sent as a GET after a redirect shows
        self.server.log.append({"path": self.path, "method": "GET"})
        self.send_error(405)

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        # timed-out clients hang up mid-response; not a test failure
        pass


class Stub:
    def __init__(self):
        self.server = _QuietServer(("127.0.0.1", 0), _StubHandler)
        self.server.script = []
        self.server.log = []
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02},
            daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    @property
    def log(self):
        return self.server.log

    def script(self, *actions):
        self.server.script = list(actions)

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub():
    s = Stub()
    yield s
    s.close()


def test_vectors_returned_in_request_order(stub):
    texts = ["gamma processing", "al", "zeta zeta zeta", "beta"]
    vectors = remote_embed(stub.url, "stub-model", texts)
    assert len(vectors) == len(texts)
    for text, vec in zip(texts, vectors):
        assert vec.tolist() == vector_for(text)
    sent = stub.log[0]["body"]
    assert sent == {"provider_id": "stub-model", "texts": texts}
    assert stub.log[0]["path"] == "/embed"


def test_count_mismatch_raises_immediately(stub):
    payload = json.dumps({"dimension": 3,
                          "embeddings": [vector_for("a")]}).encode()
    stub.script(("raw", payload))
    with pytest.raises(RemoteProtocolError) as exc:
        remote_embed(stub.url, "m", ["a", "b"], retries=3, backoff=0.01)
    assert exc.value.reason == "count_mismatch"
    assert len(stub.log) == 1  # no retry on protocol errors


def test_per_row_dimension_mismatch(stub):
    payload = json.dumps({"dimension": 3,
                          "embeddings": [[1.0, 2.0], [1.0, 2.0, 3.0]]}).encode()
    stub.script(("raw", payload))
    with pytest.raises(RemoteProtocolError) as exc:
        remote_embed(stub.url, "m", ["a", "b"])
    assert exc.value.reason == "dimension_mismatch"


@pytest.mark.parametrize("payload", [
    b"this is not json",
    json.dumps({"embeddings": [[1.0]]}).encode(),
    json.dumps({"dimension": "three", "embeddings": [[1.0]]}).encode(),
    json.dumps({"dimension": 1, "embeddings": [[float("nan")]]}).encode(),
    json.dumps({"dimension": True, "embeddings": [[1.0]]}).encode(),
    json.dumps({"dimension": 2, "embeddings": [["1.5", "2"]]}).encode(),
    json.dumps({"dimension": 2, "embeddings": [[True, False]]}).encode(),
    json.dumps({"dimension": 1, "embeddings": [[[1, 2]]]}).encode(),
    json.dumps({"dimension": 2, "embeddings": [[1, None]]}).encode(),
    json.dumps({"dimension": 1, "embeddings": [[10 ** 400]]}).encode(),
    b'{"dimension": 1, "embeddings": [[1e400]]}',
])
def test_malformed_bodies(stub, payload):
    stub.script(("raw", payload))
    with pytest.raises(RemoteProtocolError) as exc:
        remote_embed(stub.url, "m", ["a"])
    assert exc.value.reason == "malformed_body"


def test_retry_then_success_on_server_error(stub):
    stub.script(("status", 500), ("ok",))
    vectors = remote_embed(stub.url, "m", ["hello"], retries=2, backoff=0.01)
    assert vectors[0].tolist() == vector_for("hello")
    assert len(stub.log) == 2


@pytest.mark.parametrize("status", [408, 429])
def test_retry_on_timeout_and_rate_limit_statuses(stub, status):
    stub.script(("status", status), ("ok",))
    vectors = remote_embed(stub.url, "m", ["hello"], retries=2, backoff=0.01)
    assert vectors[0].tolist() == vector_for("hello")
    assert len(stub.log) == 2


@pytest.mark.parametrize("status", [400, 401])
def test_client_errors_are_not_retried(stub, status):
    stub.script(("status", status), ("ok",))
    with pytest.raises(RemoteStatusError) as exc:
        remote_embed(stub.url, "m", ["a"], retries=2, backoff=0.01)
    assert exc.value.status == status
    assert len(stub.log) == 1


def test_status_error_after_exhausted_retries(stub):
    stub.script(("status", 503), ("status", 503), ("status", 503))
    with pytest.raises(RemoteStatusError) as exc:
        remote_embed(stub.url, "m", ["a"], retries=2, backoff=0.01)
    assert exc.value.status == 503
    assert len(stub.log) == 3  # initial try plus two retries


def test_timeout_becomes_transport_error(stub):
    stub.script(("sleep", 2.0), ("sleep", 2.0))
    with pytest.raises(RemoteTransportError):
        remote_embed(stub.url, "m", ["a"], timeout=0.2, retries=1, backoff=0.01)


@pytest.mark.parametrize("action", [("truncate",), ("hangup",)])
def test_broken_answers_are_retried_transport_errors(stub, action):
    stub.script(action)
    with pytest.raises(RemoteTransportError):
        remote_embed(stub.url, "m", ["a"], retries=0)
    assert len(stub.log) == 1
    stub.script(action, ("ok",))
    vectors = remote_embed(stub.url, "m", ["a"], retries=1, backoff=0.01)
    assert vectors[0].tolist() == vector_for("a")
    assert len(stub.log) == 3


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirects_are_not_followed(stub, status):
    stub.script(("redirect", status))
    with pytest.raises(RemoteStatusError) as exc:
        remote_embed(stub.url, "m", ["a"], retries=2, backoff=0.01)
    assert exc.value.status == status
    assert len(stub.log) == 1  # neither followed nor retried


def test_retried_status_leaves_no_socket_open(stub):
    stub.script(("status", 503), ("status", 503), ("ok",))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vectors = remote_embed(stub.url, "m", ["a"], retries=2, backoff=0.01)
        gc.collect()
    assert vectors[0].tolist() == vector_for("a")
    assert len(stub.log) == 3
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_connection_refused_becomes_transport_error():
    with pytest.raises(RemoteTransportError):
        remote_embed("http://127.0.0.1:9", "m", ["a"], timeout=0.2,
                     retries=0, backoff=0.01)


def test_auth_header_from_environment(stub, monkeypatch):
    monkeypatch.setenv("STUB_EMBED_TOKEN", "sekrit")
    remote_embed(stub.url, "m", ["a"], auth_env="STUB_EMBED_TOKEN")
    assert stub.log[0]["auth"] == "Bearer sekrit"
    monkeypatch.delenv("STUB_EMBED_TOKEN")
    remote_embed(stub.url, "m", ["a"], auth_env="STUB_EMBED_TOKEN")
    assert stub.log[1]["auth"] is None


def test_empty_text_list_rejected(stub):
    with pytest.raises(ValueError):
        remote_embed(stub.url, "m", [])


def test_remote_provider_embeds_chunks(stub):
    provider = RemoteProvider(stub.url, "stub-model", dimension=3)
    chunks = [["alpha", "beta"], ["gamma"]]
    out = provider.embed_chunks(chunks)
    assert out.shape == (2, 3)
    assert out[0].tolist() == vector_for("alpha beta")
    assert out[1].tolist() == vector_for("gamma")


def test_remote_provider_checks_declared_dimension(stub):
    provider = RemoteProvider(stub.url, "stub-model", dimension=7)
    with pytest.raises(RemoteProtocolError) as exc:
        provider.embed_chunks([["alpha"]])
    assert exc.value.reason == "dimension_mismatch"


def _predicted_requests(chunk_counts):
    """Requests made by grouping whole consecutive documents up to the cap,
    with a longer document split into requests of at most the cap."""
    requests, pending = 0, 0
    for n in chunk_counts:
        if pending and pending + n > MAX_TEXTS_PER_REQUEST:
            requests += math.ceil(pending / MAX_TEXTS_PER_REQUEST)
            pending = 0
        pending += n
    return requests + math.ceil(pending / MAX_TEXTS_PER_REQUEST)


@pytest.mark.parametrize("length_weighted", [False, True])
def test_embed_corpus_batches_documents_bit_exactly(
    stub, varied_corpus, varied_chunking, length_weighted
):
    provider = RemoteProvider(stub.url, "stub-model", dimension=3)
    matrix = embed_corpus(corpus_documents(varied_corpus, varied_chunking),
                          provider, varied_chunking,
                          length_weighted=length_weighted)
    chunks = [prepare_chunks(r.description, varied_chunking) for r in varied_corpus]
    sent = [entry["body"]["texts"] for entry in stub.log]
    assert all(len(texts) <= MAX_TEXTS_PER_REQUEST for texts in sent)
    assert len(sent) == _predicted_requests([len(c) for c in chunks])
    assert [t for texts in sent for t in texts] == [" ".join(c) for doc in chunks for c in doc]

    # one document per embed_corpus call: one group per request
    expected = np.vstack([
        embed_corpus(corpus_documents(varied_corpus, varied_chunking, [i]),
                     provider, varied_chunking,
                     length_weighted=length_weighted).matrix
        for i in varied_corpus.ids()
    ])
    assert np.array_equal(matrix.matrix, expected)


def test_embed_corpus_retries_a_failed_group(stub, varied_corpus, varied_chunking):
    provider = RemoteProvider(stub.url, "stub-model", dimension=3, backoff=0.01)
    documents = list(corpus_documents(varied_corpus, varied_chunking))
    clean = embed_corpus(documents, provider, varied_chunking)
    n_clean = len(stub.log)
    stub.script(("ok",), ("status", 503))
    retried = embed_corpus(documents, provider, varied_chunking)
    assert len(stub.log) - n_clean == n_clean + 1
    assert stub.log[n_clean + 1]["body"] == stub.log[n_clean + 2]["body"]
    assert np.array_equal(retried.matrix, clean.matrix)

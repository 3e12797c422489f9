import gc
import json
import math
import sys
import threading
import time
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from companysim import cli, providers, synth
from companysim.embeddings import corpus_documents, embed_corpus
from companysim.errors import (
    DataValidationError,
    RemoteProtocolError,
    RemoteStatusError,
    RemoteTransportError,
)
from companysim.providers import (
    MAX_REQUESTS_IN_FLIGHT,
    MAX_TEXTS_PER_REQUEST,
    RemoteProvider,
    remote_embed,
)
from companysim.textprep import ChunkingConfig, prepare_chunks


def vector_for(text):
    """Deterministic per-text stub embedding, independent of batch order."""
    return [float(len(text)), float(ord(text[0])), float(sum(map(ord, text)) % 97)]


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        server = self.server
        entry = {
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "body": body,
        }
        with server.changed:
            server.log.append(entry)
            server.open += 1
            server.max_open = max(server.max_open, server.open)
            if server.held:
                entry["release"] = threading.Event()
            server.changed.notify_all()
        try:
            if "release" in entry:
                assert entry["release"].wait(10), "held request never released"
            with server.changed:
                if "action" not in entry:
                    entry["action"] = server.script.pop(0) if server.script else ("ok",)
            self._answer(entry["action"], body)
        finally:
            with server.changed:
                server.open -= 1
                server.answered.append(entry)
                server.changed.notify_all()

    def _answer(self, action, body):
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
    """A local embedding service. Requests take their answers from
    ``script`` in arrival order (then "ok"). In held mode each request
    waits until the test releases it, so a test can see how many are open
    at once and answer them in any order."""

    def __init__(self):
        self.server = _QuietServer(("127.0.0.1", 0), _StubHandler)
        self.server.script = []
        self.server.log = []
        self.server.answered = []
        self.server.open = self.server.max_open = 0
        self.server.held = False
        self.server.changed = threading.Condition()
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02},
            daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    @property
    def log(self):
        return self.server.log

    @property
    def max_open(self):
        """The most requests open at once: received and not yet answered."""
        return self.server.max_open

    def script(self, *actions):
        self.server.script = list(actions)

    def hold(self):
        self.server.held = True

    def wait_for_requests(self, n, timeout=10.0):
        with self.server.changed:
            assert self.server.changed.wait_for(lambda: len(self.log) >= n, timeout)

    def release(self, entry, action=("ok",)):
        """Answer the held request of log ``entry`` with ``action`` and
        wait until the answer is sent."""
        entry["action"] = action
        entry["release"].set()
        with self.server.changed:
            assert self.server.changed.wait_for(
                lambda: any(e is entry for e in self.server.answered), 10)

    def release_all(self):
        """Leave held mode: every held request and every later one is answered."""
        with self.server.changed:
            self.server.held = False
            for entry in self.log:
                if "release" in entry:
                    entry["release"].set()

    def close(self):
        self.release_all()
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
    """Requests may reach the stub in any order within the window, so each
    is checked on its own and the texts as a multiset."""
    provider = RemoteProvider(stub.url, "stub-model", dimension=3)
    matrix = embed_corpus(corpus_documents(varied_corpus, varied_chunking),
                          provider, varied_chunking,
                          length_weighted=length_weighted)
    doc_texts = [[" ".join(c) for c in prepare_chunks(r.description, varied_chunking)]
                 for r in varied_corpus]
    sent = [entry["body"]["texts"] for entry in stub.log]
    assert Counter(t for texts in sent for t in texts) == Counter(
        t for texts in doc_texts for t in texts)
    assert all(len(texts) <= MAX_TEXTS_PER_REQUEST for texts in sent)
    assert len(sent) == _predicted_requests([len(t) for t in doc_texts])
    whole_runs = {
        tuple(t for texts in doc_texts[i:j] for t in texts)
        for i in range(len(doc_texts)) for j in range(i + 1, len(doc_texts) + 1)
    }
    split_parts = {
        tuple(texts[k : k + MAX_TEXTS_PER_REQUEST])
        for texts in doc_texts for k in range(0, len(texts), MAX_TEXTS_PER_REQUEST)
    }
    assert all(tuple(texts) in whole_runs | split_parts for texts in sent)

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
    entries = stub.log[n_clean:]
    assert len(entries) == n_clean + 1
    failed = [e for e in entries if e["action"] == ("status", 503)]
    assert len(failed) == 1
    sends = Counter(json.dumps(e["body"]) for e in entries)
    assert sends.pop(json.dumps(failed[0]["body"])) == 2
    assert set(sends.values()) == {1}
    assert np.array_equal(retried.matrix, clean.matrix)


class _Background:
    """``embed_corpus`` run on a thread, so that the test can answer the
    held requests; ``join`` returns its matrix or raises its error."""

    def __init__(self, provider, documents, chunking):
        self.outcome = {}
        self.thread = threading.Thread(target=self._run,
                                       args=(provider, documents, chunking))
        self.thread.start()

    def _run(self, provider, documents, chunking):
        try:
            self.outcome["matrix"] = embed_corpus(documents, provider, chunking)
        except Exception as e:
            self.outcome["error"] = e

    def join(self):
        self.thread.join(30)
        assert not self.thread.is_alive()
        if "error" in self.outcome:
            raise self.outcome["error"]
        return self.outcome["matrix"]


# 48 documents of 16 one-word chunks: 12 requests of 4 documents each; each
# row is the mean of the stub vectors of its document's chunks
WINDOW_DOCUMENTS = [(f"D{k:02d}", [[f"d{k}c{j}"] for j in range(16)]) for k in range(48)]
WINDOW_ROWS = np.array([np.mean([vector_for(c[0]) for c in chunks], axis=0)
                        for _, chunks in WINDOW_DOCUMENTS], dtype=np.float32)
CHUNKING = ChunkingConfig()


def _request(stub, k):
    """The log entry of the first send of request ``k`` of
    ``WINDOW_DOCUMENTS``: requests may reach the stub out of send order."""
    first_text = WINDOW_DOCUMENTS[4 * k][1][0][0]
    entries = [e for e in stub.log if e["body"]["texts"][0] == first_text]
    assert entries, f"request {k} not sent"
    return entries[0]


def _held_run(stub, **provider_options):
    stub.hold()
    provider = RemoteProvider(stub.url, "stub-model", dimension=3, **provider_options)
    run = _Background(provider, WINDOW_DOCUMENTS, CHUNKING)
    stub.wait_for_requests(MAX_REQUESTS_IN_FLIGHT)
    return run


def _no_client_left():
    """No pool thread of the provider is alive, and collecting garbage
    finds no socket left unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not [t for t in threading.enumerate() if t.name.startswith("remote-embed")]


def test_rows_keep_document_order_when_later_answers_arrive_first(stub):
    run = _held_run(stub)
    time.sleep(0.2)
    assert len(stub.log) == MAX_REQUESTS_IN_FLIGHT  # no fifth request while four are open
    assert stub.max_open == MAX_REQUESTS_IN_FLIGHT == 4
    first = [_request(stub, k) for k in range(MAX_REQUESTS_IN_FLIGHT)]
    for entry in reversed(first):
        stub.release(entry)
    stub.release_all()
    matrix = run.join()
    assert stub.server.answered[:4] == first[::-1]
    assert len(stub.log) == 12
    assert np.array_equal(matrix.matrix, WINDOW_ROWS)
    assert stub.max_open == MAX_REQUESTS_IN_FLIGHT
    _no_client_left()


def test_no_more_than_four_requests_are_open_at_once(stub):
    stub.script(*[("sleep", 0.02)] * 12)
    provider = RemoteProvider(stub.url, "stub-model", dimension=3)
    matrix = embed_corpus(WINDOW_DOCUMENTS, provider, CHUNKING)
    assert len(stub.log) == 12
    assert 1 < stub.max_open <= MAX_REQUESTS_IN_FLIGHT
    assert np.array_equal(matrix.matrix, WINDOW_ROWS)


def test_window_under_frequent_thread_switches(stub):
    provider = RemoteProvider(stub.url, "stub-model", dimension=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            matrix = embed_corpus(WINDOW_DOCUMENTS, provider, CHUNKING)
            assert np.array_equal(matrix.matrix, WINDOW_ROWS)
    finally:
        sys.setswitchinterval(interval)
    assert len(stub.log) == 36
    assert stub.max_open <= MAX_REQUESTS_IN_FLIGHT


def test_each_request_is_retried_on_its_own_with_the_same_backoff(stub, monkeypatch):
    delays = []
    real_sleep = time.sleep
    monkeypatch.setattr(time, "sleep", lambda s: (delays.append(s), real_sleep(s)))
    run = _held_run(stub, backoff=0.01)
    stub.release(_request(stub, 1), ("status", 503))
    stub.release(_request(stub, 0), ("status", 503))
    stub.release_all()
    matrix = run.join()
    assert delays == [0.01, 0.01]  # each request's first retry, not 0.01 then 0.02
    sends = Counter(json.dumps(e["body"]) for e in stub.log)
    assert [sends[json.dumps(_request(stub, k)["body"])] for k in range(4)] == [2, 2, 1, 1]
    assert sum(sends.values()) == len(sends) + 2 == 14
    assert np.array_equal(matrix.matrix, WINDOW_ROWS)


def test_broken_answers_in_the_window_are_retried(stub):
    """A pool thread reads each answer whole: a body cut short and a hang-up
    are transport errors of their own request, retried in request order."""
    run = _held_run(stub, backoff=0.01)
    stub.release(_request(stub, 1), ("truncate",))
    stub.release(_request(stub, 2), ("hangup",))
    stub.release_all()
    matrix = run.join()
    assert np.array_equal(matrix.matrix, WINDOW_ROWS)
    sends = Counter(json.dumps(e["body"]) for e in stub.log)
    assert [sends[json.dumps(_request(stub, k)["body"])] for k in range(4)] == [1, 2, 2, 1]
    assert sum(sends.values()) == len(sends) + 2 == 14
    _no_client_left()


def test_the_earlier_requests_error_wins(stub):
    run = _held_run(stub)
    stub.release(_request(stub, 1), ("status", 401))  # fails first in time
    stub.release(_request(stub, 0), ("status", 400))
    stub.release_all()
    with pytest.raises(RemoteStatusError) as exc:
        run.join()
    assert exc.value.status == 400
    _no_client_left()


@pytest.mark.parametrize("failing", [0, 2])
def test_a_failure_lets_at_most_three_more_requests_out(stub, failing):
    run = _held_run(stub)
    for k in range(failing):
        stub.release(_request(stub, k))
        stub.wait_for_requests(k + 1 + MAX_REQUESTS_IN_FLIGHT)
    stub.release(_request(stub, failing), ("status", 404))
    time.sleep(0.2)
    stub.release_all()
    with pytest.raises(RemoteStatusError) as exc:
        run.join()
    assert exc.value.status == 404
    assert len(stub.log) == failing + MAX_REQUESTS_IN_FLIGHT
    _no_client_left()


def _documents_then_bad_one():
    """Twenty documents, then a read error: the groups before it are four
    requests, and the fifth group is never complete."""
    yield from WINDOW_DOCUMENTS[:20]
    raise DataValidationError("document 'D20' has no tokens after cleaning")


def test_a_read_error_comes_after_the_groups_before_it(stub):
    provider = RemoteProvider(stub.url, "stub-model", dimension=3)
    with pytest.raises(DataValidationError, match="D20"):
        embed_corpus(_documents_then_bad_one(), provider, CHUNKING)
    assert len(stub.log) == 4
    assert all(e in stub.server.answered for e in stub.log)


def test_an_earlier_request_error_wins_over_a_read_error(stub):
    stub.script(("status", 400))
    provider = RemoteProvider(stub.url, "stub-model", dimension=3, retries=0)
    with pytest.raises(RemoteStatusError):
        embed_corpus(_documents_then_bad_one(), provider, CHUNKING)
    _no_client_left()


def test_transport_failures_leave_no_client_behind():
    provider = RemoteProvider("http://127.0.0.1:9", "m", dimension=3, timeout=0.2,
                              retries=0)
    with pytest.raises(RemoteTransportError):
        embed_corpus(WINDOW_DOCUMENTS, provider, CHUNKING)
    _no_client_left()


def test_resume_cache_is_byte_identical_to_one_request_at_a_time(
    stub, tmp_path, monkeypatch
):
    assert synth.main(["--out-dir", str(tmp_path), "--companies", "48",
                       "--seed", "7", "--years", "2021"]) == 0
    lines = (tmp_path / "corpus.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "first.jsonl").write_text("".join(lines[:20]))
    config = tmp_path / "remote.json"
    config.write_text(json.dumps({"embedding": {
        "provider": "remote", "endpoint": stub.url, "remote_provider_id": "m",
        "dimension": 3, "window": 8, "backoff": 0.01}}))

    def embed_then_resume(name):
        out = tmp_path / name
        for corpus, resume in (("first.jsonl", []), ("corpus.jsonl", ["--resume"])):
            # the first answer comes last, and one request is retried
            stub.script(("sleep", 0.05), ("ok",), ("status", 503))
            assert cli.main(["--config", str(config), "embed",
                             "--corpus", str(tmp_path / corpus),
                             "--hierarchy", str(tmp_path / "hierarchy.csv"),
                             "--out", str(out), *resume]) == 0
        return out.read_bytes(), (tmp_path / f"{name}.ids").read_bytes()

    windowed = embed_then_resume("windowed.bin")
    n_requests = len(stub.log)
    assert n_requests > 2 * (MAX_REQUESTS_IN_FLIGHT + 1)
    monkeypatch.setattr(providers, "MAX_REQUESTS_IN_FLIGHT", 1)
    assert embed_then_resume("serial.bin") == windowed
    assert len(stub.log) == 2 * n_requests

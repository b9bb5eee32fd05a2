import http.client
import json
import socket
import threading
import urllib.parse
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from phraseindex.alsh import AlshParams, build_alsh
from phraseindex.errors import ConfigError
from phraseindex.index import build_index, search_exact
from phraseindex.service import QueryEngine, infer_mode, make_server


@pytest.fixture(scope="module")
def engine(mini_corpus):
    index = build_index(mini_corpus)
    return QueryEngine(index, corpus=mini_corpus)


@pytest.fixture(scope="module")
def base_url(engine):
    server = make_server(engine, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post(url, payload, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


# -------------------------------------------------------------------- engine


def test_infer_mode():
    assert infer_mode(32, 16) == "lstm"
    assert infer_mode(64, 16) == "lstm_sa"
    with pytest.raises(ConfigError):
        infer_mode(48, 16)
    with pytest.raises(ConfigError):
        infer_mode(32, 0)


def test_dense_engine_without_word_vectors_fails_when_built(dense_index):
    with pytest.raises(ConfigError, match="--word-vectors"):
        QueryEngine(dense_index)


def test_engine_matches_direct_search(engine):
    question = "Who won Super Bowl 50?"
    answers, probes = engine.answer(question, top_k=3)
    assert probes is None
    hits = search_exact(engine.index, engine.encode_question(question), k_top=3)
    assert len(answers) == 3
    for a, h in zip(answers, hits):
        assert (a["doc_id"], a["s"], a["e"], a["score"]) == (
            h.span.doc_id, h.span.s, h.span.e, h.score,
        )
        assert a["text"] == engine.corpus.document(h.span.doc_id).span_text(h.span)


def test_engine_without_corpus_returns_null_text(engine):
    bare = QueryEngine(engine.index)
    answers, _ = bare.answer("who won", top_k=1)
    assert answers[0]["text"] is None


def test_engine_approx_needs_sidecar(engine):
    with pytest.raises(ConfigError, match="sidecar"):
        engine.answer("who won", approx=True)


def test_engine_approx_with_sidecar(mini_corpus, dense_index, toy_vectors):
    alsh = build_alsh(dense_index, AlshParams(bits_per_table=0, tables=1))
    rich = QueryEngine(
        dense_index, corpus=mini_corpus, alsh=alsh, word_vectors=toy_vectors
    )
    exact_answers, _ = rich.answer("q1", top_k=2)
    approx_answers, probes = rich.answer("q1", top_k=2, approx=True)
    assert probes == len(dense_index)
    assert approx_answers == exact_answers


# ------------------------------------------------------------------- service


def test_health_endpoint(base_url, engine):
    status, body = get(base_url + "/health")
    assert status == 200
    assert body == {"status": "ok", "candidates": len(engine.index)}


def test_query_endpoint_matches_engine(base_url, engine):
    status, body = post(base_url + "/query", {"question": "Who won Super Bowl 50?"})
    assert status == 200
    answers, probes = engine.answer("Who won Super Bowl 50?", top_k=1)
    assert body == {"answers": answers, "probes": probes}


def test_query_doc_restriction_and_top_k(base_url):
    status, body = post(
        base_url + "/query",
        {"question": "how long did totality last", "doc_id": 1, "top_k": 4},
    )
    assert status == 200
    assert len(body["answers"]) == 4
    assert all(a["doc_id"] == 1 for a in body["answers"])
    scores = [a["score"] for a in body["answers"]]
    assert scores == sorted(scores, reverse=True)


def test_unknown_paths_are_404(base_url):
    assert get(base_url + "/nope")[0] == 404
    assert post(base_url + "/run", {})[0] == 404


def test_malformed_bodies_are_400(base_url):
    url = base_url + "/query"
    status, body = post(url, None, raw=b"{not json")
    assert status == 400 and "malformed" in body["error"]
    assert post(url, ["not", "an", "object"])[0] == 400
    assert post(url, {})[0] == 400  # question missing
    assert post(url, {"question": 7})[0] == 400
    assert post(url, {"question": "x", "doc_id": "zero"})[0] == 400
    assert post(url, {"question": "x", "top_k": 0})[0] == 400
    assert post(url, {"question": "x", "top_k": "many"})[0] == 400
    assert post(url, {"question": "x", "approx": "yes"})[0] == 400


@pytest.mark.parametrize("field", ["doc_id", "top_k"])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_doc_id_and_top_k_are_400(base_url, field, flag):
    status, body = post(base_url + "/query", {"question": "x", field: flag})
    assert status == 400
    assert field in body["error"]


def test_engine_errors_surface_as_400(base_url):
    status, body = post(base_url + "/query", {"question": "x", "approx": True})
    assert status == 400
    assert "sidecar" in body["error"]


def test_concurrent_identical_queries_agree(base_url):
    payload = {"question": "Who won Super Bowl 50?", "top_k": 3}

    def one(_):
        return post(base_url + "/query", payload)

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(one, range(100)))
    assert all(status == 200 for status, _ in results)
    bodies = [json.dumps(body, sort_keys=True) for _, body in results]
    assert len(set(bodies)) == 1


def test_queries_share_one_kept_alive_connection(base_url):
    url = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        sockets = []
        for question in ("Who won Super Bowl 50?", "how long did totality last"):
            body = json.dumps({"question": question}).encode()
            conn.request("POST", "/query", body, {"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 200 and not reply.will_close
            assert json.loads(reply.read())["answers"]
            sockets.append(conn.sock)
        assert sockets[0] is not None and sockets[0] is sockets[1]
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["many", "-1"])
def test_bad_content_length_is_400_and_closes_the_connection(base_url, length):
    url = urllib.parse.urlsplit(base_url)
    with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode()
            + b'{"question": "x"}'
        )
        received = b""
        while chunk := sock.recv(4096):  # the server closing ends the loop
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert b"Connection: close" in head
    assert "malformed" in json.loads(body)["error"]

"""Query engine facade and the read-only HTTP service built on it.

The service exposes the loaded index over two endpoints:

    GET  /health -> {"status": "ok", "candidates": N}
    POST /query  <- {"question": str, "doc_id": int|null,
                     "top_k": int, "approx": bool}
                 -> {"answers": [{"doc_id", "s", "e", "text", "score"}],
                     "probes": int|null}

The index is immutable shared state, so any number of requests may run
concurrently. The CLI query command drives the same QueryEngine, which
keeps the two surfaces ranking-identical by construction.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from .alsh import AlshIndex, search_approx
from .corpus import tokenize
from .encode.dense import LSTM, LSTM_SA, compose_question
from .encode.tfidf import tfidf_question_encode
from .errors import ConfigError, EngineError
from .index import PhraseIndex, search_exact

if TYPE_CHECKING:
    from .corpus import Corpus
    from .encode.wordvectors import WordVectorTable

log = logging.getLogger("phraseindex.service")


def infer_mode(index_dim: int, word_dim: int) -> str:
    """Which composition produced an index: 2x word dim or 4x word dim."""
    if word_dim and index_dim == 2 * word_dim:
        return LSTM
    if word_dim and index_dim == 4 * word_dim:
        return LSTM_SA
    raise ConfigError(
        f"index dim {index_dim} is neither 2x nor 4x the word-vector dim {word_dim}"
    )


def question_encoder(index: PhraseIndex, word_vectors: "WordVectorTable | None" = None):
    """The question side of an index: (question_tokens, question_id) -> query.

    Sparse indexes carry their own term table and encode the tokens; dense
    indexes compose the precomputed channels stored under the question id.
    The returned function looks the encoders up in this module on every
    call, so wrapping them later also wraps encoders made earlier.
    """
    if index.kind == "sparse":
        return lambda tokens, question_id: tfidf_question_encode(tokens, index.idf)
    if word_vectors is None:
        raise ConfigError("a dense index encodes questions from --word-vectors; none given")
    mode = infer_mode(index.dim, word_vectors.dim)
    return lambda tokens, question_id: compose_question(word_vectors.question(question_id), mode)


class QueryEngine:
    """One loaded index plus whatever it needs to answer questions.

    A question string is tokenized for a sparse index and used as the
    question id for a dense one (see question_encoder). Answer text is
    rendered only when a corpus is attached; otherwise the text field is
    null.
    """

    def __init__(
        self,
        index: PhraseIndex,
        corpus: "Corpus | None" = None,
        alsh: AlshIndex | None = None,
        word_vectors: "WordVectorTable | None" = None,
    ):
        self.index = index
        self.corpus = corpus
        self.alsh = alsh
        self._encode = question_encoder(index, word_vectors)

    def encode_question(self, question: str):
        return self._encode(tokenize(question)[0], question)

    def answer(
        self,
        question: str,
        doc_id: int | None = None,
        top_k: int = 1,
        approx: bool = False,
    ) -> tuple[list[dict], int | None]:
        query = self.encode_question(question)
        if approx:
            if self.alsh is None:
                raise ConfigError("approximate search needs a built aLSH sidecar")
            hits, probes = search_approx(self.alsh, query, top_k, doc_id=doc_id)
        else:
            hits = search_exact(self.index, query, top_k, doc_id=doc_id)
            probes = None
        answers = []
        for hit in hits:
            text = None
            if self.corpus is not None:
                text = self.corpus.document(hit.span.doc_id).span_text(hit.span)
            answers.append(
                {
                    "doc_id": hit.span.doc_id,
                    "s": hit.span.s,
                    "e": hit.span.e,
                    "text": text,
                    "score": hit.score,
                }
            )
        return answers, probes


class _Handler(BaseHTTPRequestHandler):
    server: "QueryServer"
    # Keep-alive: a client reuses one connection (and one server thread) for
    # many queries. Without Nagle the body is not held back behind the
    # headers waiting for the client's delayed ACK.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        log.info("%s %s", self.address_string(), fmt % args)

    def _reply(self, status: int, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status != 200:
            # As send_error does: an error may be sent before the request body
            # was read, and the next request must not be parsed out of it.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/health":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        self._reply(200, {"status": "ok", "candidates": len(self.server.engine.index)})

    def do_POST(self):
        if self.path != "/query":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:  # read(-1) would wait for the client to close
                raise ValueError("negative Content-Length")
            request = json.loads(self.rfile.read(length).decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
            question = request.get("question")
            if not isinstance(question, str):
                raise ValueError("'question' must be a string")
            doc_id = request.get("doc_id")
            # bool is a subclass of int, but JSON true/false is no document or count
            if doc_id is not None and (isinstance(doc_id, bool) or not isinstance(doc_id, int)):
                raise ValueError("'doc_id' must be an integer or null")
            top_k = request.get("top_k", 1)
            if isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1:
                raise ValueError("'top_k' must be an integer >= 1")
            approx = request.get("approx", False)
            if not isinstance(approx, bool):
                raise ValueError("'approx' must be a boolean")
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"malformed request: {exc}"})
            return
        try:
            answers, probes = self.server.engine.answer(
                question, doc_id=doc_id, top_k=top_k, approx=approx
            )
        except EngineError as exc:
            self._reply(400, {"error": str(exc)})
            return
        except Exception:
            log.exception("query failed")
            self._reply(500, {"error": "internal error"})
            return
        self._reply(200, {"answers": answers, "probes": probes})


class QueryServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128  # burst-tolerant accept backlog
    engine: QueryEngine


def make_server(engine: QueryEngine, host: str = "127.0.0.1", port: int = 8080) -> QueryServer:
    server = QueryServer((host, port), _Handler)
    server.engine = engine
    return server


def serve(engine: QueryEngine, host: str = "127.0.0.1", port: int = 8080) -> None:
    """Run the service until interrupted."""
    server = make_server(engine, host, port)
    log.info("serving %d candidates on %s:%d", len(engine.index), *server.server_address)
    print(f"listening on http://{server.server_address[0]}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()

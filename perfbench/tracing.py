"""In-memory spans around calls into phraseindex's public functions.

A span is [name, start_ns, end_ns, parent, thread, attrs]; `parent` is the
index of the enclosing span on the same thread (None at top level). The
recorder patches module attributes, so every caller that looks a function
up through its module at call time - the benchmark itself, `evaluate`'s
deferred imports, the CLI and the service - goes through the wrapper.
Spans stay in memory and are written out once, when the process ends.
Attributes of a call (rows scored, peak memory) are worked out after its
span ends, inside a `trace.attrs` span of their own, so that the time they
take counts neither to the call nor to its caller's self time.
"""

from __future__ import annotations

import functools
import resource
import threading
import time

import numpy as np


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._targets: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attrs=None):
        """fn with a span around each call; name and attrs may be callables."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            label = name(args, kwargs) if callable(name) else name
            span = [label, time.perf_counter_ns(), 0, stack[-1] if stack else None,
                    threading.get_ident(), None]
            with rec._lock:
                rec.spans.append(span)
                stack.append(len(rec.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                extra = ["trace.attrs", time.perf_counter_ns(), 0, span[3], span[4], None]
                span[5] = attrs(args, kwargs, result)
                extra[2] = time.perf_counter_ns()
                with rec._lock:
                    rec.spans.append(extra)
            return result

        return traced

    def target(self, owner, attr: str, name, attrs=None) -> None:
        self._targets.append((owner, attr, name, attrs))

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, name, attrs in self._targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[list]:
        with self._lock:
            return [list(s) for s in self.spans]


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _search_name(args, kwargs) -> str:
    return "index.search_dense" if args[0].kind == "dense" else "index.search_sparse"


def _scored(args, kwargs, result) -> dict:
    """What search_exact scored: every row of the range on a dense index, and the
    posting entries of the query's terms that fall in the range on a sparse one."""
    index, doc_id = args[0], _arg(args, kwargs, 3, "doc_id")
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    if index.kind == "dense":
        return {"scored": hi - lo}
    scored = 0
    for term_id in _arg(args, kwargs, 1, "query").term_ids:
        group = index.postings.get(int(term_id))
        if group is not None:
            scored += int(np.searchsorted(group[0], hi) - np.searchsorted(group[0], lo))
    return {"scored": scored}


def _build_name(args, kwargs) -> str:
    encoder = _arg(args, kwargs, 1, "encoder", "tfidf")
    return "index.build_tfidf" if encoder == "tfidf" else "index.build_dense"


def _size_and_rss(args, kwargs, result) -> dict:
    return {"count": len(result), "peak_rss_mb": peak_rss_mb()}


def _rss(args, kwargs, result) -> dict:
    return {"peak_rss_mb": peak_rss_mb()}


def _probes(args, kwargs, result) -> dict:
    return {"probes": int(result[1])}


def phraseindex_recorder() -> Recorder:
    """A recorder with every public call the per-layer metrics need as a target."""
    from phraseindex import alsh, cli, corpus, evaluation, filtering, index, service
    from phraseindex.encode import dense, tfidf, wordvectors

    rec = Recorder()
    for owner in (corpus, cli):
        rec.target(owner, "load_squad", "corpus.load_squad")
    for owner in (wordvectors, cli):
        rec.target(owner, "read_word_vectors", "encode.wordvectors.read")
    rec.target(index, "build_index", _build_name, _size_and_rss)
    rec.target(index, "save_index", "index.save")
    for owner in (index, cli):
        rec.target(owner, "load_index", "index.load")
    for owner in (index, service):
        rec.target(owner, "search_exact", _search_name, _scored)
    rec.target(alsh, "build_alsh", "alsh.build", _rss)
    rec.target(alsh, "save_alsh", "alsh.save")
    for owner in (alsh, cli):
        rec.target(owner, "load_alsh", "alsh.load")
    for owner in (alsh, service):
        rec.target(owner, "search_approx", "alsh.search", _probes)
    rec.target(filtering, "train_filter", "filtering.train", _rss)
    for owner in (dense, service):
        rec.target(owner, "compose_question", "encode.question")
    for owner in (tfidf, service):
        rec.target(owner, "tfidf_question_encode", "encode.question")
    rec.target(evaluation, "evaluate", "evaluation.evaluate")
    rec.target(evaluation, "f1_em_single", "evaluation.f1_em")
    rec.target(service.QueryEngine, "answer", "service.answer")
    return rec

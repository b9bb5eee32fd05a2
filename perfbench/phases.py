"""Benchmark stage processes: `build`, `answer` and `serve`.

Usage: python3 perfbench/phases.py <stage> <config.json>

Each stage runs in a process of its own, so that its peak resident memory
is its own and its work never shares an interpreter with the load
generator; the benchmark starts a fresh one for every turn of a stage.
`build` and `answer` read one command per line on stdin, do it,
and answer with one JSON line on stdout that includes the peak memory so
far; on `exit` they write their peak memory and, when traced, their spans.
`serve` runs the `phraseindex serve` command and writes the same when the
server stops on SIGINT.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from phraseindex import alsh, cli, corpus, evaluation, filtering, index  # noqa: E402
from phraseindex.encode import dense, tfidf, wordvectors  # noqa: E402

from tracing import peak_rss_mb, phraseindex_recorder  # noqa: E402

SPARSE, DENSE, SIDECAR, FILTER = "sparse.idx", "dense.idx", "dense.idx.alsh", "dense.flt"


class Build:
    """setup: read the inputs; tfidf / dense: build and save those artifacts."""

    def __init__(self, cfg, rec):
        self.cfg = cfg
        self.out = lambda name: os.path.join(cfg["work"], name)

    def setup(self) -> dict:
        self.docs = corpus.load_squad(self.cfg["corpus"])
        self.vectors = wordvectors.read_word_vectors(self.cfg["word_vectors"])
        return {"words": self.docs.total_tokens}

    def tfidf(self) -> dict:
        built = index.build_index(self.docs, encoder="tfidf")
        index.save_index(built, self.out(SPARSE))
        return {"candidates": len(built)}

    def dense(self) -> dict:
        built = index.build_index(self.docs, encoder="lstm_sa", word_vectors=self.vectors)
        index.save_index(built, self.out(DENSE))
        sidecar = alsh.build_alsh(built)
        alsh.save_alsh(sidecar, self.out(SIDECAR))
        filtering.save_filter(filtering.train_filter(built, self.docs), self.out(FILTER))
        return {"candidates": len(built),
                "buckets": sum(len(table) for table in sidecar.buckets)}


class Answer:
    """setup: load every saved file; round: the three evaluate passes.

    A round runs each pass a number of times (repeats), so that the cheap
    passes get about as much measured time as the exact scan. The TF-IDF
    pass searches each question's document, or the whole corpus when the
    workload says so; over the whole corpus it costs about ten times as
    much, so it then runs once. In a traced run every evaluate call runs
    twice, once with the functions unwrapped and once wrapped, so that the
    tracing overhead is measured on identical work done at nearly the same
    moment. The order alternates from call to call, and `round 1` starts
    with the other order than `round 0`: over answer processes that take
    turns between the two, every call (the cold first one too) runs wrapped
    first as often as unwrapped first.
    """

    def __init__(self, cfg, rec):
        self.cfg, self.rec = cfg, rec
        self.repeats = {"exact": 1, "approx": 1, "sparse": 3 if cfg["restrict"] else 1}
        self.calls = 0

    def setup(self) -> dict:
        out = lambda name: os.path.join(self.cfg["work"], name)  # noqa: E731
        self.sparse = index.load_index(out(SPARSE))
        self.dense = index.load_index(out(DENSE))
        self.sidecar = alsh.load_alsh(out(SIDECAR), self.dense)
        self.docs = corpus.load_squad(self.cfg["corpus"])
        self.vectors = wordvectors.read_word_vectors(self.cfg["word_vectors"])
        return {}

    def _dense_question(self, ex):
        return dense.compose_question(self.vectors.question(ex.question_id), dense.LSTM_SA)

    def _sparse_question(self, ex):
        return tfidf.tfidf_question_encode(ex.question_tokens, self.sparse.idf)

    def round(self, flip: str) -> dict:
        passes = {
            "exact": (self.dense, self._dense_question, {"restrict_to_doc": False}),
            "approx": (self.dense, self._dense_question,
                       {"restrict_to_doc": False, "alsh": self.sidecar}),
            "sparse": (self.sparse, self._sparse_question,
                       {"restrict_to_doc": self.cfg["restrict"]}),
        }
        # s: the unwrapped time of every call, by pass; paired_s: [unwrapped, wrapped] totals.
        reply: dict = {"s": {}, "paired_s": [0.0, 0.0], "passes": {}}
        for name, (idx, encode, kwargs) in passes.items():
            reply["s"][name] = []
            for _ in range(self.repeats[name]):
                modes = (False, True)[:: -1 if (self.calls + int(flip)) % 2 else 1]
                modes = modes if self.rec else (False,)
                self.calls += 1
                for traced in modes:
                    if self.rec:
                        (self.rec.install if traced else self.rec.uninstall)()
                    rows: list = []
                    t0 = time.perf_counter()
                    metrics = evaluation.evaluate(idx, self.docs, encode, per_example=rows,
                                                  **kwargs)
                    elapsed = time.perf_counter() - t0
                    if not traced:
                        reply["s"][name].append(elapsed)
                    reply["paired_s"][traced] += elapsed
                    first = reply["passes"].setdefault(
                        name, {"f1": metrics.f1, "count": metrics.count, "rows": rows})
                    if rows != first["rows"]:
                        raise RuntimeError(f"pass {name} answered differently on repeat")
        return reply


def work_loop(stage_class, cfg) -> dict:
    rec = phraseindex_recorder() if cfg["trace"] else None
    if rec:
        rec.install()
    stage = stage_class(cfg, rec)
    for line in sys.stdin:
        command, *args = line.split()
        if command == "exit":
            break
        t0 = time.perf_counter()
        reply = getattr(stage, command)(*args)
        reply["elapsed_s"] = time.perf_counter() - t0
        reply["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(reply), flush=True)
    return {"peak_rss_mb": peak_rss_mb(), "spans": rec.dump() if rec else []}


def serve(cfg) -> dict:
    rec = phraseindex_recorder() if cfg["trace"] else None
    if rec:
        rec.install()
    # SIGINT stops the server even when this process inherited it ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    cli.main(["serve", "--index", os.path.join(cfg["work"], SPARSE),
              "--corpus", cfg["corpus"], "--port", "0"])
    return {"peak_rss_mb": peak_rss_mb(), "spans": rec.dump() if rec else []}


if __name__ == "__main__":
    stage_name, config_path = sys.argv[1], sys.argv[2]
    with open(config_path) as f:
        config = json.load(f)
    if stage_name == "serve":
        result = serve(config)
    else:
        result = work_loop({"build": Build, "answer": Answer}[stage_name], config)
    with open(config["result"], "w") as f:
        json.dump(result, f)

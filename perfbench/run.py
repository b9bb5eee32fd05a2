"""Seeded end-to-end benchmark of phraseindex: build, answer and serve.

Usage:
    python3 perfbench/run.py --workload squad|open --seed N --seconds S --trace 0|1

Every run goes through the whole pipeline on inputs generated from the
seed, each stage in a process of its own:

- build: read the corpus and the word-vector file, then build and save the
  TF-IDF index, the lstm_sa index, its aLSH sidecar and a trained filter;
- answer: load the saved files, then run three `evaluate` passes (dense
  exact and dense aLSH over the whole corpus, TF-IDF within each
  question's document or, in the `open` workload, over the whole corpus);
- serve: start `phraseindex serve` on the TF-IDF index and post a seeded
  request mix from two closed-loop clients.

After one first build, the stages take turns for --seconds, in whole
cycles. Every turn starts a fresh stage process, so every turn also yields
one set-up sample, and each stage's samples, set-up included, are spread
across the whole window rather than taken in one stretch of it. Every
output is then checked against the benchmark's own computations
(checks.py). The last line of stdout is one JSON object; with --trace 1 its
metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench")
FIXTURE = os.path.join(ROOT, "tests", "data", "mini_squad.json")
DEADLINE_S = 170.0
SERVE_SLICE_S = 2.0
# One cycle of the measuring window; the window is a whole number of cycles.
# Short turns spread every stage's samples across the window.
SCHEDULE = ("answer", "serve", "answer", "tfidf", "answer", "serve", "answer", "dense")
REQUESTS_PER_ROUND = 320
CLIENTS = 2
# restrict: the TF-IDF answer pass searches each question's document only.
# doc_share: the share of requests in the mix restricted to one document.
WORKLOADS = {
    "squad": {"restrict": True, "doc_share": 0.8},
    "open": {"restrict": False, "doc_share": 0.0},
}

sys.path.insert(0, os.path.join(ROOT, "src"))
if not os.path.isdir(os.path.join(ROOT, "src", "phraseindex")):
    sys.exit("perfbench: no src/phraseindex in this checkout")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from phases import DENSE, FILTER, SIDECAR, SPARSE  # noqa: E402

ARTIFACTS = (SPARSE, DENSE, SIDECAR, FILTER)


def note(message: str, since: float) -> None:
    print(f"# {message}: {time.perf_counter() - since:.2f} s", file=sys.stderr)


class Run:
    """The processes and files of one run; close() stops and removes them all."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.work = os.path.join(CACHE, f"run-{os.getpid()}")
        self.inputs = ""
        self.procs: list[subprocess.Popen] = []
        self.configs = 0

    def remaining(self) -> float:
        return max(5.0, DEADLINE_S - (time.perf_counter() - self.started))

    def spawn(self, stage: str, **popen) -> tuple[subprocess.Popen, str]:
        self.configs += 1
        result = os.path.join(self.work, f"{stage}-{self.configs}.json")
        config = os.path.join(self.work, f"{stage}-{self.configs}.config.json")
        with open(config, "w") as f:
            json.dump({"work": self.work, "trace": bool(self.args.trace), "result": result,
                       "restrict": WORKLOADS[self.args.workload]["restrict"],
                       "corpus": os.path.join(self.inputs, "corpus.json"),
                       "word_vectors": os.path.join(self.inputs, "wv.txt")}, f)
        # glibc's malloc thresholds fixed at the values its dynamic ones settle at (32 MiB
        # mmap, 64 MiB trim): whether a freed block returns to the system then no longer
        # depends on the sizes freed before it, so peak memory does not flip between runs.
        env = os.environ | {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
                            "MALLOC_TRIM_THRESHOLD_": str(64 << 20), "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "phases.py"), stage, config],
                                stdout=subprocess.PIPE, text=True, env=env, **popen)
        self.procs.append(proc)
        return proc, result

    def readline(self, proc: subprocess.Popen) -> str:
        ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"stage process {proc.args[2]} stopped answering")
        return line

    def finish(self, proc: subprocess.Popen, result: str) -> dict:
        try:
            proc.wait(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.procs.remove(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"stage process {proc.args[2]} exited with {proc.returncode}")
        with open(result) as f:
            return json.load(f)

    def close(self):
        for proc in self.procs:
            proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)


class Worker:
    """A build or answer stage process driven one command at a time."""

    def __init__(self, run: Run, stage: str):
        self.run = run
        self.proc, self.result = run.spawn(stage, stdin=subprocess.PIPE)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.run.readline(self.proc))

    def finish(self) -> dict:
        self.proc.stdin.write("exit\n")
        self.proc.stdin.close()
        return self.run.finish(self.proc, self.result)


class Server:
    """`phraseindex serve` in its own process; set-up ends at the first answer."""

    def __init__(self, run: Run, first: bytes):
        t0 = time.perf_counter()
        self.run = run
        self.proc, self.result = run.spawn("serve")
        line = ""
        while "listening on" not in line:
            line = run.readline(self.proc)
        self.port = int(line.rsplit(":", 1)[1])
        self.first = self.post(http.client.HTTPConnection("127.0.0.1", self.port, timeout=60),
                               first)
        self.setup_s = time.perf_counter() - t0

    @staticmethod
    def post(conn, body: bytes) -> tuple[int, bytes]:
        conn.request("POST", "/query", body, {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()

    def stop(self) -> dict:
        self.proc.send_signal(signal.SIGINT)
        return self.run.finish(self.proc, self.result)


class Traffic:
    """Two closed-loop clients posting the request mix in whole rounds."""

    def __init__(self, bodies: list[bytes]):
        self.bodies = bodies
        self.replies: dict[int, tuple[int, bytes]] = {}
        self.latency_ns: list[int] = []
        self.failed = 0
        self.mismatched: list[int] = []
        self.slices: list[tuple[int, float]] = []  # (requests served so far, seconds)
        self._lock = threading.Lock()

    def record(self, i: int, got: tuple[int, bytes]) -> None:
        with self._lock:
            self.failed += got[0] != 200
            if self.replies.setdefault(i, got) != got:
                self.mismatched.append(i)

    def slice(self, port: int, seconds: float) -> None:
        deadline = time.perf_counter() + seconds

        def client(worker: int):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            latencies, failed = [], 0
            while True:
                for i in range(worker, len(self.bodies), CLIENTS):
                    t0 = time.perf_counter_ns()
                    try:
                        got = Server.post(conn, self.bodies[i])
                    except (OSError, http.client.HTTPException):
                        conn.close()
                        failed += 1
                        continue
                    latencies.append(time.perf_counter_ns() - t0)
                    self.record(i, got)
                if time.perf_counter() >= deadline:
                    break
            conn.close()
            with self._lock:
                self.latency_ns += latencies
                self.failed += failed

        threads = [threading.Thread(target=client, args=(w,)) for w in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.slices.append((len(self.latency_ns), time.perf_counter() - t0))


def request_mix(truth: checks.Truth, seed: int, doc_share: float) -> list[dict]:
    """Questions restricted to their document (doc_share of them) or open-corpus,
    with varied top_k."""
    rng = np.random.Generator(np.random.Philox(key=int(seed) + (7 << 40)))
    mix = []
    for _ in range(REQUESTS_PER_ROUND):
        q = truth.questions[int(rng.integers(len(truth.questions)))]
        mix.append({"question": q.text, "qid": q.qid,
                    "doc_id": q.doc if rng.random() < doc_share else None,
                    "top_k": int(rng.choice([1, 2, 3, 5]))})
    return mix


def artifacts(work: str) -> tuple[int, str]:
    """Total bytes and a digest of every file the build stage writes."""
    digest = hashlib.sha256()
    size = 0
    for name in ARTIFACTS:
        with open(os.path.join(work, name), "rb") as f:
            data = f.read()
        size += len(data)
        digest.update(data)
    return size, digest.hexdigest()


def measure(run: Run, bodies: list[bytes]) -> dict:
    """One first build, then the stages take turns for --seconds."""
    m: dict = {"setup_s": {"build": [], "answer": [], "serve": []}, "tfidf_s": [], "dense_s": [],
               "pass_s": {"exact": [], "approx": [], "sparse": []}, "paired_s": [0.0, 0.0],
               "rounds": 0, "changed": [], "finished": [], "servers": [],
               "peak_mb": {"build": [], "answer": [], "serve": []}}
    traffic = m["traffic"] = Traffic(bodies)

    def finish(stage: str, result: dict) -> None:
        m["peak_mb"][stage].append(result["peak_rss_mb"])
        m["servers" if stage == "serve" else "finished"].append(result)

    def build_turn(*steps: str) -> dict:
        worker = Worker(run, "build")
        reply = worker.call("setup")
        m["setup_s"]["build"].append(reply["elapsed_s"])
        m.setdefault("words", reply["words"])
        for step in steps:
            reply = worker.call(step)
            m[f"{step}_s"].append(reply["elapsed_s"])
        finish("build", worker.finish())
        return reply

    def answer_turn() -> None:
        worker = Worker(run, "answer")
        m["setup_s"]["answer"].append(worker.call("setup")["elapsed_s"])
        reply = worker.call(f"round {m['rounds'] % 2}")
        m["paired_s"] = [a + b for a, b in zip(m["paired_s"], reply["paired_s"])]
        for name, seconds in reply["s"].items():
            m["pass_s"][name] += seconds
        first = m.setdefault("passes", reply["passes"])
        m["changed"] += [n for n, p in reply["passes"].items() if p["rows"] != first[n]["rows"]]
        m["rounds"] += 1
        finish("answer", worker.finish())

    def serve_turn() -> None:
        server = Server(run, bodies[0])
        m["setup_s"]["serve"].append(server.setup_s)
        traffic.record(0, server.first)
        traffic.slice(server.port, SERVE_SLICE_S)
        finish("serve", server.stop())

    t0 = time.perf_counter()
    reply = build_turn("tfidf", "dense")
    m["candidates"], m["buckets"] = reply["candidates"], reply["buckets"]
    m["bytes"], m["digest"] = artifacts(run.work)
    note("first build", t0)

    t0 = time.perf_counter()
    deadline = t0 + run.args.seconds
    turns = {"answer": answer_turn, "serve": serve_turn,
             "tfidf": lambda: build_turn("tfidf"), "dense": lambda: build_turn("dense")}
    m["cycles"] = 0
    while m["cycles"] == 0 or time.perf_counter() < deadline:
        m["cycles"] += 1
        for stage in SCHEDULE:
            turns[stage]()
    note("measuring window", t0)
    m["rebuilt_digest"] = artifacts(run.work)[1]
    return m


def verify(run: Run, truth: checks.Truth, m: dict, mix: list[dict]) -> dict:
    """Every check of checks.py on this run's outputs; returns what they measure."""
    from phraseindex import alsh, index
    from phraseindex.encode import tfidf

    rng = np.random.Generator(np.random.Philox(key=run.args.seed))
    checks.require(m["digest"] == m["rebuilt_digest"], "rebuilding changed the saved files")
    checks.require(not m["changed"], f"answer passes {sorted(set(m['changed']))} answered "
                                     "differently in another round")
    sparse_index = index.load_index(os.path.join(run.work, SPARSE))
    dense_index = index.load_index(os.path.join(run.work, DENSE))
    sidecar = alsh.load_alsh(os.path.join(run.work, SIDECAR), dense_index)
    for idx in (sparse_index, dense_index):
        checks.check_candidate_counts(truth, idx)
    checks.require(m["words"] == truth.words, "the program counted another number of words")
    checks.check_dense_rows(truth, dense_index, rng)
    checks.check_tfidf_weights(truth, sparse_index, tfidf.tfidf_question_encode,
                               index.search_exact, rng)
    passes = m["passes"]
    f1s = []
    for name in ("exact", "approx", "sparse"):
        f1s += checks.check_f1(truth, name, passes[name])
    checks.check_exact(truth, passes["exact"])
    checks.check_sparse(truth, passes["sparse"], WORKLOADS[run.args.workload]["restrict"])
    recall = checks.check_approx(truth, passes["approx"], sidecar, alsh.search_approx,
                                 len(dense_index))
    traffic = m["traffic"]
    checks.require(traffic.failed == 0, f"serve: {traffic.failed} requests failed")
    checks.require(not traffic.mismatched,
                   f"serve: requests {traffic.mismatched[:5]} answered differently on repeat")
    missing = [i for i in range(len(mix)) if i not in traffic.replies]
    checks.require(not missing, f"serve: requests {missing[:5]} never answered")
    golds = {q.qid: q.golds for q in truth.questions}
    for i, request in enumerate(mix):
        status, body = traffic.replies[i]
        reply = json.loads(body)
        checks.check_reply(truth, request, status, reply)
        f1s.append(checks.f1_score(reply["answers"][0]["text"], golds[request["qid"]]))
    return {"recall": recall, "f1": 100.0 * float(np.mean(f1s))}


def rate(work: float, seconds: list[float]) -> float:
    """Median work per second over the samples, one or more per turn: a burst of
    contention on the host that hits one turn does not move it."""
    return statistics.median(work / s for s in seconds)


def stage_rates(truth: checks.Truth, m: dict) -> dict:
    """Build and answer throughput per stage: every run measures them, but on a shared
    host they spread too far between runs to gate on, so they are reported with the
    per-layer metrics (README.md)."""
    words, questions = truth.words, len(truth.questions)
    return {
        "tfidf_build_words_per_s": (rate(words, m["tfidf_s"]), "words/s"),
        "dense_build_words_per_s": (rate(words, m["dense_s"]), "words/s"),
        "approx_qps": (rate(questions, m["pass_s"]["approx"]), "1/s"),
        "sparse_qps": (rate(questions, m["pass_s"]["sparse"]), "1/s"),
    }


def end_to_end(truth: checks.Truth, m: dict, checked: dict) -> dict:
    lat = np.array(m["traffic"].latency_ns, dtype=np.float64) / 1e6
    # Each serve turn's throughput and percentiles, then their median over the turns.
    ends = [0] + [end for end, _ in m["traffic"].slices]
    turns = [(lat[a:b], s) for a, b, (_, s) in zip(ends, ends[1:], m["traffic"].slices)]
    served = {"rps": [len(part) / s for part, s in turns],
              "p50": [np.percentile(part, 50) for part, _ in turns],
              "p90": [np.percentile(part, 90) for part, _ in turns]}
    served = {k: float(statistics.median(v)) for k, v in served.items()}
    setup = sum(statistics.median(times) for times in m["setup_s"].values())
    peak = max(max(peaks) for peaks in m["peak_mb"].values())
    values = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak, "MB"),
        "index_bytes_per_word": (m["bytes"] / truth.words, "B/word"),
        "exact_qps": (rate(len(truth.questions), m["pass_s"]["exact"]), "1/s"),
        "approx_recall_at_1": (checked["recall"], "%"),
        "answer_f1": (checked["f1"], "%"),
        "requests_per_s": (served["rps"], "1/s"),
        "latency_p50_ms": (served["p50"], "ms"),
        "latency_p90_ms": (served["p90"], "ms"),
    }
    print(f"# {m['cycles']} cycles: {len(lat)} HTTP samples, {m['rounds']} answer rounds, "
          f"{len(m['tfidf_s'])} + {len(m['dense_s'])} builds; set-ups (s) "
          + json.dumps({k: [round(t, 3) for t in v] for k, v in m["setup_s"].items()}),
          file=sys.stderr)
    print("# stage rates: " + json.dumps({k: v for k, (v, _) in stage_rates(truth, m).items()}),
          file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(run: Run, truth: checks.Truth, m: dict, mix: list[dict], wall: float) -> dict:
    import tracing
    from phraseindex import corpus, index, service

    # service.answer_ms: QueryEngine.answer in this process on the same request mix.
    engine = service.QueryEngine(index.load_index(os.path.join(run.work, SPARSE)),
                                 corpus=corpus.load_squad(os.path.join(run.inputs, "corpus.json")))
    rec = tracing.phraseindex_recorder()
    rec.install()
    try:
        for r in mix:
            engine.answer(r["question"], doc_id=r["doc_id"], top_k=r["top_k"])
    finally:
        rec.uninstall()
    procs = {"main": rec.dump()}
    for i, result in enumerate(m["finished"] + m["servers"]):
        procs[i] = result["spans"]
    spans = [(p, s) for p, ss in procs.items() for s in ss]

    def durations(name, proc=None):
        return [(s[2] - s[1]) / 1e9 for p, s in spans if s[0] == name and proc in (None, p)]

    def mean(name, scale=1.0, proc=None):
        d = durations(name, proc)
        checks.require(d, f"trace: no {name} span")
        return scale * float(np.mean(d))

    def attr(name, key, first=False):
        values = [s[5][key] for _, s in spans if s[0] == name]
        return values[0] if first else float(np.mean(values))

    def self_times(proc_spans):
        own = [(s[2] - s[1]) / 1e9 for s in proc_spans]
        for s in proc_spans:
            if s[3] is not None:
                own[s[3]] -= (s[2] - s[1]) / 1e9
        return own

    evaluate_self = top_self = 0.0
    for p, ss in procs.items():
        own = self_times(ss)
        evaluate_self += sum(o for o, s in zip(own, ss) if s[0] == "evaluation.evaluate")
        if p != "main":  # the stage processes' spans all fall within the measured wall time
            top_self += sum(o for o, s in zip(own, ss) if s[3] is None)
    checks.require(top_self <= wall, "trace: top-level spans exceed the workload's wall time")
    evaluated = len(durations("evaluation.evaluate")) * len(truth.questions)
    answer_ms = mean("service.answer", 1e3, "main")
    http_ms = float(np.mean(m["traffic"].latency_ns)) / 1e6

    def scored(kind):
        return float(np.mean([s[5]["scored"] for _, s in spans if s[0] == f"index.search_{kind}"]))

    values = {
        "corpus.load_squad_s": (mean("corpus.load_squad"), "s"),
        "encode.wordvectors.read_s": (mean("encode.wordvectors.read"), "s"),
        "index.build_tfidf_s": (mean("index.build_tfidf"), "s"),
        "index.build_dense_s": (mean("index.build_dense"), "s"),
        "index.save_s": (mean("index.save"), "s"),
        "index.candidates": (m["candidates"], "count"),
        "index.sparse_bytes": (os.path.getsize(os.path.join(run.work, SPARSE)), "B"),
        "index.dense_bytes": (os.path.getsize(os.path.join(run.work, DENSE)), "B"),
        "alsh.build_s": (mean("alsh.build"), "s"),
        "alsh.save_s": (mean("alsh.save"), "s"),
        "alsh.bytes": (os.path.getsize(os.path.join(run.work, SIDECAR)), "B"),
        "alsh.buckets": (m["buckets"], "count"),
        "filtering.train_s": (mean("filtering.train"), "s"),
        "index.build_dense_peak_rss_mb": (attr("index.build_dense", "peak_rss_mb", True), "MB"),
        "alsh.build_peak_rss_mb": (attr("alsh.build", "peak_rss_mb", True), "MB"),
        "filtering.train_peak_rss_mb": (attr("filtering.train", "peak_rss_mb", True), "MB"),
        "evaluation.peak_rss_mb": (max(m["peak_mb"]["answer"]), "MB"),
        "service.peak_rss_mb": (max(m["peak_mb"]["serve"]), "MB"),
        "index.load_s": (mean("index.load"), "s"),
        "alsh.load_s": (mean("alsh.load"), "s"),
        "encode.question_us": (mean("encode.question", 1e6), "us/q"),
        "index.search_dense_ms": (mean("index.search_dense", 1e3), "ms/q"),
        "index.rows_scored_per_q": (scored("dense"), "count"),
        "index.search_sparse_ms": (mean("index.search_sparse", 1e3), "ms/q"),
        "index.postings_scored_per_q": (scored("sparse"), "count"),
        "alsh.search_ms": (mean("alsh.search", 1e3), "ms/q"),
        "alsh.probes_per_q": (attr("alsh.search", "probes"), "count"),
        "evaluation.f1_em_us": (mean("evaluation.f1_em", 1e6), "us/q"),
        "evaluation.self_ms": (1e3 * evaluate_self / evaluated, "ms/q"),
        "service.answer_ms": (answer_ms, "ms/req"),
        "service.http_overhead_ms": (http_ms - answer_ms, "ms/req"),
        "trace.overhead_pct": (
            100.0 * (m["paired_s"][1] / m["paired_s"][0] - 1), "%"),
        "trace.span_share_pct": (100.0 * top_self / wall, "%"),
        **stage_rates(truth, m),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through run.close() so no stage process outlives the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    run = Run(args)
    os.makedirs(run.work, exist_ok=True)
    try:
        t0 = time.perf_counter()
        run.inputs = gen.inputs_for(args.seed, CACHE)
        checks.self_test(FIXTURE, run.work)
        with open(os.path.join(run.inputs, "corpus.json"), encoding="utf-8") as f:
            mix = request_mix(checks.Truth(json.load(f), None), args.seed,
                              WORKLOADS[args.workload]["doc_share"])
        bodies = [json.dumps({k: r[k] for k in ("question", "doc_id", "top_k")}).encode()
                  for r in mix]
        note("inputs and self-test", t0)
        t0 = time.perf_counter()
        m = measure(run, bodies)
        wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        truth = checks.load_truth(os.path.join(run.inputs, "corpus.json"),
                                  os.path.join(run.inputs, "truth.npz"))
        traffic = m["traffic"]
        evaluated = (1 + args.trace) * sum(map(len, m["pass_s"].values()))
        attempted = (sum(map(len, m["setup_s"].values())) + len(m["tfidf_s"]) + len(m["dense_s"])
                     + len(truth.questions) * evaluated + len(traffic.latency_ns) + traffic.failed)
        try:
            checked = verify(run, truth, m, mix)
            if args.trace:
                metrics = per_layer(run, truth, m, mix, wall)
            else:
                metrics = end_to_end(truth, m, checked)
            correct = True
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            metrics, correct = {}, False
        note("checks", t0)
    finally:
        run.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": traffic.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

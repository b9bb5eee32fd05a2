"""Release acceptance checks, one test per shipped guarantee.

Each test prints a single PASS or FAIL line naming the guarantee and the
measured numbers (or SKIP with instructions when an input this machine cannot
provide is missing), so

    python3 -m pytest -s -v tests/test_acceptance.py

reads as a checklist. Tolerances sit inline next to the assertions they bound.
"""

import json
import math
import os
import pathlib
import time

import numpy as np
import pytest

from phraseindex.alsh import AlshParams, build_alsh, load_alsh, save_alsh, search_approx
from phraseindex.candidates import CandidateSpan, span_count
from phraseindex.corpus import Corpus, Document, load_squad, tokenize
from phraseindex.encode.dense import candidate_nll, softmax
from phraseindex.encode.tfidf import IdfTable, SparseVector, tfidf_question_encode
from phraseindex.encode.wordvectors import toy_word_vector_table
from phraseindex.errors import FormatError
from phraseindex.evaluation import evaluate, f1_em_single
from phraseindex.filtering import (
    load_filter,
    save_filter,
    storage_estimate,
    sweep_thresholds,
    train_filter,
)
from phraseindex.index import (
    METADATA_DTYPE,
    PhraseIndex,
    bench_scan,
    build_index,
    load_index,
    save_index,
    search_exact,
    synthetic_dense_index,
)

from .oracles import compose_phrase_lstm, csr_postings, enumerate_spans, vectors_index
from .toyset import one_hot_setup

DATA = pathlib.Path(__file__).parent / "data"

SQUAD_DEV_HINT = (
    "download dev-v1.1.json (~5 MB) from "
    "https://rajpurkar.github.io/SQuAD-explorer/dataset/dev-v1.1.json and place it "
    "at tests/data/dev-v1.1.json, or point PIQA_SQUAD_DEV at it"
)


def _report(ok: bool, name: str, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _meta(counts):
    """Metadata with counts[d] length-1 spans (s, s) for document d."""
    rows = [(doc_id, s, s) for doc_id, c in enumerate(counts) for s in range(c)]
    arr = np.zeros(len(rows), dtype=METADATA_DTYPE)
    for i, row in enumerate(rows):
        arr[i] = row
    return arr


def _sixteenths(rng, shape):
    """Grid values whose float32 inner products are exact at dim <= 32."""
    return (rng.integers(-8, 9, size=shape) / 16.0).astype(np.float32)


def test_tfidf_pipeline_on_squad_dev_scores_in_band():
    path = os.environ.get("PIQA_SQUAD_DEV", str(DATA / "dev-v1.1.json"))
    if not os.path.exists(path):
        print(f"SKIP: squad-dev tf-idf quality band ({SQUAD_DEV_HINT})", flush=True)
        pytest.skip(f"dataset not present: {SQUAD_DEV_HINT}")
    corpus = load_squad(path)
    index = build_index(corpus, encoder="tfidf")
    metrics = evaluate(
        index, corpus, lambda ex: tfidf_question_encode(ex.question_tokens, index.idf)
    )
    problems = []
    if not 10.0 <= metrics.f1 <= 20.0:
        problems.append(f"f1 {metrics.f1:.2f} outside [10, 20]")
    if not 1.0 <= metrics.em <= 8.0:
        problems.append(f"em {metrics.em:.2f} outside [1, 8]")
    _report(
        not problems,
        "squad-dev tf-idf quality band",
        "; ".join(problems)
        or f"f1 {metrics.f1:.2f}, em {metrics.em:.2f} over {metrics.count} questions",
    )


def test_scan_throughput_meets_million_words_per_second():
    t0 = time.perf_counter()
    index = synthetic_dense_index(130_000, 1024, seed=2)
    best = None
    for _ in range(3):  # retries absorb scheduler preemption, not slow hardware
        result = bench_scan(index, num_queries=8)
        if best is None or result.words_per_second > best.words_per_second:
            best = result
        if best.words_per_second >= 1e6:
            break
    elapsed = time.perf_counter() - t0
    problems = []
    if best.words_per_second < 1e6:
        problems.append(f"best rate {best.words_per_second:.3g} words/s < 1e6")
    if elapsed >= 120.0:
        problems.append(f"build plus bench took {elapsed:.0f}s, budget 120s")
    _report(
        not problems,
        "scan throughput, reduced 130k x 1024 variant",
        "; ".join(problems)
        or (
            f"{best.words_per_second / 1e6:.2f}M words/s over {best.num_candidates} "
            f"candidates in {elapsed:.0f}s; the full 1.3M x 1024 variant needs ~5.3 GB "
            f"of RAM and is not attempted here"
        ),
    )


def test_storage_estimate_reports_exact_bytes_and_rounding():
    est = storage_estimate(1024, 4, 1.3, 3e9)
    problems = []
    if est.bytes_per_word != 5324.8:
        problems.append(f"bytes per word {est.bytes_per_word!r} != 5324.8")
    if est.total_bytes != 1.59744e13:
        problems.append(f"total bytes {est.total_bytes!r} != 1.59744e13")
    if est.bytes_per_word_text != "5.2 KB":
        problems.append(f"per-word text {est.bytes_per_word_text!r} != '5.2 KB'")
    if est.total_text != "15.6 TB":
        problems.append(f"total text {est.total_text!r} != '15.6 TB'")
    _report(
        not problems,
        "storage arithmetic, 1024-dim float32 at 1.3 vectors/word over 3e9 words",
        "; ".join(problems) or "5324.8 B/word = '5.2 KB', 1.59744e13 B = '15.6 TB'",
    )


def _random_doc_split(rng, n):
    counts = []
    left = n
    while left:
        take = int(rng.integers(1, left + 1))
        counts.append(take)
        left -= take
    return counts


def _check_against_oracle(index, query, matrix64, q64, k):
    """Compare search_exact against a float64 double-precision brute force.

    The oracle ranks by score descending, ordinal ascending; duplicated rows
    in the instances make the tie branch load-bearing.
    """
    hits = search_exact(index, query, k_top=k)
    scores = matrix64 @ q64
    order = np.lexsort((np.arange(len(scores)), -scores))
    want = [(int(o), float(scores[o])) for o in order[:k]]
    if len(hits) != len(want):
        return [f"got {len(hits)} hits, oracle has {len(want)}"], 0
    problems = []
    ties = len(scores) - len(np.unique(scores))
    for rank, (hit, (ordinal, score)) in enumerate(zip(hits, want)):
        if hit.span != index.span(ordinal):
            problems.append(f"rank {rank}: span {hit.span} != oracle {index.span(ordinal)}")
            break
        if abs(hit.score - score) > 1e-6 * max(abs(score), 1e-30):
            problems.append(f"rank {rank}: score {hit.score!r} vs oracle {score!r}")
            break
    return problems, int(ties)


def test_exact_search_matches_brute_force_oracle():
    problems = []
    tie_rows = 0

    for i in range(100):  # dense instances
        rng = np.random.Generator(np.random.Philox(key=1000 + i))
        n = int(rng.integers(1, 501))
        dim = int(rng.integers(1, 33))
        vectors = _sixteenths(rng, (n, dim))
        if n >= 4:  # duplicated rows force exact score ties
            dup = int(rng.integers(1, n // 2 + 1))
            vectors[rng.integers(0, n, size=dup)] = vectors[rng.integers(0, n, size=dup)]
        index = vectors_index(_meta(_random_doc_split(rng, n)), vectors)
        q = _sixteenths(rng, dim)
        k = int(rng.integers(1, n + 1))
        found, ties = _check_against_oracle(
            index, q, vectors.astype(np.float64), q.astype(np.float64), k
        )
        tie_rows += ties
        if found:
            problems.append(f"dense instance {i}: " + "; ".join(found))
            break

    for i in range(100):  # sparse instances
        rng = np.random.Generator(np.random.Philox(key=2000 + i))
        n = int(rng.integers(1, 501))
        terms = int(rng.integers(2, 33))
        matrix = np.zeros((n, terms), dtype=np.float64)
        mask = rng.random((n, terms)) < 0.4
        matrix[mask] = rng.integers(1, 9, size=int(mask.sum())) / 16.0
        postings = {}
        for t in range(terms):
            ords = np.flatnonzero(matrix[:, t]).astype(np.uint64)
            if len(ords):
                postings[t] = (ords, matrix[ords.astype(np.int64), t].astype(np.float64))
        index = PhraseIndex(
            "sparse",
            _meta(_random_doc_split(rng, n)),
            postings=csr_postings(postings, terms),
            idf=IdfTable(df={f"t{k:02d}": 1 for k in range(terms)}, num_documents=1),
        )
        nq = int(rng.integers(1, terms + 1))
        q_ids = np.sort(rng.choice(terms, size=nq, replace=False)).astype(np.int64)
        q_w = rng.integers(1, 9, size=nq) / 16.0
        q_dense = np.zeros(terms)
        q_dense[q_ids] = q_w
        k = int(rng.integers(1, n + 1))
        query = SparseVector(term_ids=q_ids, weights=q_w)
        found, ties = _check_against_oracle(index, query, matrix, q_dense, k)
        tie_rows += ties
        if found:
            problems.append(f"sparse instance {i}: " + "; ".join(found))
            break

    _report(
        not problems,
        "exact search vs brute-force oracle, 100 dense + 100 sparse instances",
        "; ".join(problems)
        or f"rankings, scores within 1e-6 relative, and {tie_rows} tied rows broken identically",
    )


def test_approximate_search_recall_probes_and_table_scaling():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=64))
    n, dim, num_queries = 10_000, 64, 200
    data = rng.normal(size=(n, dim))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    index = vectors_index(_meta([n]), data.astype(np.float32))
    picked = rng.choice(n, size=num_queries, replace=False)
    queries = data[picked] + 0.05 * rng.normal(size=(num_queries, dim))

    exact_winners = [search_exact(index, q, k_top=1)[0].span for q in queries]

    def recall_and_probes(tables):
        alsh = build_alsh(index, AlshParams(tables=tables))
        found = 0
        probe_counts = []
        for q, winner in zip(queries, exact_winners):
            hits, probed = search_approx(alsh, q, k_top=1)
            probe_counts.append(probed)
            if hits and hits[0].span == winner:
                found += 1
        return found / num_queries, float(np.mean(probe_counts))

    recall, mean_probes = recall_and_probes(32)
    recall_doubled, _ = recall_and_probes(64)
    elapsed = time.perf_counter() - t0

    problems = []
    if recall < 0.9:
        problems.append(f"recall@1 {recall:.3f} < 0.9 at 32 tables")
    if mean_probes >= 0.3 * n:
        problems.append(f"mean probes {mean_probes:.0f} >= {0.3 * n:.0f}")
    if recall_doubled < recall - 0.02:
        problems.append(
            f"doubling tables dropped recall {recall:.3f} -> {recall_doubled:.3f}"
        )
    _report(
        not problems,
        "approximate search on 10k 64-dim vectors, default hash parameters",
        "; ".join(problems)
        or (
            f"recall@1 {recall:.3f} at 32 tables -> {recall_doubled:.3f} at 64, "
            f"mean probes {mean_probes:.0f} of {n}, {elapsed:.0f}s"
        ),
    )


def test_filter_sweep_identity_monotonicity_and_csv(tmp_path):
    corpus, index, encode_question, _ = one_hot_setup()
    filt = train_filter(index, corpus, epochs=40)
    baseline = evaluate(index, corpus, encode_question)
    csv_path = tmp_path / "tradeoff.csv"
    curve = sweep_thresholds(
        index, filt, corpus, encode_question, num_points=5, csv_path=str(csv_path)
    )

    problems = []
    first = curve.points[0]
    if not (math.isinf(first.threshold) and first.threshold < 0):
        problems.append(f"first threshold {first.threshold!r} is not -inf")
    if (first.f1, first.em) != (baseline.f1, baseline.em):
        problems.append(
            f"identity point ({first.f1!r}, {first.em!r}) != "
            f"unfiltered ({baseline.f1!r}, {baseline.em!r})"
        )
    ratios = [p.vectors_per_word for p in curve.points]
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        problems.append(f"vectors per word not strictly decreasing: {ratios}")
    lines = csv_path.read_text().strip().splitlines()
    if lines[:1] != ["threshold,vectors_per_word,f1,em"] or len(lines) != len(curve.points) + 1:
        problems.append("curve csv missing or malformed")

    nearest = min(curve.points, key=lambda p: abs(p.vectors_per_word - 1.3))
    _report(
        not problems,
        "filter tradeoff: -inf identity, shrinking curve, csv",
        "; ".join(problems)
        or (
            f"identity f1 {first.f1:.1f} at {first.vectors_per_word:.1f} vectors/word; "
            f"for reference, f1 {nearest.f1:.1f} at {nearest.vectors_per_word:.2f} "
            f"vectors/word on this toy fixture (not a pass/fail bound)"
        ),
    )


def test_answer_metrics_match_reference_fixture():
    cases = json.loads((DATA / "metric_oracle.json").read_text())
    problems = []
    if len(cases) != 50:
        problems.append(f"fixture has {len(cases)} cases, expected 50")
    for i, case in enumerate(cases):
        f1, em = f1_em_single(case["prediction"], case["golds"])
        if abs(f1 - case["f1"]) > 1e-9 or em != case["em"]:
            problems.append(
                f"case {i}: got ({f1!r}, {em}), fixture ({case['f1']!r}, {case['em']})"
            )
    _report(
        not problems,
        "answer metrics vs 50-case reference fixture",
        "; ".join(problems[:3]) or "every case within 1e-9",
    )


def test_composition_math_properties():
    problems = []
    rng = np.random.Generator(np.random.Philox(key=88))

    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 65))
        scale = float(rng.choice([1.0, 10.0, 700.0]))
        worst = max(worst, abs(float(softmax(rng.normal(size=size) * scale).sum()) - 1.0))
    if worst > 1e-9:
        problems.append(f"softmax sum off by {worst:.2e} > 1e-9")

    h = 1e-5
    for i in range(100):
        num_candidates = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 9))
        cands = rng.normal(size=(num_candidates, dim))
        q = rng.normal(size=dim)
        gold = int(rng.integers(num_candidates))
        _, grad = candidate_nll(q, cands, gold)
        finite = np.empty(dim)
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = h
            up, _ = candidate_nll(q + step, cands, gold)
            down, _ = candidate_nll(q - step, cands, gold)
            finite[j] = (up - down) / (2.0 * h)
        if not np.allclose(grad, finite, rtol=1e-5, atol=1e-9):
            problems.append(f"nll gradient disagrees with central differences (instance {i})")
            break

    text = "one two three four five six"
    tokens, offsets = tokenize(text)
    corpus = Corpus(
        documents=[Document(0, text, tokens, offsets)],
        examples=[],
        vocab_df={t: 1 for t in tokens},
        num_documents=1,
    )
    channels = toy_word_vector_table(corpus, dim=6, seed=3).documents[0]
    for s in range(len(tokens)):
        v = compose_phrase_lstm(channels, CandidateSpan(0, s, s))
        if not np.array_equal(v[:6], v[6:]):
            problems.append(f"single-word span ({s},{s}) endpoint halves differ")
            break

    bad_counts = sum(
        span_count(m, L) != len(enumerate_spans(m, L))
        for m in range(51)
        for L in range(1, 11)
    )
    if bad_counts:
        problems.append(f"span count formula wrong on {bad_counts} (m, L) pairs")

    _report(
        not problems,
        "composition math: softmax sums, nll gradient, endpoint halves, span counts",
        "; ".join(problems)
        or (
            "softmax within 1e-9 on 100 draws, gradient within 1e-5 relative on 100 "
            "instances, halves identical, counts match for m <= 50 and L <= 10"
        ),
    )


def test_all_file_formats_round_trip_and_reject_corruption(
    tmp_path, dense_index, sparse_index
):
    problems = []
    loaders = {}

    for name, idx in (("dense index", dense_index), ("sparse index", sparse_index)):
        first = tmp_path / f"{name.split()[0]}.idx"
        save_index(idx, str(first))
        loaded = load_index(str(first))
        if loaded != idx:
            problems.append(f"{name}: loaded copy differs")
        second = tmp_path / f"{name.split()[0]}-resave.idx"
        save_index(loaded, str(second))
        if first.read_bytes() != second.read_bytes():
            problems.append(f"{name}: re-save is not byte identical")
        loaders[name] = (first, load_index)

    alsh = build_alsh(dense_index, AlshParams(bits_per_table=6, tables=4, seed=9))
    alsh_path = tmp_path / "side.alsh"
    save_alsh(alsh, str(alsh_path))
    loaded_alsh = load_alsh(str(alsh_path), dense_index)
    if loaded_alsh.params != alsh.params or not np.array_equal(
        loaded_alsh.hyperplanes, alsh.hyperplanes
    ):
        problems.append("alsh sidecar: loaded copy differs")
    resaved = tmp_path / "side-resave.alsh"
    save_alsh(loaded_alsh, str(resaved))
    if alsh_path.read_bytes() != resaved.read_bytes():
        problems.append("alsh sidecar: re-save is not byte identical")
    loaders["alsh sidecar"] = (alsh_path, lambda p: load_alsh(p, dense_index))

    corpus, toy_index, _, _ = one_hot_setup()
    filt = train_filter(toy_index, corpus, epochs=25)
    filter_path = tmp_path / "model.flt"
    save_filter(filt, str(filter_path))
    loaded_filter = load_filter(str(filter_path))
    if not (
        np.array_equal(loaded_filter.weights, filt.weights)
        and loaded_filter.bias == filt.bias
    ):
        problems.append("filter sidecar: loaded copy differs")
    refiltered = tmp_path / "model-resave.flt"
    save_filter(loaded_filter, str(refiltered))
    if filter_path.read_bytes() != refiltered.read_bytes():
        problems.append("filter sidecar: re-save is not byte identical")
    loaders["filter sidecar"] = (filter_path, load_filter)

    rejected = 0
    for name, (path, loader) in loaders.items():
        raw = path.read_bytes()
        for label, mutated in (
            ("flipped magic", bytes([raw[0] ^ 0xFF]) + raw[1:]),
            ("truncation", raw[: len(raw) // 2]),
            ("trailing byte", raw + b"\0"),
        ):
            bad = tmp_path / f"bad-{rejected}{path.suffix}"
            bad.write_bytes(mutated)
            try:
                loader(str(bad))
            except FormatError as exc:
                if not isinstance(exc.offset, int) or "byte offset" not in str(exc):
                    problems.append(f"{name}, {label}: error carries no byte offset")
                else:
                    rejected += 1
            else:
                problems.append(f"{name}, {label}: corrupted file loaded without error")

    _report(
        not problems,
        "file formats: byte-identical round trips, corruption rejected",
        "; ".join(problems)
        or f"dense, sparse, alsh, filter round-trip; {rejected} corruption cases rejected",
    )

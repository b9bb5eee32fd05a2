import math
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseindex import filtering
from phraseindex.candidates import CandidateSpan, span_bounds
from phraseindex.corpus import Corpus, Document, QAExample
from phraseindex.errors import FormatError, TrainingError
from phraseindex.evaluation import evaluate
from phraseindex.filtering import (
    PerceptronFilter,
    StorageEstimate,
    apply_filter,
    human_bytes,
    load_filter,
    save_filter,
    storage_estimate,
    sweep_thresholds,
    train_filter,
)
from phraseindex.index import METADATA_DTYPE, search_exact

from .oracles import gold_label_mask, sweep_points, train_filter_float64, vectors_index
from .test_index import make_meta, quantized, sparse_fixture
from .toyset import one_hot_setup


def labeled_corpus(num_tokens, gold_positions):
    doc = Document(0, "w " * num_tokens, ["w"] * num_tokens, [(0, 1)] * num_tokens)
    example = QAExample(
        "q", ["w"], 0, ["w"], [CandidateSpan(0, s, s) for s in gold_positions]
    )
    return Corpus([doc], [example], {"w": 1}, 1)


# ------------------------------------------------------------------ training


# Gold spans: some in the index, some filtered out or past a document's end,
# and some whose doc_id or e would wrap onto a stored span in a u32 / u16 field.
GOLD_SPAN = st.builds(
    lambda d, s, width: CandidateSpan(d, s, s + width),
    st.integers(0, 4) | st.integers(-1, 4).map(lambda d: d + 2**32),
    st.integers(-1, 12),
    st.integers(0, 8) | st.just(2**16),
)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    max_span_len=st.integers(1, 7),
    keep_seed=st.integers(0, 2**16),
    questions=st.lists(st.lists(GOLD_SPAN, max_size=4), min_size=1, max_size=6),
)
def test_gold_labels_match_the_per_ordinal_loop(lengths, max_span_len, keep_seed, questions):
    """The join labels what the loop labels; the first question's spans are
    asked again by one more question."""
    bounds = [span_bounds(n, max_span_len) for n in lengths]
    metadata = np.zeros(sum(len(b[0]) for b in bounds), dtype=METADATA_DTYPE)
    metadata["doc_id"] = np.repeat(np.arange(len(lengths)), [len(b[0]) for b in bounds])
    metadata["s"] = np.concatenate([b[0] for b in bounds])
    metadata["e"] = np.concatenate([b[1] for b in bounds])
    keep = np.random.Generator(np.random.Philox(key=keep_seed)).random(len(metadata)) < 0.7
    index = vectors_index(metadata[keep], np.zeros((keep.sum(), 1), np.float32))
    examples = [
        QAExample(f"q{i}", ["w"], spans[0].doc_id if spans else 0, ["w"], spans)
        for i, spans in enumerate(questions + questions[:1])
    ]
    corpus = Corpus(documents=[], examples=examples, vocab_df={}, num_documents=0)
    labels = filtering._gold_label_mask(index, corpus)
    assert labels.dtype == np.float64
    np.testing.assert_array_equal(labels, gold_label_mask(index, corpus))


def test_training_separates_separable_labels():
    n, dim = 40, 6
    golds = [3, 11, 27]
    rng = np.random.Generator(np.random.Philox(key=2))
    vectors = (0.05 * rng.normal(size=(n, dim))).astype(np.float32)
    vectors[:, 0] = -2.0
    vectors[golds, 0] = 2.0
    index = vectors_index(make_meta([n]), vectors)
    filt = train_filter(index, labeled_corpus(n, golds), epochs=50)
    scores = filt.score(index.vectors)
    assert (scores[golds] > 0).all()
    assert (np.delete(scores, golds) < 0).all()


def test_zero_epochs_returns_zero_filter():
    index = vectors_index(make_meta([10]), quantized((10, 4), 1))
    filt = train_filter(index, labeled_corpus(10, [2]), epochs=0)
    assert np.array_equal(filt.weights, np.zeros(4, dtype=np.float32))
    assert filt.bias == 0.0
    assert np.array_equal(filt.score(index.vectors), np.zeros(10))


def test_training_survives_heavy_class_imbalance():
    n, dim = 500, 8
    rng = np.random.Generator(np.random.Philox(key=4))
    vectors = (0.1 * rng.normal(size=(n, dim))).astype(np.float32)
    vectors[7] = 0.0
    vectors[7, 0] = 2.0
    index = vectors_index(make_meta([n]), vectors)
    filt = train_filter(index, labeled_corpus(n, [7]))
    scores = filt.score(index.vectors)
    assert np.isfinite(filt.weights).all() and math.isfinite(filt.bias)
    assert scores[7] > np.median(scores)


def test_training_requires_positives_and_dense_index():
    index = vectors_index(make_meta([10]), quantized((10, 4), 1))
    with pytest.raises(TrainingError, match="gold"):
        train_filter(index, labeled_corpus(10, []))
    sparse, _ = sparse_fixture()
    with pytest.raises(ValueError, match="dense"):
        train_filter(sparse, labeled_corpus(80, [1]))


def test_training_is_deterministic():
    n = 60
    vectors = quantized((n, 5), 9)
    index = vectors_index(make_meta([n]), vectors)
    corpus = labeled_corpus(n, [5, 20])
    a = train_filter(index, corpus, seed=3)
    b = train_filter(index, corpus, seed=3)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


# train_filter's float32 products against the oracle's float64 ones, on rows in
# [-1, 1]: the largest gap over 3,000 random cases was 4.8e-7.
WEIGHT_TOL = 1e-5
# Epochs whose held-out losses differ by less than this may swap as the best.
LOSS_TOL = 1e-6


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9) | st.integers(10, 40),  # below 10 rows nothing is held out
    dim=st.integers(1, 6),
    epochs=st.integers(0, 60),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_training_matches_the_float64_oracle(n, dim, epochs, seed, data):
    """In-place float32 training lands on the float64 oracle's weights, or on those
    of an epoch tying its best loss, and keeps and drops the same rows. The draws
    include splits whose training rows hold no gold span (trained on every row)."""
    cells = st.floats(-1, 1, width=32)
    values = data.draw(st.lists(cells, min_size=n * dim, max_size=n * dim), label="vectors")
    vectors = np.array(values, dtype=np.float32).reshape(n, dim)
    golds = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="golds"))
    index = vectors_index(make_meta([n]), vectors)
    corpus = labeled_corpus(n, golds)
    filt = train_filter(index, corpus, epochs=epochs, seed=seed)
    oracle, trajectory = train_filter_float64(index, corpus, epochs=epochs, seed=seed)

    def close(weights, bias):
        return np.allclose(filt.weights, weights, rtol=WEIGHT_TOL, atol=WEIGHT_TOL) and (
            math.isclose(filt.bias, bias, rel_tol=WEIGHT_TOL, abs_tol=WEIGHT_TOL)
        )

    best = min([loss for loss, _, _ in trajectory], default=math.inf)
    ties = [(w, b) for loss, w, b in trajectory if loss <= best + LOSS_TOL]
    assert close(oracle.weights, oracle.bias) or any(close(w, b) for w, b in ties)
    if close(oracle.weights, oracle.bias):  # the same rows score as positives
        scores, expected = filt.score(vectors), oracle.score(vectors)
        clear = np.abs(expected) > 1e-3  # far beyond the weights' rounding
        assert np.array_equal((scores >= 0)[clear], (expected >= 0)[clear])


# ------------------------------------------------------------------ applying


def ladder_index(n=100, dim=4):
    """Candidate i scores exactly i/16 under ladder_filter."""
    vectors = np.zeros((n, dim), dtype=np.float32)
    vectors[:, 0] = np.arange(n, dtype=np.float32) / 16.0
    return vectors_index(make_meta([n]), vectors)


def ladder_filter(dim=4):
    w = np.zeros(dim, dtype=np.float32)
    w[0] = 1.0
    return PerceptronFilter(weights=w, bias=0.0)


def test_scores_in_row_blocks_match_one_product():
    """Scoring 2,048-row blocks gives the bits of one float64 product over all
    rows. The row count is a multiple of 64, so each BLAS thread's share of a
    block and of the whole starts on a group boundary. The weights are float64:
    with float32 ones every product is exact and any blocking would match."""
    n, dim = 64 * 95, 256
    rng = np.random.Generator(np.random.Philox(key=5))
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    filt = PerceptronFilter(weights=rng.normal(size=dim), bias=0.375)
    expected = vectors.astype(np.float64) @ filt.weights.astype(np.float64) + filt.bias
    with mock.patch.object(filtering, "_SCORE_BLOCK_BYTES", 2048 * 8 * dim):
        scores = filt.score(vectors)  # blocks of 2,048, 2,048 and 1,984 rows
    assert scores.dtype == np.float64 and np.array_equal(scores, expected)


def test_minus_infinity_keeps_everything():
    index, filt = ladder_index(), ladder_filter()
    filtered, ratio = apply_filter(index, filt, -math.inf)
    assert filtered == index
    assert ratio == len(index) / index.total_words() == 1.0


def test_plus_infinity_drops_everything():
    index, filt = ladder_index(), ladder_filter()
    filtered, ratio = apply_filter(index, filt, math.inf)
    assert len(filtered) == 0 and ratio == 0.0
    assert search_exact(filtered, np.ones(4, dtype=np.float32), k_top=3) == []


def test_median_threshold_keeps_upper_half_inclusive():
    index, filt = ladder_index(), ladder_filter()
    scores = np.sort(filt.score(index.vectors))
    filtered, ratio = apply_filter(index, filt, float(scores[50]))
    assert len(filtered) == 50
    assert ratio == 0.5
    assert filtered.metadata["s"].min() == 50  # exactly the top half survives


def test_raising_threshold_never_grows_the_index():
    index = vectors_index(make_meta([80]), quantized((80, 6), 15))
    filt = PerceptronFilter(weights=quantized(6, 16), bias=0.125)
    sizes = []
    previous = set()
    for threshold in reversed(np.quantile(filt.score(index.vectors), [0.1, 0.4, 0.7, 0.9])):
        filtered, _ = apply_filter(index, filt, float(threshold))
        kept = {(int(r["doc_id"]), int(r["s"]), int(r["e"])) for r in filtered.metadata}
        assert previous <= kept  # lower thresholds only add candidates
        previous = kept
        sizes.append(len(filtered))
    assert sizes == sorted(sizes)


def test_surviving_candidates_keep_their_scores():
    index = vectors_index(make_meta([60]), quantized((60, 8), 23))
    filt = PerceptronFilter(weights=quantized(8, 24), bias=0.0)
    q = quantized(8, 25)
    full = {h.span: h.score for h in search_exact(index, q, k_top=60)}
    filtered, _ = apply_filter(index, filt, float(np.median(filt.score(index.vectors))))
    for hit in search_exact(filtered, q, k_top=len(filtered)):
        assert full[hit.span] == hit.score


# ------------------------------------------------------------------ sweeping


def test_sweep_starts_at_identity_and_strictly_shrinks(tmp_path):
    corpus, index, encode, _ = one_hot_setup()
    filt = train_filter(index, corpus, epochs=60)
    csv_path = tmp_path / "curve.csv"
    curve = sweep_thresholds(index, filt, corpus, encode, num_points=5, csv_path=str(csv_path))
    assert curve.points[0].threshold == -math.inf
    baseline = evaluate(index, corpus, encode)
    assert curve.points[0].f1 == baseline.f1
    assert curve.points[0].em == baseline.em
    assert curve.points[0].vectors_per_word == len(index) / index.total_words()
    ratios = [p.vectors_per_word for p in curve.points]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "threshold,vectors_per_word,f1,em"
    assert lines[1].startswith("-inf,4.9,")
    assert len(lines) == len(curve.points) + 1


def test_sweep_records_quality_loss_when_golds_go_first():
    corpus, index, encode, ordinal_of = one_hot_setup()
    weights = np.full(len(index), 1.0, dtype=np.float32)
    for ex in corpus.examples:
        gold = ex.gold_spans[0]
        weights[ordinal_of[(gold.s, gold.e)]] = -1.0
    filt = PerceptronFilter(weights=weights, bias=0.0)
    curve = sweep_thresholds(index, filt, corpus, encode, num_points=5)
    assert curve.points[0].f1 == 100.0 and curve.points[0].em == 100.0
    # Once the gold spans are filtered out, exact match is unreachable
    # (partial token overlap with whatever wins the tie can keep f1 above 0).
    assert all(p.em == 0.0 and p.f1 < 100.0 for p in curve.points[1:])
    ratios = [p.vectors_per_word for p in curve.points]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_sweep_single_point_is_identity_only():
    corpus, index, encode, _ = one_hot_setup()
    curve = sweep_thresholds(index, ladder_filter(len(index)), corpus, encode, num_points=1)
    assert len(curve.points) == 1
    assert curve.points[0].threshold == -math.inf
    with pytest.raises(ValueError):
        sweep_thresholds(index, ladder_filter(len(index)), corpus, encode, num_points=0)


@pytest.mark.parametrize("num_points", [1, 3, 5, 8])
@pytest.mark.parametrize("kind", ["trained", "golds_first", "ties"])
def test_sweep_matches_a_per_threshold_apply_filter_loop(kind, num_points):
    """The curve is the one an apply_filter per threshold gives, with the rows
    scored once; ties make thresholds that drop no further row."""
    corpus, index, encode, ordinal_of = one_hot_setup()
    if kind == "trained":
        filt = train_filter(index, corpus, epochs=60)
    elif kind == "golds_first":
        weights = np.full(len(index), 1.0, dtype=np.float32)
        for ex in corpus.examples:
            gold = ex.gold_spans[0]
            weights[ordinal_of[(gold.s, gold.e)]] = -1.0
        filt = PerceptronFilter(weights=weights, bias=0.0)
    else:
        filt = ladder_filter(len(index))
    expected = sweep_points(index, filt, corpus, encode, num_points)
    with mock.patch.object(filtering, "_index_scores", wraps=filtering._index_scores) as spy:
        curve = sweep_thresholds(index, filt, corpus, encode, num_points=num_points)
    assert spy.call_count == 1
    assert curve.points == expected


# ------------------------------------------------------------------- storage


def test_storage_reference_configuration():
    est = storage_estimate(dim=1024, bytes_per_value=4, vectors_per_word=1.3, total_words=3e9)
    assert est.bytes_per_word == pytest.approx(5324.8)
    assert est.total_bytes == pytest.approx(1.59744e13)
    assert est.bytes_per_word_text == "5.2 KB"
    assert est.total_text == "15.6 TB"


def test_storage_tiny_configuration():
    est = storage_estimate(dim=1, bytes_per_value=1, vectors_per_word=1, total_words=1)
    assert est.bytes_per_word == 1
    assert est.bytes_per_word_text == "1 B"
    assert est.total_text == "1 B"


def test_storage_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        storage_estimate(0, 4, 1.3, 3e9)
    with pytest.raises(ValueError):
        storage_estimate(1024, 4, -1.3, 3e9)


def test_human_bytes_ladder():
    assert human_bytes(1) == "1 B"
    assert human_bytes(1023) == "1023 B"
    assert human_bytes(1024) == "1.0 KB"
    assert human_bytes(1024 * 1000) == "1.0 MB"
    assert human_bytes(1024 * 1000 * 1000) == "1.0 GB"
    assert human_bytes(1024 * 1000**3) == "1.0 TB"
    assert human_bytes(1024 * 1000**4) == "1000.0 TB"  # ladder tops out at TB


# --------------------------------------------------------------- persistence


def test_filter_round_trip_is_bit_exact(tmp_path):
    filt = PerceptronFilter(weights=quantized(16, 8), bias=0.25)
    path = str(tmp_path / "f.flt")
    save_filter(filt, path)
    loaded = load_filter(path)
    assert np.array_equal(loaded.weights, filt.weights)
    assert loaded.bias == filt.bias
    path2 = str(tmp_path / "g.flt")
    save_filter(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_filter_load_rejects_corruption(tmp_path):
    filt = PerceptronFilter(weights=quantized(4, 8), bias=0.5)
    path = tmp_path / "f.flt"
    save_filter(filt, str(path))
    raw = path.read_bytes()

    bad = bytearray(raw)
    bad[:4] = b"JUNK"
    path.write_bytes(bad)
    with pytest.raises(FormatError, match="bad magic") as err:
        load_filter(str(path))
    assert err.value.offset == 0

    bad = bytearray(raw)
    bad[4] = 3
    path.write_bytes(bad)
    with pytest.raises(FormatError, match="version"):
        load_filter(str(path))

    path.write_bytes(raw[:-2])
    with pytest.raises(FormatError, match="truncated"):
        load_filter(str(path))

    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_filter(str(path))


@pytest.mark.parametrize(
    "slot, value, needle",
    [(1, np.nan, "weight 1 is"), (0, -np.inf, "weight 0 is"), (4, np.nan, "bias is")],
)
def test_filter_load_rejects_non_finite_values(tmp_path, slot, value, needle):
    filt = PerceptronFilter(weights=quantized(4, 8), bias=0.5)  # slot 4 is the bias
    path = tmp_path / "f.flt"
    save_filter(filt, str(path))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 12 + 4 * slot, value)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=needle) as err:
        load_filter(str(path))
    assert err.value.offset == 12 + 4 * slot


def test_storage_estimate_fields():
    est = StorageEstimate(bytes_per_word=2048.0, total_bytes=4096.0)
    assert est.bytes_per_word_text == "2.0 KB"
    assert est.total_text == "4.0 KB"

"""Storage reduction: score candidates with a linear filter, drop the weak.

A single-layer perceptron (logistic regression, trained from scratch on
class-weighted full-batch gradient descent) predicts whether a candidate
span looks like an answer. Thresholding its score before storage trades
accuracy for memory; sweep_thresholds traces that tradeoff curve and
storage_estimate turns a curve point into bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, FormatError, TrainingError
from .index import _SCORE_BLOCK_BYTES, PhraseIndex, _grouped, _Reader, _span_keys, _write

if TYPE_CHECKING:
    from .corpus import Corpus

MAGIC = b"PQAF"
VERSION = 1


@dataclass
class PerceptronFilter:
    weights: np.ndarray  # (dim,) float32
    bias: float

    def score(self, vectors: np.ndarray) -> np.ndarray:
        """Linear scores of a (rows, dim) block, float64, one per row.

        Rows are cast a block at a time. A block holds a multiple of 64 rows, so
        BLAS groups them, and sums each, as in one product over all rows.
        """
        weights = self.weights.astype(np.float64)
        step = _score_step(vectors.shape[1])
        scores = np.empty(len(vectors))
        for start in range(0, len(vectors), step):
            block = vectors[start : start + step]
            np.matmul(block.astype(np.float64), weights, out=scores[start : start + step])
        scores += self.bias
        return scores


def _score_step(dim: int) -> int:
    """Rows per block of PerceptronFilter.score: a multiple of 64."""
    return max(1, _SCORE_BLOCK_BYTES // (8 * max(dim, 1) * 64)) * 64


def _index_scores(filt: PerceptronFilter, index: PhraseIndex) -> np.ndarray:
    """filt.score of a dense index's rows, gathered from its table one score block at a time."""
    step = _score_step(index.dim)
    blocks = (filt.score(index.rows(slice(a, a + step))) for a in range(0, len(index), step))
    return np.concatenate([np.empty(0), *blocks])


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    vectors_per_word: float
    f1: float
    em: float


@dataclass
class TradeoffCurve:
    points: list[CurvePoint]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["threshold", "vectors_per_word", "f1", "em"])
            for p in self.points:
                writer.writerow([repr(p.threshold), repr(p.vectors_per_word), p.f1, p.em])


def _gold_label_mask(index: PhraseIndex, corpus: "Corpus") -> np.ndarray:
    """1.0 at each ordinal whose span is some question's gold span, else 0.0."""
    gold = np.array(
        [span for ex in corpus.examples for span in ex.gold_spans], dtype=np.int64
    ).reshape(-1, 3)
    # A span past the metadata's u32 / u16 fields is in no index; its key would wrap.
    fits = (gold >= 0).all(axis=1) & (gold < [2**32, 2**16, 2**16]).all(axis=1)
    wanted = _span_keys(*gold[fits].T)
    meta = index.metadata
    keys = _span_keys(meta["doc_id"], meta["s"], meta["e"])  # ascending, as the ordinals
    labels = np.zeros(len(keys), dtype=np.float64)
    if len(keys):
        at = np.minimum(keys.searchsorted(wanted), len(keys) - 1)
        labels[at[keys[at] == wanted]] = 1.0
    return labels


def _weighted_logistic_loss(z: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    # log(1 + exp(-z*s)) with s = +-1, computed stably
    s = 2.0 * y - 1.0
    per = np.logaddexp(0.0, -s * z)
    return float((w * per).sum() / w.sum())


def train_filter(
    index: PhraseIndex,
    corpus: "Corpus",
    epochs: int = 100,
    learning_rate: float = 0.5,
    seed: int = 0,
) -> PerceptronFilter:
    """Fit the filter on gold-span labels with class-weighted logistic loss.

    Labels: 1 iff the candidate equals a gold answer span of any question on
    its document. Positives are upweighted by the negative/positive ratio of
    the training split. A seeded 10% held-out split picks the best epoch.

    Training reads the index's word table in place, with held-out rows
    weighted 0. A row's score is its start half's product plus its end half's,
    so an epoch takes the table's products with each half of the weights (a
    start half reading the first dim // 2 columns) and gathers them; the
    gradient of a half is the per-table-row sums of the residuals (bincount)
    times the table's columns for that half.
    """
    if index.kind != "dense":
        raise ValueError("train_filter needs a dense index")
    labels = _gold_label_mask(index, corpus)
    if labels.sum() == 0:
        raise TrainingError("no candidate matches a gold span; nothing to learn from")

    n, dim = len(index), index.dim
    rng = np.random.Generator(np.random.Philox(key=seed))
    order = rng.permutation(n)
    held = order[: n // 10]
    train = order[n // 10 :] if n >= 2 else order
    if len(train) == 0 or labels[train].sum() == 0:
        # tiny or unlucky split: train on everything, validate on everything
        held = train = np.arange(n)

    pos = labels[train].sum()
    neg = len(train) - pos
    pos_weight = neg / pos if pos and neg else 1.0
    class_weight = np.where(labels == 1.0, pos_weight, 1.0)
    row_weight = np.zeros(n)
    row_weight[train] = class_weight[train]  # held-out rows weigh 0 in the gradient
    denom = row_weight.sum()
    if len(held) == 0:
        held = train  # fewer than 10 rows: the loss is the training loss
    y_held, w_held = labels[held], class_weight[held]

    half = dim // 2
    start_table, end_table = index.table[:, :half], index.table
    start_ids, end_ids = index.table_ids.astype(np.intp)
    weights = np.zeros(dim)
    bias = 0.0
    z = np.zeros(n)  # every row's score under the zero filter
    best = (math.inf, weights.copy(), bias)
    for _ in range(epochs):
        residual = row_weight * (1.0 / (1.0 + np.exp(-z)) - labels)
        halves = ((start_table, start_ids, slice(0, half)), (end_table, end_ids, slice(half, dim)))
        for table, ids, cols in halves:
            sums = np.bincount(ids, weights=residual, minlength=len(table)).astype(np.float32)
            weights[cols] -= learning_rate * (sums @ table) / denom
        bias -= learning_rate * residual.sum() / denom
        # These scores give this epoch's held-out loss and the next epoch's gradient.
        w = weights.astype(np.float32)
        start = np.take(start_table @ w[:half], start_ids)
        z = np.add(start, np.take(end_table @ w[half:], end_ids), dtype=np.float64)
        z += bias
        loss = _weighted_logistic_loss(z[held], y_held, w_held)
        if loss < best[0]:
            best = (loss, weights.copy(), bias)
    _, weights, bias = best
    return PerceptronFilter(weights=weights.astype(np.float32), bias=float(np.float32(bias)))


def apply_filter(
    index: PhraseIndex,
    filt: PerceptronFilter,
    threshold: float,
) -> tuple[PhraseIndex, float]:
    """Drop candidates scoring below threshold; rows are physically removed.

    Returns the smaller index and its vectors-per-word ratio over the input
    index's words (total_words), exact when the input is unfiltered.
    """
    if index.kind != "dense":
        raise ValueError("apply_filter needs a dense index")
    words = index.total_words()
    filtered = _subset(index, _index_scores(filt, index) >= threshold)
    return filtered, len(filtered) / words if words else 0.0


def _subset(index: PhraseIndex, keep: np.ndarray) -> PhraseIndex:
    """The dense index of the rows where keep is True, its table regrouped."""
    return _grouped(index.metadata[keep], index.dim, index.table, index.table_ids[:, keep])


def sweep_thresholds(
    index: PhraseIndex,
    filt: PerceptronFilter,
    corpus: "Corpus",
    encode_question: Callable,
    num_points: int = 5,
    csv_path: str | None = None,
) -> TradeoffCurve:
    """Trace F1/EM against vectors-per-word over a threshold ladder.

    The first point is threshold -inf (the unfiltered identity); later
    thresholds sit at score quantiles so points spread along the memory
    axis. Points that fail to shrink the index further are dropped, keeping
    vectors_per_word strictly decreasing.
    """
    from .evaluation import evaluate

    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    scores = _index_scores(filt, index)  # every row scored once; each point is a cut of them
    ladder = np.sort(scores)
    total_words = index.total_words()
    thresholds = [-math.inf]
    n = len(scores)
    for i in range(1, num_points):
        drop_fraction = i / num_points
        thresholds.append(float(ladder[min(n - 1, int(drop_fraction * n))]))

    points: list[CurvePoint] = []
    for threshold in thresholds:
        keep = scores >= threshold
        ratio = int(keep.sum()) / total_words if total_words else 0.0
        if points and ratio >= points[-1].vectors_per_word:
            continue  # built and evaluated only when kept
        metrics = evaluate(_subset(index, keep), corpus, encode_question, allow_missing_docs=True)
        points.append(CurvePoint(threshold, ratio, metrics.f1, metrics.em))
    curve = TradeoffCurve(points)
    if csv_path:
        curve.write_csv(csv_path)
    return curve


@dataclass(frozen=True)
class StorageEstimate:
    bytes_per_word: float
    total_bytes: float

    @property
    def bytes_per_word_text(self) -> str:
        return human_bytes(self.bytes_per_word)

    @property
    def total_text(self) -> str:
        return human_bytes(self.total_bytes)


def human_bytes(value: float) -> str:
    """Render a byte count the way the storage figures are quoted.

    The first step to KB divides by 1024; each step up the ladder after
    that divides by 1000 (so 5324.8 B reads as 5.2 KB, not 5.3).
    """
    if value < 1024:
        return f"{value:g} B"
    value /= 1024.0
    for unit in ("KB", "MB", "GB", "TB"):
        if value < 1000 or unit == "TB":
            return f"{value:.1f} {unit}"
        value /= 1000.0
    raise AssertionError("unreachable")


def storage_estimate(
    dim: int, bytes_per_value: float, vectors_per_word: float, total_words: float
) -> StorageEstimate:
    """Bytes per document word and in total for a dense index configuration."""
    if min(dim, bytes_per_value, vectors_per_word, total_words) <= 0:
        raise ValueError("all storage parameters must be positive")
    try:
        per_word = dim * bytes_per_value * vectors_per_word
        total = per_word * total_words
    except OverflowError:  # an int dim past the float range
        total = math.inf
    if not math.isfinite(total):
        raise ConfigError("the storage estimate overflows: more bytes than a float holds")
    return StorageEstimate(bytes_per_word=per_word, total_bytes=total)


def save_filter(filt: PerceptronFilter, path: str) -> None:
    values = np.r_[filt.weights, filt.bias].astype("<f4")  # the weights, then the bias
    _write(path, MAGIC, VERSION, [np.array(len(values) - 1, "<u4"), values])


def load_filter(path: str) -> PerceptronFilter:
    with _Reader(path, MAGIC, VERSION) as r:
        dim = r.record("<u4", "dim")
        values = r.array("<f4", dim + 1, "weights and bias")
        if not np.isfinite(values).all():
            i = int(np.isfinite(values).argmin())
            what = "bias" if i == dim else f"weight {i}"
            raise FormatError(f"{path}: {what} is not finite", offset=12 + 4 * i)
        r.finish()
        return PerceptronFilter(weights=values[:dim], bias=float(values[dim]))

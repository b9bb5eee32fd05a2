"""Phrase-indexed extractive QA.

Every candidate answer span of a document collection is encoded once,
offline, into a vector index; a question is encoded independently and
answered by maximum-inner-product search over the stored spans, exactly
(exhaustive scan) or approximately (asymmetric LSH). A linear filter can
drop low-quality candidates before storage to trade accuracy for memory.
"""

from .alsh import AlshIndex, AlshParams, build_alsh, load_alsh, save_alsh, search_approx
from .candidates import CandidateSpan, candidates_per_word, enumerate_spans, span_count
from .corpus import Corpus, Document, QAExample, align_answer, load_squad, tokenize
from .errors import (
    BuildError,
    ConfigError,
    EngineError,
    EvaluationError,
    FormatError,
    SchemaError,
    TrainingError,
)
from .evaluation import Metrics, evaluate, f1_em_single, normalize_answer
from .filtering import (
    PerceptronFilter,
    StorageEstimate,
    TradeoffCurve,
    apply_filter,
    human_bytes,
    load_filter,
    save_filter,
    storage_estimate,
    sweep_thresholds,
    train_filter,
)
from .index import (
    BenchResult,
    PhraseIndex,
    SearchHit,
    bench_scan,
    build_index,
    load_index,
    save_index,
    search_exact,
    synthetic_dense_index,
)
from .service import QueryEngine, make_server, question_encoder, serve

__version__ = "0.1.0"

__all__ = [
    "AlshIndex",
    "AlshParams",
    "BenchResult",
    "BuildError",
    "CandidateSpan",
    "ConfigError",
    "Corpus",
    "Document",
    "EngineError",
    "EvaluationError",
    "FormatError",
    "Metrics",
    "PerceptronFilter",
    "PhraseIndex",
    "QAExample",
    "QueryEngine",
    "SchemaError",
    "SearchHit",
    "StorageEstimate",
    "TradeoffCurve",
    "TrainingError",
    "align_answer",
    "apply_filter",
    "bench_scan",
    "build_alsh",
    "build_index",
    "candidates_per_word",
    "enumerate_spans",
    "evaluate",
    "f1_em_single",
    "human_bytes",
    "load_alsh",
    "load_filter",
    "load_index",
    "load_squad",
    "make_server",
    "normalize_answer",
    "question_encoder",
    "save_alsh",
    "save_filter",
    "save_index",
    "search_approx",
    "search_exact",
    "serve",
    "span_count",
    "storage_estimate",
    "sweep_thresholds",
    "synthetic_dense_index",
    "tokenize",
    "train_filter",
]

"""Phrase-indexed extractive QA.

Every candidate answer span of a document collection is encoded once,
offline, into a vector index; a question is encoded independently and
answered by maximum-inner-product search over the stored spans, exactly
(exhaustive scan) or approximately (asymmetric LSH). A linear filter can
drop low-quality candidates before storage to trade accuracy for memory.

The names below are the ones the README's Python API section uses; every
other name is imported from its own module.
"""

from .corpus import load_squad
from .evaluation import evaluate
from .index import build_index, search_exact
from .service import question_encoder

__version__ = "0.1.0"

__all__ = ["build_index", "evaluate", "load_squad", "question_encoder", "search_exact"]

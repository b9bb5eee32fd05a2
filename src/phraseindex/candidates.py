"""Candidate answer spans: every contiguous token range up to a length cap.

Spans are token-index pairs (s, e), both inclusive, ordered lexicographically.
That ordering is the canonical candidate order everywhere downstream (index
rows, tie-breaking, filter labels).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class CandidateSpan(NamedTuple):
    """An answer candidate: token range [s, e] (inclusive) of one document."""

    doc_id: int
    s: int
    e: int


def span_bounds(doc_len: int, max_span_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Every span (s, e) of 1 to max_span_len tokens, lexicographic, as int64 starts and ends."""
    widths = np.minimum(max_span_len, np.arange(doc_len, 0, -1))
    starts = np.repeat(np.arange(doc_len), widths)
    firsts = np.repeat(np.cumsum(widths) - widths, widths)
    return starts, starts + np.arange(len(starts)) - firsts


def span_count(doc_len: int, max_span_len: int) -> int:
    """Closed-form count of span_bounds: m*L - L(L-1)/2 for m >= L, else m(m+1)/2."""
    m, L = doc_len, max_span_len
    if m < 0:
        raise ValueError(f"doc_len must be >= 0, got {m}")
    if L < 1:
        raise ValueError(f"max_span_len must be >= 1, got {L}")
    if m >= L:
        return m * L - L * (L - 1) // 2
    return m * (m + 1) // 2

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phraseindex.candidates import CandidateSpan, span_bounds, span_count

from .oracles import enumerate_spans


def brute_force_spans(m: int, L: int) -> list[tuple[int, int]]:
    return [(s, e) for s in range(m) for e in range(s, m) if e - s + 1 <= L]


def test_empty_document():
    assert enumerate_spans(0, 7) == []
    assert span_count(0, 7) == 0


def test_three_tokens():
    assert enumerate_spans(3, 7) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert span_count(3, 7) == 6


def test_ten_tokens_cap_seven():
    assert len(enumerate_spans(10, 7)) == 49
    assert span_count(10, 7) == 49


def test_count_formula_matches_brute_force_everywhere():
    for m in range(0, 51):
        for L in range(1, 11):
            expected = len(brute_force_spans(m, L))
            assert span_count(m, L) == expected, (m, L)
            assert len(enumerate_spans(m, L)) == expected, (m, L)


@given(m=st.integers(0, 60), L=st.integers(1, 12))
def test_spans_are_lexicographic_unique_and_bounded(m, L):
    spans = enumerate_spans(m, L)
    assert spans == sorted(set(spans))
    for s, e in spans:
        assert 0 <= s <= e < m
        assert e - s + 1 <= L


def test_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_spans(-1, 7)
    with pytest.raises(ValueError):
        enumerate_spans(5, 0)
    with pytest.raises(ValueError):
        span_count(3, -2)


def test_candidate_span_is_a_plain_triple():
    span = CandidateSpan(3, 1, 4)
    assert tuple(span) == (3, 1, 4)
    assert span.doc_id == 3 and span.s == 1 and span.e == 4


@given(st.integers(0, 60), st.integers(1, 10))
def test_span_bounds_are_enumerate_spans_as_arrays(m, L):
    starts, ends = span_bounds(m, L)
    assert list(zip(starts.tolist(), ends.tolist())) == enumerate_spans(m, L)

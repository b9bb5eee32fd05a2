import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phraseindex.candidates import CandidateSpan
from phraseindex.corpus import Document, _is_punct, align_answer, load_squad, tokenize
from phraseindex.errors import SchemaError

from . import oracles


def make_doc(text: str, doc_id: int = 0) -> Document:
    tokens, offsets = tokenize(text)
    return Document(doc_id=doc_id, tokens=tokens, char_offsets=offsets, raw_text=text)


def test_tokenize_spec_example():
    assert tokenize("The cat.") == (["the", "cat", "."], [(0, 3), (4, 7), (7, 8)])


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == ([], [])
    assert tokenize(" \t\n ") == ([], [])


def test_tokenize_strips_leading_and_trailing_punctuation():
    tokens, offsets = tokenize('"Hello," she said.')
    assert tokens == ['"', "hello", ",", '"', "she", "said", "."]
    text = '"Hello," she said.'
    for tok, (a, b) in zip(tokens, offsets):
        assert text[a:b].lower() == tok


def test_tokenize_keeps_internal_punctuation():
    tokens, _ = tokenize("Levi's Stadium isn't far-off.")
    assert "levi's" in tokens
    assert "isn't" in tokens
    assert "far-off" in tokens


@given(st.text(max_size=80))
def test_tokenize_round_trip_property(text):
    tokens, offsets = tokenize(text)
    assert len(tokens) == len(offsets)
    prev_end = -1
    for tok, (a, b) in zip(tokens, offsets):
        assert a < b
        assert a >= prev_end  # non-overlapping, increasing
        prev_end = b
        assert text[a:b].lower() == tok


def test_align_exact_token_boundary():
    doc = make_doc("The Denver Broncos won the game.")
    span = align_answer(doc, "Denver Broncos", 4)
    assert span == CandidateSpan(0, 1, 2)


def test_align_mid_token_start_snaps_to_covering_span():
    doc = make_doc("The Denver Broncos won.")
    # answer_start points inside "Denver"
    span = align_answer(doc, "enver Broncos", 5)
    assert span is not None
    assert span.s == 1 and span.e == 2


def test_align_round_trip_over_spans():
    doc = make_doc("a quick brown fox jumps over the lazy dog")
    for s in range(len(doc)):
        for e in range(s, min(len(doc), s + 3)):
            span = CandidateSpan(0, s, e)
            text = doc.span_text(span)
            start = doc.char_offsets[s][0]
            assert align_answer(doc, text, start) == span


def test_align_failure_returns_none():
    doc = make_doc("short text")
    assert align_answer(doc, "missing", 99) is None


def test_load_squad_mini(mini_corpus):
    stats = mini_corpus.stats()
    assert stats["documents"] == 2
    assert stats["examples"] == 4
    assert stats["alignment_failures"] == 0
    assert stats["tokens"] == sum(len(d) for d in mini_corpus.documents)
    for ex in mini_corpus.examples:
        assert ex.gold_answers
        for span in ex.gold_spans:
            doc = mini_corpus.document(span.doc_id)
            assert 0 <= span.s <= span.e < len(doc)


def test_document_invariants(mini_corpus):
    for doc in mini_corpus.documents:
        assert len(doc.tokens) == len(doc.char_offsets)
        prev = -1
        for (a, b), tok in zip(doc.char_offsets, doc.tokens):
            assert prev <= a < b
            prev = b
            assert doc.raw_text[a:b].lower() == tok


def test_vocab_df_counts_documents_not_occurrences(mini_corpus):
    # "the" appears many times in both paragraphs but df counts documents
    assert mini_corpus.vocab_df["the"] == 2
    assert mini_corpus.vocab_df["broncos"] == 1


def test_load_squad_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": []}))
    with pytest.raises(SchemaError) as err:
        load_squad(str(bad))
    assert "data" in str(err.value)

    bad.write_text(json.dumps({"data": [{"paragraphs": [{"qas": []}]}]}))
    with pytest.raises(SchemaError) as err:
        load_squad(str(bad))
    assert "context" in str(err.value)

    bad.write_text(
        json.dumps(
            {
                "data": [
                    {
                        "paragraphs": [
                            {"context": "some text", "qas": [{"question": "q?"}]}
                        ]
                    }
                ]
            }
        )
    )
    with pytest.raises(SchemaError) as err:
        load_squad(str(bad))
    assert "id" in str(err.value) or "qas" in str(err.value)

    def squad(answer=None, paragraphs=None, **fields):
        qa = {"id": "q", "question": "q?", "answers": [answer or {"text": "a", "answer_start": 0}]}
        para = {"context": "a b", "qas": [qa]}
        for key, value in fields.items():
            (qa if key in qa else para)[key] = value
        return {"data": [{"paragraphs": [para] if paragraphs is None else paragraphs}]}

    answers = "data[0].paragraphs[0].qas[0].answers[0]"
    mistyped = [
        (squad({"text": "a"}), f"missing field 'answer_start' at {answers}"),
        (squad({"text": "a", "answer_start": "0"}), f"field 'answer_start' at {answers}"),
        (squad({"text": "a", "answer_start": True}), f"field 'answer_start' at {answers}"),
        (squad({"text": 7, "answer_start": 0}), f"field 'text' at {answers}"),
        (squad(question=["q?"]), "field 'question' at data[0].paragraphs[0].qas[0]"),
        (squad(context=None), "field 'context' at data[0].paragraphs[0]"),
        (squad(paragraphs=5), "field 'paragraphs' at data[0]"),
        (squad(answers=5), "field 'answers' at data[0].paragraphs[0].qas[0]"),
    ]
    for content, needle in mistyped:
        bad.write_text(json.dumps(content))
        with pytest.raises(SchemaError) as err:
            load_squad(str(bad))
        assert needle in str(err.value)

    bad.write_bytes(b'\xff\xfe{"data": []}')  # not UTF-8
    with pytest.raises(SchemaError) as err:
        load_squad(str(bad))
    assert "not valid JSON" in str(err.value)


def test_load_squad_counts_alignment_failures(tmp_path):
    path = tmp_path / "miss.json"
    path.write_text(
        json.dumps(
            {
                "data": [
                    {
                        "paragraphs": [
                            {
                                "context": "alpha beta gamma",
                                "qas": [
                                    {
                                        "id": "q0",
                                        "question": "which greek letter?",
                                        "answers": [
                                            {"text": "delta", "answer_start": 0}
                                        ],
                                    }
                                ],
                            }
                        ]
                    }
                ]
            }
        )
    )
    corpus = load_squad(str(path))
    assert corpus.alignment_failures == 1
    assert corpus.examples[0].gold_spans == []
    assert corpus.examples[0].gold_answers == ["delta"]


# Whitespace, punctuation (ASCII and not), letters whose lowercase differs in
# length or by context, digits, and marks that are neither alphanumeric nor punctuation.
_TRICKY = st.text(
    alphabet=st.sampled_from(" \t\n\x0b\x1c\x85\xa0\u2028\u3000.,'\"-!¿«»…_aZ9²éİΣς$+\u0301"),
    max_size=60,
)


@given(st.one_of(st.text(), _TRICKY))
def test_tokenize_matches_character_loop_oracle(text):
    assert tokenize(text) == oracles.tokenize(text)


@given(st.one_of(st.text(max_size=40), _TRICKY))
def test_align_answer_matches_scan_oracle(text):
    doc = make_doc(text, doc_id=3)
    for start in range(-2, len(text) + 2):
        for length in range(0, len(text) - start + 3):
            answer = "x" * length  # only its length is read
            assert align_answer(doc, answer, start) == oracles.align_answer(doc, answer, start)


_EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


def test_regex_whitespace_is_str_isspace_on_every_code_point():
    # tokenize chunks text with r"\S+"; the character loop split on str.isspace.
    by_regex = [m.start() for m in re.finditer(r"\s", _EVERY_CODE_POINT)]
    assert by_regex == [i for i, ch in enumerate(_EVERY_CODE_POINT) if ch.isspace()]


def test_no_alphanumeric_code_point_is_punctuation():
    # tokenize keeps a chunk with alphanumeric ends whole, without peeling it.
    assert [ch for ch in _EVERY_CODE_POINT if ch.isalnum() and _is_punct(ch)] == []

"""SQuAD-format corpus ingestion: tokenization and gold-answer alignment.

The tokenizer is deliberately simple and is the single source of token
indices for the whole engine: split on Unicode whitespace, peel leading and
trailing punctuation characters off each chunk as their own tokens, lowercase.
Character offsets always index the original text, so spans can be rendered
back with their original casing and punctuation.
"""

from __future__ import annotations

import json
import string
import unicodedata
from dataclasses import dataclass, field

from .candidates import CandidateSpan
from .errors import SchemaError

_ASCII_PUNCT = set(string.punctuation)


def _is_punct(ch: str) -> bool:
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Split text into lowercased tokens plus (start, end) offsets into text.

    Whitespace separates chunks; leading/trailing punctuation characters of a
    chunk become single-character tokens of their own. Deterministic, and
    empty input yields empty lists.
    """
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        # Chunk is text[i:j]; peel punctuation off both ends.
        lo, hi = i, j
        while lo < hi and _is_punct(text[lo]):
            tokens.append(text[lo].lower())
            offsets.append((lo, lo + 1))
            lo += 1
        trailing: list[tuple[int, int]] = []
        while hi > lo and _is_punct(text[hi - 1]):
            trailing.append((hi - 1, hi))
            hi -= 1
        if lo < hi:
            tokens.append(text[lo:hi].lower())
            offsets.append((lo, hi))
        for a, b in reversed(trailing):
            tokens.append(text[a].lower())
            offsets.append((a, b))
        i = j
    return tokens, offsets


@dataclass(frozen=True)
class Document:
    """One evidence document (a SQuAD paragraph) with token/char bookkeeping."""

    doc_id: int
    raw_text: str
    tokens: list[str]
    char_offsets: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.tokens)

    def span_text(self, span: CandidateSpan) -> str:
        """Original text covered by a token span (raw chars, original casing)."""
        start = self.char_offsets[span.s][0]
        end = self.char_offsets[span.e][1]
        return self.raw_text[start:end]


@dataclass
class QAExample:
    question_id: str
    question_tokens: list[str]
    doc_id: int
    gold_answers: list[str]
    # Aligned token spans whose text normalizes to one of gold_answers.
    # May be empty when every provided answer fails alignment.
    gold_spans: list[CandidateSpan] = field(default_factory=list)


@dataclass
class Corpus:
    documents: list[Document]
    examples: list[QAExample]
    vocab_df: dict[str, int]
    num_documents: int
    alignment_failures: int = 0

    @property
    def total_tokens(self) -> int:
        return sum(len(d) for d in self.documents)

    def document(self, doc_id: int) -> Document:
        return self.documents[doc_id]

    def stats(self) -> dict:
        return {
            "documents": self.num_documents,
            "examples": len(self.examples),
            "tokens": self.total_tokens,
            "alignment_failures": self.alignment_failures,
        }


def align_answer(
    doc: Document, answer_text: str, answer_start: int
) -> CandidateSpan | None:
    """Minimal token span covering chars [answer_start, answer_start+len).

    Returns None when the char range intersects no token (e.g. it falls
    entirely in whitespace); callers count such failures.
    """
    if answer_start < 0 or answer_start >= len(doc.raw_text):
        return None
    answer_end = answer_start + len(answer_text)  # exclusive
    s = e = None
    for i, (a, b) in enumerate(doc.char_offsets):
        if b > answer_start and a < answer_end:
            if s is None:
                s = i
            e = i
    if s is None:
        return None
    return CandidateSpan(doc.doc_id, s, e)


_JSON_TYPES = {list: "an array", str: "a string", int: "an integer"}


def _require(mapping, key, path, kind):
    """mapping[key], which must be of type kind (a JSON true/false is not an int)."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"missing field '{key}' at {path}")
    if not isinstance(mapping[key], kind) or isinstance(mapping[key], bool):
        got = json.dumps(mapping[key])[:40]
        raise SchemaError(f"field '{key}' at {path} must be {_JSON_TYPES[kind]}, got {got}")
    return mapping[key]


def load_squad(path: str) -> Corpus:
    """Load a SQuAD v1.1 JSON file: one Document per paragraph context.

    Gold answers are aligned to token spans; an aligned span is kept only if
    its text normalizes (SQuAD answer normalization) to one of the provided
    answer strings, so that spans are usable as exact training labels. The
    raw answer strings are always kept for string-level evaluation.
    """
    from .evaluation import normalize_answer  # deferred: evaluation builds on corpus types

    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc

    articles = _require(data, "data", "$", list)
    documents: list[Document] = []
    examples: list[QAExample] = []
    vocab_df: dict[str, int] = {}
    failures = 0

    for ai, article in enumerate(articles):
        paragraphs = _require(article, "paragraphs", f"data[{ai}]", list)
        for pi, para in enumerate(paragraphs):
            ppath = f"data[{ai}].paragraphs[{pi}]"
            context = _require(para, "context", ppath, str)
            doc_id = len(documents)
            tokens, offsets = tokenize(context)
            doc = Document(doc_id, context, tokens, offsets)
            documents.append(doc)
            for t in set(tokens):
                vocab_df[t] = vocab_df.get(t, 0) + 1

            for qi, qa in enumerate(_require(para, "qas", ppath, list)):
                qpath = f"{ppath}.qas[{qi}]"
                question = _require(qa, "question", qpath, str)
                qid = _require(qa, "id", qpath, str)
                answers = _require(qa, "answers", qpath, list)
                q_tokens, _ = tokenize(question)
                gold_answers: list[str] = []
                gold_spans: list[CandidateSpan] = []
                gold_norms: set[str] = set()
                for ni, ans in enumerate(answers):
                    text = _require(ans, "text", f"{qpath}.answers[{ni}]", str)
                    _require(ans, "answer_start", f"{qpath}.answers[{ni}]", int)
                    gold_answers.append(text)
                    gold_norms.add(" ".join(normalize_answer(text)))
                seen: set[CandidateSpan] = set()
                for ans in answers:
                    span = align_answer(doc, ans["text"], ans["answer_start"])
                    if span is None:
                        failures += 1
                        continue
                    norm = " ".join(normalize_answer(doc.span_text(span)))
                    if norm not in gold_norms:
                        failures += 1
                        continue
                    if span not in seen:
                        seen.add(span)
                        gold_spans.append(span)
                examples.append(
                    QAExample(qid, q_tokens, doc_id, gold_answers, gold_spans)
                )

    return Corpus(
        documents=documents,
        examples=examples,
        vocab_df=vocab_df,
        num_documents=len(documents),
        alignment_failures=failures,
    )

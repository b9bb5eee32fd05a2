r"""SQuAD-format corpus ingestion: tokenization and gold-answer alignment.

The tokenizer is the single source of token indices for the whole engine. One
regex pass, r"\S+", cuts text into chunks at whitespace (re's \s is exactly
str.isspace); punctuation characters peel off a chunk's ends as tokens of their
own, unless both ends are alphanumeric (no alphanumeric character is punctuation;
the tests check both facts on every code point); tokens are lowercased. Offsets
index the original text, so spans render with their original casing and punctuation.
"""

from __future__ import annotations

import bisect
import json
import operator
import re
import string
import unicodedata
from dataclasses import dataclass, field

from .candidates import CandidateSpan
from .errors import SchemaError
from .evaluation import normalize_answer

_ASCII_PUNCT = set(string.punctuation)
_CHUNK = re.compile(r"\S+")


def _is_punct(ch: str) -> bool:
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Split text into lowercased tokens plus (start, end) offsets into text.

    Whitespace separates chunks; leading/trailing punctuation characters of a
    chunk become single-character tokens of their own. Deterministic, and
    empty input yields empty lists.
    """
    offsets: list[tuple[int, int]] = []
    for chunk in _CHUNK.finditer(text):
        lo, hi = a, b = chunk.span()  # [a, b) becomes the middle between the peeled ends
        if text[lo].isalnum() and text[hi - 1].isalnum():
            offsets.append((lo, hi))
            continue
        while a < b and _is_punct(text[a]):
            a += 1
        while b > a and _is_punct(text[b - 1]):
            b -= 1
        offsets += [(i, i + 1) for i in range(lo, a)]
        offsets += [(a, b)] if a < b else []
        offsets += [(i, i + 1) for i in range(b, hi)]
    return [text[a:b].lower() for a, b in offsets], offsets


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
    entirely in whitespace); callers count such failures. The offsets are
    ordered and disjoint, so the tokens overlapping the range are one run.
    """
    if answer_start < 0 or answer_start >= len(doc.raw_text):
        return None
    answer_end = answer_start + len(answer_text)  # exclusive
    # The first token ending past answer_start, and the last starting before answer_end.
    s = bisect.bisect_right(doc.char_offsets, answer_start, key=operator.itemgetter(1))
    e = bisect.bisect_left(doc.char_offsets, answer_end, key=operator.itemgetter(0)) - 1
    return CandidateSpan(doc.doc_id, s, e) if s <= e else None


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
                for ni, ans in enumerate(answers):
                    _require(ans, "text", f"{qpath}.answers[{ni}]", str)
                    _require(ans, "answer_start", f"{qpath}.answers[{ni}]", int)
                gold_answers = [ans["text"] for ans in answers]
                golds = {tuple(normalize_answer(text)) for text in gold_answers}  # normalized
                gold_spans: list[CandidateSpan] = []
                for ans in answers:
                    span = align_answer(doc, ans["text"], ans["answer_start"])
                    if span is None or tuple(normalize_answer(doc.span_text(span))) not in golds:
                        failures += 1
                    elif span not in gold_spans:
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

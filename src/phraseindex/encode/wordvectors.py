"""Per-word vector channels: file I/O and a deterministic toy generator.

Text file format, one block per (channel, id):

    <channel> <doc_or_question_id> <count> <dim>
    <pos> <f1> ... <fdim>          (count lines, one per token position)

Document channels are base / sa_key / sa_query and use integer ids; question
channels are base / score0..score3 and use the question id. A `base` block is
treated as a document when its id is a string of ASCII digits, otherwise as a
question. score* blocks carry one float per position (dim 1).

A block whose lines are the positions 0..count-1 in order, spelled plainly and
each followed by dim values separated by single spaces, is parsed in one numpy
pass. Any other block, and any block numpy refuses, is parsed line by line, so
the accepted inputs, the values and the error texts are the line parser's.

A read parses the question blocks, and of a document block only its header and
that its lines are all there. A document's blocks are parsed from the file when
it is first looked up in `table.documents`, so a fault in their value lines (a
field count, a position, a value not a number or not finite) raises its error
there. The file must not change between the read and that lookup.
"""

from __future__ import annotations

import hashlib
import os
from collections import UserDict, namedtuple
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TextIO

import numpy as np

from ..errors import SchemaError

if TYPE_CHECKING:
    from ..corpus import Corpus

DOC_CHANNELS = ("base", "sa_key", "sa_query")
SCORE_CHANNELS = tuple(f"score{k}" for k in range(4))


@dataclass
class DocChannels:
    doc_id: int
    base: np.ndarray  # (m, dim) float32
    sa_key: np.ndarray | None = None
    sa_query: np.ndarray | None = None


@dataclass
class QuestionChannels:
    question_id: str
    base: np.ndarray  # (n, dim) float32
    scores: dict[int, np.ndarray] = field(default_factory=dict)  # k -> (n,)


@dataclass
class WordVectorTable:
    dim: int
    documents: dict[int, DocChannels] = field(default_factory=dict)  # read: a _Documents
    questions: dict[str, QuestionChannels] = field(default_factory=dict)

    def question(self, question_id: str) -> QuestionChannels:
        if question_id not in self.questions:
            raise SchemaError(f"word-vector table has no question {question_id!r}")
        return self.questions[question_id]


def _is_doc_id(raw: str) -> bool:
    return raw.isascii() and raw.isdigit()  # str.isdigit also takes "²" and "٣"


# A document block not parsed yet: where its lines start (f.tell()), its header's
# line and id as written, and its (count, dim).
_Block = namedtuple("_Block", "start line ident shape")


def _stamp(f) -> tuple:
    st = os.fstat(f.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Documents(UserDict):
    """A read table's documents, as a dict[int, DocChannels] that parses a
    document's blocks from the file on the document's first lookup."""

    def __init__(self, path: str, stamp: tuple, docs: dict[int, DocChannels]):
        self.data, self._path, self._stamp = docs, path, stamp  # docs not copied

    def __getitem__(self, doc_id: int) -> DocChannels:
        chan = self.data[doc_id]
        if isinstance(chan.base, _Block):
            chan = self.data[doc_id] = self._parse(chan)
        return chan

    def _parse(self, chan: DocChannels) -> DocChannels:
        blocks = {name: b for name in DOC_CHANNELS if (b := getattr(chan, name)) is not None}
        with open(self._path, encoding="utf-8") as f:
            if _stamp(f) != self._stamp:
                raise SchemaError(f"{self._path}: changed since it was read")
            # In file order, so that the fault reported is the file's first.
            for name, block in sorted(blocks.items(), key=lambda item: item[1].line):
                f.seek(block.start)
                blocks[name] = _parse_block(f, self._path, block.line, name, block.ident,
                                            *block.shape)
        return DocChannels(chan.doc_id, **blocks)


def read_word_vectors(path: str) -> WordVectorTable:
    """Read a word-vector file, validating coverage, dimension agreement and
    that every value is finite (a document's values on its first lookup)."""
    table = WordVectorTable(dim=0)
    try:
        with open(path, encoding="utf-8") as f:
            stamp = _stamp(f)
            _read_blocks(f, path, table, stamp[2])
    except UnicodeDecodeError as exc:
        # The text layer's offset is within an 8 KiB decode chunk; the bytes' is the file's.
        with open(path, "rb") as f:
            raw = f.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}: not valid UTF-8 at line {line} ({exc})") from None
    _validate(table, path)
    table.documents = _Documents(path, stamp, table.documents)
    return table


def _read_blocks(f, path: str, table: WordVectorTable, size: int) -> None:
    """Read every block of an open word-vector file into table, documents' as _Block."""
    lineno = 0
    while True:
        header = f.readline()
        lineno += 1
        if not header:
            break
        if not header.strip():
            continue
        parts = header.split()
        if len(parts) != 4:
            raise SchemaError(f"{path}:{lineno}: bad header {header.strip()!r}")
        channel, ident, count_s, dim_s = parts
        header_line = lineno
        try:
            count, dim = int(count_s), int(dim_s)
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: non-integer count/dim in header")
        if count < 0 or dim < 1:
            raise SchemaError(f"{path}:{lineno}: bad header {header.strip()!r}")
        # Allocate only what the file can fill: a line is at least 2 (dim + 1) bytes.
        if count * 2 * (dim + 1) > size:
            raise SchemaError(f"{path}:{lineno}: truncated block for {channel} {ident}")
        if channel in DOC_CHANNELS and _is_doc_id(ident):  # parsed on first lookup
            rows = _Block(f.tell(), header_line, ident, (count, dim))
            for lineno in range(header_line + 1, header_line + count + 1):
                if not f.readline():
                    raise SchemaError(f"{path}:{lineno}: truncated block for {channel} {ident}")
        else:
            rows = _parse_block(f, path, header_line, channel, ident, count, dim)
        lineno = header_line + count
        _insert_block(table, channel, ident, rows, f"{path}:{lineno}")


def _parse_block(f, path, header_line, channel, ident, count, dim) -> np.ndarray:
    """The (count, dim) float32 rows of the block whose lines f reads next."""
    lines = [f.readline() for _ in range(count)]
    rows = _parse_canonical_block(lines, dim)
    if rows is None:  # line by line, naming the first bad line if there is one
        rows = np.zeros((count, dim), dtype=np.float32)
        seen = np.zeros(count, dtype=bool)
        for lineno, line in enumerate(lines, header_line + 1):
            if not line:
                raise SchemaError(f"{path}:{lineno}: truncated block for {channel} {ident}")
            fields = line.split()
            if len(fields) != dim + 1:
                raise SchemaError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields)}")
            try:
                pos, values = int(fields[0]), [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= pos < count or seen[pos]:
                raise SchemaError(f"{path}:{lineno}: bad or repeated position {pos}")
            seen[pos] = True
            rows[pos] = values
    if not np.isfinite(rows).all():  # nan, inf, or beyond float32 range
        pos = int(np.isfinite(rows).all(axis=1).argmin())
        raise SchemaError(
            f"{path}:{header_line}: {channel} {ident} has a non-finite value at position {pos}"
        )
    return rows


def _parse_canonical_block(lines: list[str], dim: int) -> np.ndarray | None:
    """A block's (count, dim) float32 rows in one numpy pass, or None unless its
    lines are the positions 0..count-1 in order, each followed by dim values
    that loadtxt parses. loadtxt reads a value as float() does and takes no
    spelling that float() refuses."""
    if not lines or not all(map(str.startswith, lines, map("{} ".format, range(len(lines))))):
        return None  # loadtxt warns on no lines; other positions need the line parser
    try:
        block = np.loadtxt(lines, dtype=np.float64, comments=None, delimiter=" ", ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(lines), dim + 1):
        return None
    return block[:, 1:].astype(np.float32)  # rounds each float64 as the line parser does


def _insert_block(table, channel, ident, rows, where):
    if channel in ("sa_key", "sa_query") and not _is_doc_id(ident):
        raise SchemaError(f"{where}: {channel} needs a document id, got {ident!r}")
    if channel in ("sa_key", "sa_query") or (channel == "base" and _is_doc_id(ident)):
        doc_id = int(ident)
        chan = table.documents.setdefault(doc_id, DocChannels(doc_id, base=None))
        if getattr(chan, channel) is not None:
            raise SchemaError(f"{where}: duplicate channel {channel} for document {doc_id}")
        setattr(chan, channel, rows)
    elif channel == "base":
        q = table.questions.setdefault(ident, QuestionChannels(ident, base=None))
        if q.base is not None:
            raise SchemaError(f"{where}: duplicate base channel for question {ident!r}")
        q.base = rows
    elif channel in SCORE_CHANNELS:
        if rows.shape[1] != 1:
            raise SchemaError(f"{where}: score channel must have dim 1")
        k = int(channel[len("score"):])
        q = table.questions.setdefault(ident, QuestionChannels(ident, base=None))
        if k in q.scores:
            raise SchemaError(f"{where}: duplicate {channel} for question {ident!r}")
        q.scores[k] = rows[:, 0]
    else:
        raise SchemaError(f"{where}: unknown channel {channel!r}")


def _validate(table: WordVectorTable, path: str):
    dims = set()
    for doc_id, chan in table.documents.items():
        if chan.base is None:
            raise SchemaError(f"{path}: document {doc_id} has sa channels but no base")
        dims.add(chan.base.shape[1])
        for name in ("sa_key", "sa_query"):
            extra = getattr(chan, name)
            if extra is not None:
                if extra.shape[1] != chan.base.shape[1]:
                    raise SchemaError(
                        f"{path}: document {doc_id} channel {name} dim "
                        f"{extra.shape[1]} != base dim {chan.base.shape[1]}"
                    )
                if extra.shape[0] != chan.base.shape[0]:
                    raise SchemaError(
                        f"{path}: document {doc_id} channel {name} covers "
                        f"{extra.shape[0]} positions, base covers {chan.base.shape[0]}"
                    )
    for qid, q in table.questions.items():
        if q.base is None:
            raise SchemaError(f"{path}: question {qid!r} has scores but no base")
        if len(q.base) == 0:
            raise SchemaError(f"{path}: question {qid!r} has no positions")
        dims.add(q.base.shape[1])
        for k, s in q.scores.items():
            if len(s) != len(q.base):
                raise SchemaError(
                    f"{path}: question {qid!r} score{k} covers {len(s)} positions, "
                    f"base covers {len(q.base)}"
                )
    if len(dims) > 1:
        raise SchemaError(f"{path}: inconsistent vector dims {sorted(dims)}")
    table.dim = dims.pop() if dims else 0


def _write_block(f: TextIO, channel: str, ident, rows: np.ndarray):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float32))
    f.write(f"{channel} {ident} {rows.shape[0]} {rows.shape[1]}\n")
    for pos in range(rows.shape[0]):
        values = " ".join(f"{float(v):.9g}" for v in rows[pos])
        f.write(f"{pos} {values}\n")


def write_word_vectors(table: WordVectorTable, path: str):
    """Write a table back out; floats keep 9 significant digits (float32 exact)."""
    with open(path, "w", encoding="utf-8") as f:
        for doc_id in sorted(table.documents):
            chan = table.documents[doc_id]
            _write_block(f, "base", doc_id, chan.base)
            if chan.sa_key is not None:
                _write_block(f, "sa_key", doc_id, chan.sa_key)
            if chan.sa_query is not None:
                _write_block(f, "sa_query", doc_id, chan.sa_query)
        for qid in sorted(table.questions):
            q = table.questions[qid]
            _write_block(f, "base", qid, q.base)
            for k in sorted(q.scores):
                _write_block(f, f"score{k}", qid, q.scores[k].reshape(-1, 1))


def _toy_rng(seed: int, kind: str, ident) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}/{kind}/{ident}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def toy_word_vector_table(
    corpus: "Corpus",
    dim: int = 16,
    seed: int = 0,
    with_sa: bool = True,
) -> WordVectorTable:
    """Deterministic hash-seeded word vectors for tests and smoke runs.

    Every (seed, channel, id) pair maps to an independent counter-based
    stream, so tables are reproducible across platforms and insertion order.
    """
    table = WordVectorTable(dim=dim)
    for doc in corpus.documents:
        m = len(doc)
        base = _toy_rng(seed, "doc_base", doc.doc_id).normal(size=(m, dim))
        chan = DocChannels(doc.doc_id, base=base.astype(np.float32))
        if with_sa:
            chan.sa_key = (
                _toy_rng(seed, "sa_key", doc.doc_id).normal(size=(m, dim)).astype(np.float32)
            )
            chan.sa_query = (
                _toy_rng(seed, "sa_query", doc.doc_id).normal(size=(m, dim)).astype(np.float32)
            )
        table.documents[doc.doc_id] = chan
    for ex in corpus.examples:
        n = max(1, len(ex.question_tokens))
        q = QuestionChannels(
            ex.question_id,
            base=_toy_rng(seed, "q_base", ex.question_id).normal(size=(n, dim)).astype(np.float32),
        )
        for k, channel in enumerate(SCORE_CHANNELS):
            q.scores[k] = _toy_rng(seed, channel, ex.question_id).normal(size=n).astype(np.float32)
        table.questions[ex.question_id] = q
    return table

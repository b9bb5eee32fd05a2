"""Command-line surface: build, query, evaluate, benchmark, sweep, serve.

Exit codes: 0 success, 1 usage error, 2 data/format/config error. The log
level comes from the PIQA_LOG environment variable (default WARNING).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import signal
import sys

import numpy as np

from .alsh import AlshParams, build_alsh, load_alsh, save_alsh
from .corpus import load_squad
from .encode.wordvectors import read_word_vectors, toy_word_vector_table, write_word_vectors
from .errors import ConfigError, EngineError
from .evaluation import evaluate
from .filtering import (
    load_filter,
    save_filter,
    storage_estimate,
    sweep_thresholds,
    train_filter,
)
from .index import bench_scan, build_index, load_index, save_index, synthetic_dense_index
from .service import QueryEngine, question_encoder, serve

log = logging.getLogger("phraseindex.cli")

# --encoder names and the build_index encoder each one selects.
ENCODERS = {"tfidf": "tfidf", "dense_lstm": "lstm", "dense_lstm_sa": "lstm_sa"}


def _alsh_sidecar(index_path: str, override: str | None) -> str:
    return override if override else index_path + ".alsh"


def _load_word_vectors(path: str | None):
    return read_word_vectors(path) if path else None


def _positive(cast):
    """argparse type: a finite cast value above zero; any other value is a usage error."""

    def parse(text: str):
        value = cast(text)
        if not value > 0:  # NaN too
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _port(text: str) -> int:
    """argparse type: a TCP port, 0 (any free port) to 65535; any other value is a usage error."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, got {text!r}")
    return port


_port.__name__ = "int"  # argparse names it in "invalid int value"


def cmd_index(args) -> int:
    corpus = load_squad(args.corpus)
    index = build_index(
        corpus,
        encoder=ENCODERS[args.encoder],
        max_span_len=args.max_span_len,
        window=args.window,
        word_vectors=_load_word_vectors(args.word_vectors),
        include_phrase=not args.context_only,
    )
    save_index(index, args.out)
    print(
        json.dumps(
            {"kind": index.kind, "candidates": len(index), "dim": index.dim, "out": args.out}
        )
    )
    return 0


def cmd_query(args) -> int:
    index = load_index(args.index)
    corpus = load_squad(args.corpus) if args.corpus else None
    alsh = load_alsh(_alsh_sidecar(args.index, args.alsh), index) if args.approx else None
    engine = QueryEngine(
        index,
        corpus=corpus,
        alsh=alsh,
        word_vectors=_load_word_vectors(args.word_vectors),
    )
    answers, probes = engine.answer(
        args.question, doc_id=args.doc, top_k=args.top, approx=args.approx
    )
    for rank, a in enumerate(answers, start=1):
        text = "" if a["text"] is None else f"  {a['text']!r}"
        print(f"{rank}. score={a['score']:.6f} doc={a['doc_id']} span=({a['s']},{a['e']}){text}")
    if probes is not None:
        print(f"probes: {probes}")
    if not answers:
        print("no results")
    return 0


def cmd_eval(args) -> int:
    index = load_index(args.index)
    corpus = load_squad(args.dataset)
    encode = question_encoder(index, _load_word_vectors(args.word_vectors))
    per_example: list | None = [] if args.per_example else None
    metrics = evaluate(
        index,
        corpus,
        lambda ex: encode(ex.question_tokens, ex.question_id),
        restrict_to_doc=not args.global_search,
        per_example=per_example,
    )
    report = json.dumps(metrics.to_json(), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    print(report)
    if args.per_example:
        import csv

        with open(args.per_example, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["question_id", "prediction", "f1", "em", "score"])
            writer.writerows(per_example)
    return 0


def cmd_bench(args) -> int:
    if args.index:
        index = load_index(args.index)
        if index.kind != "dense":
            raise ConfigError(f"bench scans a dense index; {args.index} is {index.kind}")
    else:
        index = synthetic_dense_index(args.candidates, args.dim, seed=args.seed)
    result = bench_scan(index, num_queries=args.queries, seed=args.seed)
    print(json.dumps(dataclasses.asdict(result), indent=2))
    return 0


def cmd_sweep(args) -> int:
    index = load_index(args.index)
    filt = load_filter(args.filter)
    corpus = load_squad(args.dataset)
    encode = question_encoder(index, _load_word_vectors(args.word_vectors))
    curve = sweep_thresholds(
        index, filt, corpus, lambda ex: encode(ex.question_tokens, ex.question_id),
        num_points=args.points, csv_path=args.out,
    )
    for p in curve.points:
        print(
            f"threshold={p.threshold:g} vectors_per_word={p.vectors_per_word:.4f} "
            f"f1={p.f1:.4f} em={p.em:.4f}"
        )
    print(f"curve written to {args.out}")
    return 0


def cmd_alsh_build(args) -> int:
    index = load_index(args.index)
    params = AlshParams(
        m=args.m, U=args.U, bits_per_table=args.bits, tables=args.tables, seed=args.seed
    )
    alsh = build_alsh(index, params)
    out = _alsh_sidecar(args.index, args.out)
    save_alsh(alsh, out)
    sizes = np.diff(alsh.indptr)
    p50, p90 = np.percentile(sizes, [50, 90]).tolist() if len(sizes) else (0.0, 0.0)
    print(
        json.dumps(
            {
                "tables": params.tables,
                "hashed_rows": alsh.codes.shape[1],
                "shared_table": len(alsh.max_norms) == 1,
                "buckets": len(sizes),
                "max_bucket": int(sizes.max(initial=0)),
                "mean_bucket": float(sizes.mean()) if len(sizes) else 0.0,
                "p50_bucket": p50,
                "p90_bucket": p90,
                "out": out,
            }
        )
    )
    return 0


def cmd_train_filter(args) -> int:
    index = load_index(args.index)
    corpus = load_squad(args.dataset)
    filt = train_filter(
        index, corpus, epochs=args.epochs, learning_rate=args.lr, seed=args.seed
    )
    save_filter(filt, args.out)
    print(json.dumps({"dim": len(filt.weights), "bias": filt.bias, "out": args.out}))
    return 0


def cmd_gen_word_vectors(args) -> int:
    corpus = load_squad(args.dataset)
    table = toy_word_vector_table(
        corpus, dim=args.dim, seed=args.seed, with_sa=not args.no_sa
    )
    write_word_vectors(table, args.out)
    print(
        json.dumps(
            {
                "documents": len(table.documents),
                "questions": len(table.questions),
                "dim": table.dim,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_stats(args) -> int:
    report: dict = {}
    if args.dataset:
        report["corpus"] = load_squad(args.dataset).stats()
    if args.index:
        index = load_index(args.index)
        report["index"] = {
            "kind": index.kind,
            "candidates": len(index),
            "dim": index.dim,
            "documents": int(len(index.doc_ids())),
            "total_words": index.total_words(),
            "file_bytes": os.path.getsize(args.index),
        }
        if index.kind == "dense":
            start, end = index.tables
            report["index"].update(start_table_rows=len(start), end_table_rows=len(end),
                                   shared_table=end is start)
        else:
            report["index"]["postings"] = len(index.ordinals)
    if not report:
        raise ConfigError("stats needs --dataset and/or --index")
    print(json.dumps(report, indent=2))
    return 0


def cmd_storage(args) -> int:
    est = storage_estimate(args.dim, args.bytes_per_value, args.vectors_per_word, args.words)
    print(
        json.dumps(
            {
                "bytes_per_word": est.bytes_per_word,
                "bytes_per_word_text": est.bytes_per_word_text,
                "total_bytes": est.total_bytes,
                "total_text": est.total_text,
            },
            indent=2,
        )
    )
    return 0


def cmd_serve(args) -> int:
    index = load_index(args.index)
    corpus = load_squad(args.corpus) if args.corpus else None
    alsh_path = _alsh_sidecar(args.index, args.alsh)
    alsh = load_alsh(alsh_path, index) if os.path.exists(alsh_path) else None
    engine = QueryEngine(
        index,
        corpus=corpus,
        alsh=alsh,
        word_vectors=_load_word_vectors(args.word_vectors),
    )
    # SIGTERM stops the server as Ctrl-C does: close the socket, exit 0.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    serve(engine, host=args.host, port=args.port)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phraseindex",
        description="Phrase-indexed extractive QA: encode every candidate span once, "
        "answer questions by inner-product search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an index from a SQuAD-format corpus")
    p.add_argument("--corpus", required=True, help="SQuAD-format JSON file")
    p.add_argument("--encoder", choices=ENCODERS, default="tfidf")
    p.add_argument("--max-span-len", type=int, default=7)
    p.add_argument("--window", type=int, default=7, help="context window for tfidf")
    p.add_argument("--context-only", action="store_true",
                   help="tfidf ablation: exclude the phrase's own tokens from its bag")
    p.add_argument("--word-vectors", help="word-vector file (dense encoders)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="answer one question against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--question", required=True, help="question text (sparse) or id (dense)")
    p.add_argument("--top", type=_positive(int), default=5)
    p.add_argument("--doc", type=int, default=None, help="restrict to one document")
    p.add_argument("--approx", action="store_true", help="use the aLSH sidecar")
    p.add_argument("--alsh", help="sidecar path (default: INDEX.alsh)")
    p.add_argument("--corpus", help="corpus JSON, enables answer text snippets")
    p.add_argument("--word-vectors", help="word-vector file (dense indexes)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score an index on a SQuAD-format dataset")
    p.add_argument("--index", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--word-vectors")
    p.add_argument("--global", dest="global_search", action="store_true",
                   help="search the whole index instead of the question's document")
    p.add_argument("--per-example", help="write per-example CSV here")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure exact-scan throughput")
    p.add_argument("--index", help="dense index file; omit to use a synthetic index")
    p.add_argument("--candidates", type=_positive(int), default=130_000)
    p.add_argument("--dim", type=_positive(int), default=1024)
    p.add_argument("--queries", type=_positive(int), default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="trace the accuracy vs storage curve")
    p.add_argument("--index", required=True, help="dense index file")
    p.add_argument("--filter", required=True, help="trained filter sidecar")
    p.add_argument("--dataset", required=True)
    p.add_argument("--word-vectors")
    p.add_argument("--points", type=_positive(int), default=5)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("alsh-build", help="hash a dense index into an aLSH sidecar")
    p.add_argument("--index", required=True)
    p.add_argument("--m", type=int, default=AlshParams.m)  # the dataclass defaults
    p.add_argument("--U", type=float, default=AlshParams.U)
    p.add_argument("--bits", type=_positive(int), default=AlshParams.bits_per_table)
    p.add_argument("--tables", type=_positive(int), default=AlshParams.tables)
    p.add_argument("--seed", type=int, default=AlshParams.seed)
    p.add_argument("--out", help="sidecar path (default: INDEX.alsh)")
    p.set_defaults(func=cmd_alsh_build)

    p = sub.add_parser("train-filter", help="fit the storage filter on gold spans")
    p.add_argument("--index", required=True, help="dense index file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="filter sidecar path")
    p.set_defaults(func=cmd_train_filter)

    p = sub.add_parser("gen-word-vectors", help="write deterministic toy word vectors")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dim", type=_positive(int), default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-sa", action="store_true", help="skip self-attention channels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_word_vectors)

    p = sub.add_parser("stats", help="print corpus and/or index statistics")
    p.add_argument("--dataset")
    p.add_argument("--index")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("storage", help="estimate index storage for a configuration")
    p.add_argument("--dim", type=_positive(int), default=1024)
    p.add_argument("--bytes-per-value", type=_positive(float), default=4)
    p.add_argument("--vectors-per-word", type=_positive(float), default=1.3)
    p.add_argument("--words", type=_positive(float), default=3e9)
    p.set_defaults(func=cmd_storage)

    p = sub.add_parser("serve", help="run the HTTP query service")
    p.add_argument("--index", required=True)
    p.add_argument("--corpus", help="corpus JSON, enables answer text snippets")
    p.add_argument("--word-vectors")
    p.add_argument("--alsh", help="sidecar path (default: INDEX.alsh, used if present)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8080)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("PIQA_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

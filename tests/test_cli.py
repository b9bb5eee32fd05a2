import contextlib
import csv
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from phraseindex.alsh import AlshParams, load_alsh
from phraseindex.cli import main
from phraseindex.corpus import load_squad
from phraseindex.encode.wordvectors import read_word_vectors
from phraseindex.filtering import apply_filter, load_filter
from phraseindex.index import load_index, save_index
from phraseindex.service import QueryEngine

DATA = Path(__file__).parent / "data" / "mini_squad.json"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with the whole artifact chain built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "dataset": str(DATA),
        "sparse": str(root / "sparse.idx"),
        "dense": str(root / "dense.idx"),
        "wv": str(root / "wv.txt"),
        "filter": str(root / "model.flt"),
    }
    rc, out, _ = run("index", "--corpus", paths["dataset"], "--out", paths["sparse"])
    assert rc == 0
    built = json.loads(out)
    assert built["kind"] == "sparse" and built["candidates"] == 504

    rc, out, _ = run(
        "gen-word-vectors", "--dataset", paths["dataset"], "--dim", "8",
        "--seed", "7", "--out", paths["wv"],
    )
    assert rc == 0
    assert json.loads(out)["documents"] == 2

    rc, out, _ = run(
        "index", "--corpus", paths["dataset"], "--encoder", "dense_lstm_sa",
        "--word-vectors", paths["wv"], "--out", paths["dense"],
    )
    assert rc == 0
    assert json.loads(out) == {"kind": "dense", "candidates": 504, "dim": 32,
                               "out": paths["dense"]}

    rc, out, _ = run(
        "alsh-build", "--index", paths["dense"], "--bits", "6", "--tables", "8",
    )
    assert rc == 0
    assert json.loads(out)["out"] == paths["dense"] + ".alsh"

    rc, out, _ = run(
        "train-filter", "--index", paths["dense"], "--dataset", paths["dataset"],
        "--epochs", "30", "--out", paths["filter"],
    )
    assert rc == 0
    assert json.loads(out)["dim"] == 32
    return paths


def test_query_ranks_five_by_default(ws):
    rc, out, _ = run(
        "query", "--index", ws["sparse"], "--question", "Who won Super Bowl 50?"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("1. score=")
    assert lines[4].startswith("5. score=")


def test_query_with_corpus_shows_answer_text(ws):
    rc, out, _ = run(
        "query", "--index", ws["sparse"], "--question", "Who won Super Bowl 50?",
        "--corpus", ws["dataset"], "--top", "3",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all("'" in line for line in lines)  # repr'd snippet present


def test_query_doc_restriction(ws):
    rc, out, _ = run(
        "query", "--index", ws["sparse"], "--question", "how long did totality last",
        "--doc", "1", "--top", "4",
    )
    assert rc == 0
    assert all("doc=1" in line for line in out.strip().splitlines())


def test_query_approx_reports_probes(ws):
    rc, out, _ = run(
        "query", "--index", ws["dense"], "--question", "q1",
        "--word-vectors", ws["wv"], "--approx", "--top", "3",
    )
    assert rc == 0
    assert "probes: " in out


def test_query_dense_uses_question_ids(ws):
    rc, out, _ = run(
        "query", "--index", ws["dense"], "--question", "q2",
        "--word-vectors", ws["wv"], "--top", "1",
    )
    assert rc == 0
    assert out.startswith("1. score=")


def test_alsh_build_reports_bucket_sizes(ws, tmp_path):
    out_path = str(tmp_path / "side.alsh")
    rc, out, _ = run(
        "alsh-build", "--index", ws["dense"], "--bits", "4", "--tables", "3", "--out", out_path,
    )
    assert rc == 0
    report = json.loads(out)
    index = load_index(ws["dense"])
    codes = load_alsh(out_path, index).codes
    sizes = [count for row in codes for count in np.unique(row, return_counts=True)[1]]
    assert report["buckets"] == len(sizes)
    assert report["max_bucket"] == max(sizes)
    assert report["mean_bucket"] == pytest.approx(sum(sizes) / len(sizes))
    assert report["p50_bucket"] == np.percentile(sizes, 50)
    assert report["p90_bucket"] == np.percentile(sizes, 90)
    # An encoder-built index holds each token once: each table row once per hash table.
    assert "shared_table" not in report
    assert report["hashed_rows"] == len(index.table) == 78 < len(index) == 504
    assert sum(sizes) == 3 * report["hashed_rows"]


def test_alsh_build_defaults_are_alsh_params_defaults(ws, tmp_path):
    out_path = str(tmp_path / "side.alsh")
    rc, out, _ = run("alsh-build", "--index", ws["dense"], "--out", out_path)
    assert rc == 0
    assert json.loads(out)["tables"] == AlshParams().tables
    assert load_alsh(out_path, load_index(ws["dense"])).params == AlshParams()


def test_eval_sparse_writes_metrics(ws, tmp_path):
    out_path = tmp_path / "metrics.json"
    per_path = tmp_path / "per.csv"
    rc, out, _ = run(
        "eval", "--index", ws["sparse"], "--dataset", ws["dataset"],
        "--out", str(out_path), "--per-example", str(per_path),
    )
    assert rc == 0
    printed = json.loads(out)
    assert set(printed) == {"f1", "exact_match", "count"}
    assert printed["count"] == 4
    assert json.loads(out_path.read_text()) == printed
    rows = per_path.read_text().strip().splitlines()
    assert rows[0] == "question_id,prediction,f1,em,score"
    assert len(rows) == 5


def test_eval_dense_and_global_mode(ws):
    rc, out, _ = run(
        "eval", "--index", ws["dense"], "--dataset", ws["dataset"],
        "--word-vectors", ws["wv"], "--global",
    )
    assert rc == 0
    assert json.loads(out)["count"] == 4


def test_eval_dense_without_word_vectors_is_a_config_error(ws):
    rc, _, err = run("eval", "--index", ws["dense"], "--dataset", ws["dataset"])
    assert rc == 2
    assert "word-vectors" in err


@pytest.mark.parametrize("global_search", [False, True])
def test_eval_rows_match_engine_answers(ws, tmp_path, global_search):
    # eval and QueryEngine encode questions through the same question_encoder.
    rows_path = tmp_path / "rows.csv"
    argv = ["eval", "--index", ws["dense"], "--dataset", ws["dataset"],
            "--word-vectors", ws["wv"], "--per-example", str(rows_path)]
    rc, _, _ = run(*argv, *(["--global"] if global_search else []))
    assert rc == 0
    corpus = load_squad(ws["dataset"])
    engine = QueryEngine(
        load_index(ws["dense"]), corpus=corpus, word_vectors=read_word_vectors(ws["wv"])
    )
    with open(rows_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["question_id"] for r in rows] == [ex.question_id for ex in corpus.examples]
    for row, ex in zip(rows, corpus.examples):
        (top,), _ = engine.answer(ex.question_id, doc_id=None if global_search else ex.doc_id)
        assert row["prediction"] == top["text"]
        assert float(row["score"]) == pytest.approx(top["score"], rel=1e-5)


def test_bench_synthetic(ws):
    rc, out, _ = run("bench", "--candidates", "2600", "--dim", "16", "--queries", "3")
    assert rc == 0
    result = json.loads(out)
    assert result["num_candidates"] == 2600
    assert result["dim"] == 16
    assert result["words_per_second"] > 0


def test_bench_on_built_index(ws):
    rc, out, _ = run("bench", "--index", ws["dense"], "--queries", "2")
    assert rc == 0
    assert json.loads(out)["num_candidates"] == 504


def test_sweep_writes_curve(ws, tmp_path):
    csv_path = tmp_path / "curve.csv"
    rc, out, _ = run(
        "sweep", "--index", ws["dense"], "--filter", ws["filter"],
        "--dataset", ws["dataset"], "--word-vectors", ws["wv"],
        "--points", "4", "--out", str(csv_path),
    )
    assert rc == 0
    assert f"curve written to {csv_path}" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "threshold,vectors_per_word,f1,em"
    assert len(lines) >= 2
    assert lines[1].startswith("-inf,")


def test_stats_reports_both_blocks(ws):
    rc, out, _ = run("stats", "--dataset", ws["dataset"], "--index", ws["sparse"])
    assert rc == 0
    report = json.loads(out)
    assert report["corpus"]["documents"] == 2
    assert report["corpus"]["examples"] == 4
    assert report["index"]["candidates"] == 504
    assert report["index"]["total_words"] == report["corpus"]["tokens"] == 78


def test_stats_reports_the_index_layout(ws, tmp_path):
    """A dense index counts its word-table rows, one a token when encoder-built
    and no more when filtered; a sparse one counts its postings."""
    dense = load_index(ws["dense"])
    filt = load_filter(ws["filter"])
    filtered = apply_filter(dense, filt, float(np.median(filt.score(dense.vectors))))[0]
    save_index(filtered, str(tmp_path / "filtered.idx"))
    reports = {}
    for name, path in [("dense", ws["dense"]), ("filtered", str(tmp_path / "filtered.idx")),
                       ("sparse", ws["sparse"])]:
        rc, out, _ = run("stats", "--index", path)
        assert rc == 0
        reports[name] = json.loads(out)["index"]
        assert reports[name]["file_bytes"] == Path(path).stat().st_size
    tokens = reports["dense"]["total_words"]
    assert reports["dense"]["table_rows"] == tokens
    assert reports["filtered"]["table_rows"] == len(filtered.table) < tokens
    assert reports["sparse"]["postings"] == len(load_index(ws["sparse"]).ordinals)
    assert "table_rows" not in reports["sparse"] and "postings" not in reports["dense"]


def test_mistyped_dataset_field_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    qa = {"id": "q", "question": "q?", "answers": [{"text": "a", "answer_start": "0"}]}
    bad.write_text(json.dumps({"data": [{"paragraphs": [{"context": "a b", "qas": [qa]}]}]}))
    rc, out, err = run("stats", "--dataset", str(bad))
    assert rc == 2 and out == ""
    assert "field 'answer_start' at data[0].paragraphs[0].qas[0].answers[0]" in err


def test_stats_without_arguments_fails(ws):
    rc, _, err = run("stats")
    assert rc == 2
    assert "stats needs" in err


def test_storage_defaults_match_reference_figures():
    rc, out, _ = run("storage")
    assert rc == 0
    report = json.loads(out)
    assert report["bytes_per_word"] == pytest.approx(5324.8)
    assert report["bytes_per_word_text"] == "5.2 KB"
    assert report["total_bytes"] == pytest.approx(1.59744e13)
    assert report["total_text"] == "15.6 TB"


def test_storage_custom_configuration():
    rc, out, _ = run(
        "storage", "--dim", "2", "--bytes-per-value", "1",
        "--vectors-per-word", "1", "--words", "1",
    )
    assert rc == 0
    assert json.loads(out)["bytes_per_word_text"] == "2 B"


@pytest.mark.parametrize(
    "argv", [["--words", "inf"], ["--vectors-per-word", "1e400"], ["--bytes-per-value", "Infinity"]]
)
def test_storage_refuses_non_finite_values(argv):
    rc, out, err = run("storage", *argv)
    assert rc == 1 and out == ""
    assert err.strip().splitlines()[-1].endswith(
        f"error: argument {argv[0]}: must be finite, got '{argv[1]}'"
    )


@pytest.mark.parametrize(
    "argv", [["--words", "1e308", "--vectors-per-word", "1e10"], ["--dim", "1" + "0" * 400]]
)
def test_storage_estimate_that_overflows_exits_two(argv):
    rc, out, err = run("storage", *argv)
    assert rc == 2 and out == ""
    assert err == "error: the storage estimate overflows: more bytes than a float holds\n"


def test_context_only_changes_the_index(ws, tmp_path):
    ablated = tmp_path / "ablate.idx"
    rc, _, _ = run(
        "index", "--corpus", ws["dataset"], "--context-only", "--out", str(ablated)
    )
    assert rc == 0
    assert ablated.read_bytes() != Path(ws["sparse"]).read_bytes()


def test_usage_errors_exit_one(ws):
    assert run("no-such-command")[0] == 1
    assert run("index", "--corpus", ws["dataset"])[0] == 1  # missing --out
    assert run()[0] == 1


def test_help_exits_zero():
    rc, out, _ = run("--help")
    assert rc == 0
    assert "phraseindex" in out


def test_missing_files_exit_two(ws, tmp_path):
    rc, _, err = run("query", "--index", str(tmp_path / "nope.idx"), "--question", "x")
    assert rc == 2 and "error:" in err
    rc, _, err = run("eval", "--index", ws["sparse"], "--dataset", str(tmp_path / "no.json"))
    assert rc == 2 and "error:" in err


def test_corrupt_index_exits_two(ws, tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"garbage bytes here")
    rc, _, err = run("query", "--index", str(bad), "--question", "x")
    assert rc == 2
    assert "bad magic" in err


def test_query_approx_without_sidecar_exits_two(ws, tmp_path):
    rc, _, err = run(
        "query", "--index", ws["sparse"], "--question", "x",
        "--approx", "--alsh", str(tmp_path / "missing.alsh"),
    )
    assert rc == 2
    assert "error:" in err


def test_query_with_a_corpus_missing_an_indexed_document_exits_two(ws, tmp_path):
    squad = json.loads(Path(ws["dataset"]).read_text())
    del squad["data"][0]["paragraphs"][1:]  # keep the first paragraph, document 0
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(squad))
    rc, out, err = run(
        "query", "--index", ws["sparse"], "--question", "x", "--corpus", str(cut)
    )
    assert rc == 2 and out == ""
    assert "error: indexed document 1 is not in the corpus (1 documents)" in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_eval_and_sweep_with_a_corpus_missing_an_indexed_document_exit_two(
    ws, tmp_path, command
):
    # Cut to document 0, with q2 reworded so that its best whole-corpus hit is in document 1.
    squad = json.loads(Path(ws["dataset"]).read_text())
    del squad["data"][0]["paragraphs"][1:]
    squad["data"][0]["paragraphs"][0]["qas"][1]["question"] = (
        "path of totality crossed how many states"
    )
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(squad))
    if command == "eval":
        argv = ["eval", "--index", ws["sparse"], "--dataset", str(cut), "--global"]
    else:
        argv = ["sweep", "--index", ws["dense"], "--filter", ws["filter"], "--dataset", str(cut),
                "--word-vectors", ws["wv"], "--out", str(tmp_path / "curve.csv")]
    rc, out, err = run(*argv)
    assert rc == 2 and out == ""
    assert "error: indexed document 1 is not in the corpus (1 documents)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "--index", "{sparse}", "--question", "x", "--top", "0"],
        ["bench", "--candidates", "0"],
        ["bench", "--dim", "-3"],
        ["bench", "--queries", "0"],
        ["sweep", "--index", "{dense}", "--filter", "{filter}", "--dataset", "{dataset}",
         "--out", "curve.csv", "--points", "0"],
        ["storage", "--dim", "0"],
        ["storage", "--bytes-per-value", "0"],
        ["storage", "--vectors-per-word", "-1.3"],
        ["storage", "--words", "nan"],
        ["alsh-build", "--index", "{dense}", "--bits", "0"],
        ["alsh-build", "--index", "{dense}", "--tables", "0"],
        ["gen-word-vectors", "--dataset", "{dataset}", "--out", "wv.txt", "--dim", "0"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}",
)
def test_non_positive_values_are_usage_errors(ws, argv):
    rc, out, err = run(*(arg.format(**ws) for arg in argv))
    assert rc == 1 and out == ""
    assert err.strip().splitlines()[-1].endswith(
        f"error: argument {argv[-2]}: must be positive, got '{argv[-1]}'"
    )


def test_bench_on_a_sparse_index_exits_two(ws):
    rc, out, err = run("bench", "--index", ws["sparse"])
    assert rc == 2 and out == ""
    assert f"error: bench needs a dense index; {ws['sparse']} is sparse" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bench",),
        ("sweep", "--filter", "{filter}", "--dataset", "{dataset}", "--out", "{tmp}/curve.csv"),
        ("alsh-build", "--out", "{tmp}/side.alsh"),
        ("train-filter", "--dataset", "{dataset}", "--out", "{tmp}/model.flt"),
    ],
    ids=lambda argv: argv[0],
)
def test_dense_only_commands_on_a_sparse_index_exit_two(ws, tmp_path, argv):
    """Each command that needs a dense index refuses a sparse one with an error
    line, as a data error, and writes nothing."""
    args = [arg.format(**ws, tmp=tmp_path) for arg in argv]
    rc, out, err = run(args[0], "--index", ws["sparse"], *args[1:])
    assert rc == 2 and out == ""
    assert err == f"error: {argv[0]} needs a dense index; {ws['sparse']} is sparse\n"
    assert list(tmp_path.iterdir()) == []


def test_query_dense_without_word_vectors_exits_two(ws):
    rc, _, err = run("query", "--index", ws["dense"], "--question", "q1")
    assert rc == 2
    assert "word" in err


def test_non_numeric_word_vectors_exit_two(ws, tmp_path):
    wv = tmp_path / "wv.txt"
    wv.write_text("base 0 1 2\n0 1 abc\n")
    out = tmp_path / "x.idx"
    rc, _, err = run(
        "index", "--corpus", ws["dataset"], "--encoder", "dense_lstm",
        "--word-vectors", str(wv), "--out", str(out),
    )
    assert rc == 2
    assert err.startswith("error:") and f"{wv}:2: " in err
    assert not out.exists()


def test_non_utf8_word_vectors_exit_two(ws, tmp_path):
    wv = tmp_path / "wv.txt"
    wv.write_bytes(b"base 0 1 2\n0 1 \xff\n")
    rc, out, err = run(
        "query", "--index", ws["dense"], "--question", "q1", "--word-vectors", str(wv),
    )
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{wv}: not valid UTF-8" in err


def test_question_of_no_positions_exits_two(ws, tmp_path):
    wv = tmp_path / "wv.txt"
    wv.write_text("base q1 0 8\n" + "".join(f"score{k} q1 0 1\n" for k in range(4)))
    rc, out, err = run(
        "query", "--index", ws["dense"], "--question", "q1", "--word-vectors", str(wv),
    )
    assert rc == 2 and out == ""
    assert err == f"error: {wv}: question 'q1' has no positions\n"


@pytest.fixture
def bad_document_value(ws, tmp_path):
    """ws's word vectors with a value of document 0's first base line spoiled."""
    lines = Path(ws["wv"]).read_text().splitlines(keepends=True)
    assert lines[0].startswith("base 0 ") and lines[1].startswith("0 ")
    fields = lines[1].split(" ")
    lines[1] = " ".join([fields[0], "abc", *fields[2:]])
    wv = tmp_path / "wv.txt"
    wv.write_text("".join(lines))
    return wv


def test_bad_document_value_fails_the_dense_build(ws, tmp_path, bad_document_value):
    out = tmp_path / "dense.idx"
    rc, stdout, err = run(
        "index", "--corpus", ws["dataset"], "--encoder", "dense_lstm_sa",
        "--word-vectors", str(bad_document_value), "--out", str(out),
    )
    assert rc == 2 and stdout == ""
    assert err.startswith(f"error: {bad_document_value}:2: could not convert string to float")
    assert not out.exists()


def test_bad_document_value_does_not_stop_a_dense_query(ws, bad_document_value):
    args = ("query", "--index", ws["dense"], "--question", "q1", "--top", "2")
    rc, out, _ = run(*args, "--word-vectors", str(bad_document_value))
    assert rc == 0
    assert (rc, out) == run(*args, "--word-vectors", ws["wv"])[:2]


def test_deeply_nested_corpus_exits_two(tmp_path):
    corpus = tmp_path / "deep.json"
    corpus.write_text("[" * 100_000)
    rc, out, err = run("index", "--corpus", str(corpus), "--out", str(tmp_path / "x.idx"))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{corpus}: not valid JSON" in err


@pytest.mark.parametrize("flag, value", [("--max-span-len", "0"), ("--window", "-1")])
def test_index_rejects_bad_span_parameters(ws, tmp_path, flag, value):
    out = tmp_path / "x.idx"
    rc, _, err = run("index", "--corpus", ws["dataset"], flag, value, "--out", str(out))
    assert rc == 2
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert not out.exists()


def test_serve_dense_without_word_vectors_exits_two_at_start(ws):
    with mock.patch("phraseindex.cli.serve", side_effect=AssertionError("server started")):
        rc, _, err = run("serve", "--index", ws["dense"], "--port", "0")
    assert rc == 2
    assert "--word-vectors" in err


@pytest.mark.parametrize("port", ["-5", "70000"])
def test_out_of_range_port_is_a_usage_error(ws, port):
    with mock.patch("phraseindex.cli.serve", side_effect=AssertionError("server started")):
        rc, out, err = run("serve", "--index", ws["sparse"], "--port", port)
    assert rc == 1 and out == ""
    assert err.strip().splitlines()[-1].endswith(
        f"error: argument --port: must be 0-65535, got '{port}'"
    )


def test_module_invocation_matches_script():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "phraseindex", "storage", "--dim", "1024"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bytes_per_word"] == 5324.8


def test_serve_stops_on_sigterm_with_exit_zero(ws):
    import signal
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "phraseindex", "serve", "--index", ws["sparse"],
         "--corpus", ws["dataset"], "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout.readline().startswith("listening on")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()

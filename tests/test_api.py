"""The README's Python API section runs as written and names the package's whole top level."""

import ast
import re
from pathlib import Path

import phraseindex

ROOT = Path(__file__).resolve().parent.parent


def python_api_snippets() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_python_api_snippets_run(monkeypatch, capsys, mini_corpus):
    snippets = python_api_snippets()
    assert len(snippets) == 2
    monkeypatch.chdir(ROOT)  # the snippets read tests/data/mini_squad.json
    scope: dict = {}
    for code in snippets:
        exec(code, scope)
    assert len(capsys.readouterr().out.splitlines()) == 3  # k_top=3 hits
    assert scope["metrics"].count == len(mini_corpus.examples)


def test_top_level_names_are_the_ones_the_readme_imports():
    imported = set()
    for code in python_api_snippets():
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and node.module == "phraseindex":
                imported.update(alias.name for alias in node.names)
    assert sorted(phraseindex.__all__) == sorted(imported)
    assert all(hasattr(phraseindex, name) for name in phraseindex.__all__)


def test_encoder_modules_import_by_name():
    # The benchmark harness imports the encoders this way.
    from phraseindex.encode import dense, tfidf, wordvectors

    assert callable(dense.compose_question)
    assert callable(tfidf.tfidf_question_encode)
    assert callable(wordvectors.read_word_vectors)

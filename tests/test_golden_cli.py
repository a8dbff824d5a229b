"""Replay the golden CLI corpus (tests/golden/cli.jsonl) through cli.main."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).parent / "golden" / "cli_corpus.py"


def _corpus_module():
    spec = importlib.util.spec_from_file_location("cli_corpus", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_answers_as_the_golden_corpus(tmp_path, monkeypatch):
    """Every request gives the recorded exit code, stdout and stderr, and
    the corpus holds exactly the requests its script lists."""
    corpus = _corpus_module()
    lines = [json.loads(line) for line in corpus.GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert [line["argv"] for line in lines] == list(corpus.requests())
    monkeypatch.setenv("COLUMNS", "80")
    corpus.write_inputs(tmp_path)
    answers = [corpus.answer(line["argv"], tmp_path) for line in lines]
    changed = [line["argv"] for line, now in zip(lines, answers) if now != line]
    assert not changed, f"{len(changed)} requests answer differently, first {changed[:5]}"

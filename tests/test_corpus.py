"""The committed report corpus, ``tests/corpus.json``, replayed in process.

Every report but the full-size ``simulate`` ones (200 000 hands, a few
seconds) must hash as stored; ``python tools/corpus.py --check`` replays
those too.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
_SPEC = importlib.util.spec_from_file_location("corpus", _PATH)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

_FULL_HANDS = str(corpus.workloads.HANDS["full"])


def test_the_corpus_lists_every_command_line_of_the_tool():
    assert [entry["argv"] for entry in corpus.load()] == corpus.argvs()


def test_every_report_but_the_full_size_simulations_is_as_stored():
    stored = corpus.load()
    entries = [e for e in stored if _FULL_HANDS not in e["argv"]]
    # Three seeds, three commands, three formats.
    assert len(stored) - len(entries) == 27
    assert corpus.differences(entries) == []


def _interpreter(tmp_path, name, summary, code):
    """A stand-in interpreter that prints a replay summary and exits."""
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\necho '{summary}'\nexit {code}\n")
    path.chmod(0o755)
    return str(path)


def test_python_mode_prints_a_line_per_interpreter(tmp_path, capsys):
    clean = _interpreter(tmp_path, "clean", "261 entries, 0 differences", 0)
    assert corpus.main(["--python", clean, clean]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{clean}: 261 entries, 0 differences"
    ] * 2


def test_python_mode_fails_if_any_interpreter_differs(tmp_path, capsys):
    clean = _interpreter(tmp_path, "clean", "261 entries, 0 differences", 0)
    differs = _interpreter(tmp_path, "differs", "261 entries, 2 differences", 1)
    missing = str(tmp_path / "missing")
    assert corpus.main(["--python", clean, differs, missing]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        f"{clean}: 261 entries, 0 differences",
        f"{differs}: 261 entries, 2 differences (exit 1)",
    ]
    assert out[2].startswith(f"{missing}: cannot run: ")
    assert corpus.main(["--python"]) == 2

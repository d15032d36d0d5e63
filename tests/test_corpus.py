"""The committed report corpus, ``tests/corpus.json``, replayed in process.

Every report but the full-size ``simulate`` ones (200 000 hands, a few
seconds) must hash as stored, and so must the three full-size ones of
seed 0; ``python tools/corpus.py --check`` replays all of them.
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


def test_the_seed_0_full_size_simulations_are_as_stored():
    """One 200 000-hand run per variant, large enough to play its back
    half in a forked child where the process may use two CPUs."""
    script = corpus.workloads.script("simulate", 0, "full")
    wanted = [[*argv, "--format", "json"] for argv in script]
    entries = [e for e in corpus.load() if e["argv"] in wanted]
    assert [e["argv"] for e in entries] == wanted
    assert corpus.differences(entries) == []


def _interpreter(tmp_path, name, summary, code, seconds="0.0451"):
    """A stand-in interpreter.  Run under ``-S`` (the bytecode compile
    and each timed import) it prints ``seconds``; run otherwise (the
    replay) it prints a replay summary and exits with ``code``."""
    path = tmp_path / name
    path.write_text(
        f"#!/bin/sh\nif [ \"$1\" = -S ]; then echo '{seconds}'; exit 0; fi\n"
        f"echo '{summary}'\nexit {code}\n"
    )
    path.chmod(0o755)
    return str(path)


def test_python_mode_prints_a_line_per_interpreter(tmp_path, capsys):
    clean = _interpreter(tmp_path, "clean", "261 entries, 0 differences", 0)
    assert corpus.main(["--python", clean, clean]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{clean}: 261 entries, 0 differences",
        f"{clean}: import baccarat.cli 45.1 ms (-S, best of 7)",
    ] * 2


def test_python_mode_fails_if_any_interpreter_differs(tmp_path, capsys):
    clean = _interpreter(tmp_path, "clean", "261 entries, 0 differences", 0)
    differs = _interpreter(tmp_path, "differs", "261 entries, 2 differences", 1)
    untimed = _interpreter(tmp_path, "untimed", "261 entries, 0 differences", 0,
                           seconds="no time")
    missing = str(tmp_path / "missing")
    assert corpus.main(["--python", clean, differs, untimed, missing]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        f"{clean}: 261 entries, 0 differences",
        f"{clean}: import baccarat.cli 45.1 ms (-S, best of 7)",
        f"{differs}: 261 entries, 2 differences (exit 1)",
        f"{differs}: import baccarat.cli 45.1 ms (-S, best of 7)",
        f"{untimed}: 261 entries, 0 differences",
    ]
    assert out[5].startswith(f"{untimed}: cannot time the import: ")
    assert out[6].startswith(f"{missing}: cannot run: ")
    assert len(out) == 7
    assert corpus.main(["--python"]) == 2

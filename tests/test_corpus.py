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

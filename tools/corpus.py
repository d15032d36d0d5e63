"""The report corpus: every report of the benchmark's workload scripts and
of the pinned command lines of ``tests/test_cli.py``, stored as hashes.

Each command line runs through ``baccarat.cli.run`` in this process.  For
each one ``tests/corpus.json`` keeps the exit code, the sha256 of stdout
and the text of stderr, so a rewrite of the package can show that every
report stays byte for byte as it was.

    python tools/corpus.py           # write tests/corpus.json
    python tools/corpus.py --check   # replay it; list each difference
    python tools/corpus.py --python PATH ...  # --check under each PATH

The command lines are those of ``benchmarks/workloads.py`` for seeds 0-2,
tiny and full, each in json, text and csv, then the pinned ones of
``tests/test_cli.py``, read from its source.  ``--python`` runs
``--check`` under each interpreter given, with deprecation warnings as
errors, and prints one line for each; it needs no ``pytest``.  Standard
library only.
"""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "corpus.json"
sys.path.insert(0, str(ROOT / "src"))

from baccarat import cli  # noqa: E402

_SPEC = importlib.util.spec_from_file_location(
    "workloads", ROOT / "benchmarks" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

#: The pinned reports of ``tests/test_cli.py``, and the format flags its
#: tests add to each command line.
_PINNED = {
    "PINNED_REPORTS": ["--format", "json"],
    "PINNED_TEXT_AND_CSV_REPORTS": [],
    "PINNED_SIMULATE_REPORTS": ["--format", "json"],
}


def _pinned() -> list[list[str]]:
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    argvs = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in _PINNED:
            flags = _PINNED[node.targets[0].id]
            argvs += [[*argv, *flags] for argv in ast.literal_eval(node.value)]
    return argvs


def argvs() -> list[list[str]]:
    """Every command line of the corpus, each once, in a fixed order."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in range(3):
            for size in ("tiny", "full"):
                for fmt in ("json", "text", "csv"):
                    out += [[*argv, "--format", fmt]
                            for argv in workloads.script(workload, seed, size)]
    out += _pinned()
    return [argv for i, argv in enumerate(out) if argv not in out[:i]]


def replay(argv: list[str]) -> dict:
    """The corpus entry of one command line, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def differences(entries: list[dict]) -> list[str]:
    """One line per stored entry whose replay differs from it."""
    out = []
    for entry in entries:
        now = replay(entry["argv"])
        for key in ("exit", "stdout_sha256", "stderr"):
            if now[key] != entry[key]:
                out.append(f"{' '.join(entry['argv'])}: {key} "
                           f"{entry[key]!r} -> {now[key]!r}")
    return out


def check_under(pythons: list[str]) -> int:
    """Replay the corpus under each interpreter; 1 if any differs."""
    failed = 0
    for python in pythons:
        command = [python, "-W", "error::DeprecationWarning",
                   str(Path(__file__).resolve()), "--check"]
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        except OSError as exc:
            print(f"{python}: cannot run: {exc}")
            failed += 1
            continue
        lines = proc.stdout.splitlines() or ["no output"]
        status = "" if proc.returncode == 0 else f" (exit {proc.returncode})"
        print(f"{python}: {lines[-1]}{status}")
        failed += proc.returncode != 0
    return 1 if failed else 0


def main(args: list[str]) -> int:
    if args == ["--check"]:
        entries = load()
        found = differences(entries)
        for line in found:
            print(line, file=sys.stderr)
        print(f"{len(entries)} entries, {len(found)} differences")
        return 1 if found else 0
    if args[:1] == ["--python"] and args[1:]:
        return check_under(args[1:])
    if args:
        print("usage: python tools/corpus.py [--check | --python PATH ...]",
              file=sys.stderr)
        return 2
    entries = [replay(argv) for argv in argvs()]
    # One entry a line, so that a change shows as the lines it changes.
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

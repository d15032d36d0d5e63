"""One benchmark worker: a fresh process that runs one command script.

``run.py`` starts it as ``python3 worker.py <t0>`` with ``PYTHONPATH``
pointing at the checkout's ``src``, where ``t0`` is the system-wide
monotonic clock read just before the process was started.  The worker
imports ``baccarat.cli`` first, so ``setup_s`` covers interpreter start
and import, and every ``lru_cache`` in the package starts cold.  It then
reads the job ``{"script": [...], "trace": bool}`` from stdin, runs each
argv through ``baccarat.cli.run`` with ``--format json``, and writes one
JSON result to stdout.  The program's own output is captured per
command; nothing of it reaches the worker's stdout.
"""

import sys
import time

_T0 = float(sys.argv[1])
import baccarat.cli  # noqa: E402  (the import is what setup_s measures)

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import spans  # only traced runs load the tracer

        tracer = spans.install()
    cli = baccarat.cli
    commands = []
    start = time.perf_counter()
    for argv in job["script"]:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(["--format", "json", *argv])
            except Exception:  # noqa: BLE001 - recorded as a failed command
                traceback.print_exc()
                code = -1
        commands.append({"argv": argv, "code": code,
                         "seconds": time.perf_counter() - t,
                         "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]})
    wall = time.perf_counter() - start
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_file": baccarat.cli.__file__,
        "commands": commands,
        "trace": tracer.report() if tracer else None,
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

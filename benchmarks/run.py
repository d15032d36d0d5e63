"""Benchmark of the ``baccarat`` CLI: three seeded workloads, checked outputs.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload analysis --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Load model: a closed loop with one client.  Each repetition of the
workload's command script runs in a fresh worker process (so every
``lru_cache`` starts cold, as in a real CLI invocation), one command at a
time.  Repetitions go on until ``--seconds`` is spent; figures are
medians over repetitions.  Every command's report is checked by
``check.py``; a failed check counts in ``failed`` and does not stop the
run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced repetitions (for the per-command figures and the
overhead base) and half on traced ones (see ``spans.py``), prints the
per-layer metrics, and writes every span to ``.bench_out/``.  The last
line of stdout is always the JSON result; the line before it records
provenance.  ``--smoke`` runs tiny scripts of every workload and checks
that every metric named in ``BENCHMARK.json`` is emitted and that a
tampered report is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
#: A run must end within 180 s, so it starts no repetition it cannot finish by then.
DEADLINE_S = 150.0
#: Workers with an empty script started per run, on top of one per repetition.
SETUP_PROBES = 5

E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Per-command figures from untraced repetitions; 0 where a workload has no such command.
COMMAND_METRICS = {
    "solve_classic_ms": "ms", "alpha_star_s": "s", "sweep_s": "s",
    "oracle_entry_ms": "ms", "hands_per_s": "1/s",
}


#: Workers may cache bytecode, as an installed package does, so after the
#: first worker ``setup_s`` measures the import and not compilation.
_WORKER_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
               "PYTHONPATH": str(SRC)}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(job: dict, deadline: float) -> dict:
    """Start one worker, give it ``job``, return its result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(_clock())], stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=_WORKER_ENV)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - _clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
    result = json.loads(out)
    if not Path(result["cli_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported baccarat from {result['cli_file']}, not {SRC}")
    return result


def _repetition(script, trace: bool, deadline: float, tamper_at=None) -> dict:
    """One fresh worker runs the script; every report is checked."""
    rep = _spawn({"script": script, "trace": trace}, deadline)
    rep["failed"] = 0
    for i, cmd in enumerate(rep["commands"]):
        text = check.tamper(cmd["stdout"]) if i == tamper_at else cmd["stdout"]
        found = check.problems(cmd["argv"], cmd["code"], text)
        if found:
            rep["failed"] += 1
            print(f"FAILED {' '.join(cmd['argv'])}: {found[:3]} {cmd['stderr'][-500:]}",
                  file=sys.stderr)
        del cmd["stdout"]
    return rep


def _repeat(script, trace: bool, budget: float, min_reps: int, deadline: float) -> list:
    """Repetitions until ``budget`` seconds are spent (at least ``min_reps``)."""
    reps, start = [], _clock()
    while True:
        reps.append(_repetition(script, trace, deadline))
        spent = _clock() - start
        per_rep = spent / len(reps)
        if _clock() + per_rep > deadline:
            return reps
        if len(reps) >= min_reps and spent + per_rep > budget:
            return reps


def _command_metrics(rep: dict) -> dict[str, float]:
    cmds = rep["commands"]

    def seconds(kind):
        return [c["seconds"] for c in cmds if c["argv"][0] == kind]

    classic = [c["seconds"] for c in cmds if c["argv"][:2] == ["solve", "classic"]]
    oracle = [c for c in cmds if c["argv"][0] == "oracle"]
    sims = [c for c in cmds if c["argv"][0] == "simulate"]
    hands = sum(int(c["argv"][c["argv"].index("--hands") + 1]) for c in sims)
    return {
        "solve_classic_ms": 1e3 * statistics.median(classic) if classic else 0.0,
        "alpha_star_s": sum(seconds("alpha-star")),
        "sweep_s": sum(seconds("sweep")),
        # The first oracle command is the cold one; classic has 32 entries, modern 8.
        "oracle_entry_ms": (1e3 * oracle[0]["seconds"]
                            / (8 if "modern" in oracle[0]["argv"] else 32)) if oracle else 0.0,
        "hands_per_s": hands / sum(c["seconds"] for c in sims) if sims else 0.0,
    }


def _median_of(dicts: list[dict]) -> dict[str, float]:
    """Per-key medians; counts stay whole numbers."""
    return {k: (statistics.median_low if isinstance(dicts[0][k], int) else statistics.median)(
        [d[k] for d in dicts]) for k in dicts[0]}


def _proc_state() -> dict:
    """Load average and CPU-steal jiffies, read from /proc."""
    state = {}
    try:
        state["loadavg"] = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        state["steal_jiffies"] = int(cpu[8])
    except (OSError, IndexError, ValueError):
        pass
    return state


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Measure one workload; returns the result that ``main`` prints last."""
    deadline = _clock() + DEADLINE_S
    script = workloads.script(workload, seed, size)
    prov = dict(provenance(), workload=workload, seed=seed, seconds=seconds,
                trace=trace, start=_proc_state())
    if not trace:
        setups = [_spawn({"script": [], "trace": False}, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        reps = _repeat(script, False, seconds, 2, deadline)
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        units = E2E
        traced = []
    else:
        plain = _repeat(script, False, seconds / 2, 1, deadline)
        traced = _repeat(script, True, seconds / 2, 1, deadline)
        metrics = _median_of([spans.layer_metrics(r["trace"]) for r in traced])
        metrics.update(_median_of([_command_metrics(r) for r in plain]))
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain))
        units = {**{k: v[0] for k, v in spans.LAYER_METRICS.items()},
                 **COMMAND_METRICS, "trace.overhead_ratio": "ratio"}
        reps = plain + traced
    prov["end"] = _proc_state()
    prov["wall_s_per_rep"] = [r["wall_s"] for r in reps]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "provenance": prov, "metrics": metrics,
            "targets": {k: v[2] for k, v in spans.LAYER_METRICS.items()},
            "script": script, "traces": [r["trace"] for r in traced]}))
        prov["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"provenance": prov}))
    return {
        "correct": all(r["failed"] == 0 for r in reps),
        "attempted": sum(len(r["commands"]) for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def smoke() -> list[str]:
    """Tiny runs of every workload; returns what is wrong, if anything."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wrong = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload, 0, 1, trace, size="tiny")
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                wrong.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
                             " differ from BENCHMARK.json")
            if not trace and not all(v["value"] > 0 for v in result["metrics"].values()):
                wrong.append(f"{workload}: an end-to-end metric reads 0")
            if not result["correct"] or result["failed"]:
                wrong.append(f"{workload} trace={trace}: {result['failed']} commands failed")
    script = workloads.script("oracle", 0, "tiny")
    rep = _repetition(script, False, _clock() + DEADLINE_S, tamper_at=len(script) - 1)
    if rep["failed"] != 1:
        wrong.append(f"a tampered report gave failed={rep['failed']}, not 1")
    return wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args()
    if not (SRC / "baccarat" / "cli.py").is_file():
        print(f"error: no baccarat sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.smoke:
        wrong = smoke()
        print("\n".join(wrong) or "smoke: ok", file=sys.stderr)
        return 1 if wrong else 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

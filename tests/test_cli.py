"""End-to-end tests of the command-line interface via its ``run`` entry."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import baccarat
from baccarat import cli as cli_module
from baccarat.cli import run

F = Fraction


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def get_json(out: str) -> dict:
    return json.loads(out)


def fresh_process(*argv, **env):
    """``python -m baccarat.cli`` with ``argv`` in a new interpreter."""
    src = str(Path(baccarat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "baccarat.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=120,
    )


def test_table_text(cli):
    code, out, _ = cli("table")
    assert code == 0
    assert "DDDDDDDDDDD" in out
    assert "SSSSSSDDSS*" in out
    assert "(6,-)" in out
    assert "agrees_with_tableau: True" in out


def test_table_above_bound_shows_disagreement(cli):
    code, out, _ = cli("table", "--alpha", "69/1000", "--format", "json")
    assert code == 0
    payload = get_json(out)
    assert payload["results"]["agrees_with_tableau"] is False


def test_solve_parlor_json_round_trips(cli):
    code, out, _ = cli("solve", "parlor", "--format", "json")
    assert code == 0
    results = get_json(out)["results"]
    assert results["player_draw_on_5"] == "9/11"
    assert F(results["player_value"]) == F(-679568, 53094899)
    assert F(results["banker_columns"]["DSDD"]) == F(859, 2288)
    assert results["unique"] is True
    # Decimal renderings accompany, never replace, the exact strings.
    assert results["player_value_decimal"].startswith("-0.01279912")


def test_alpha_literal_forms_are_equivalent(cli):
    _, out_frac, _ = cli("solve", "classic", "--alpha", "1/20", "--format", "json")
    _, out_dec, _ = cli("solve", "classic", "--alpha", "0.05", "--format", "json")
    assert get_json(out_frac)["results"] == get_json(out_dec)["results"]


def test_csv_and_json_same_content(cli):
    _, json_out, _ = cli("punto", "--format", "json")
    _, csv_out, _ = cli("punto", "--format", "csv")
    results = get_json(json_out)["results"]
    rows = {r["key"]: r for r in csv.DictReader(io.StringIO(csv_out))}
    for key, value in results.items():
        if key.endswith("_decimal"):
            continue
        row = rows[f"results.{key}"]
        assert row["value"] == str(value)
        decimal = results.get(f"{key}_decimal")
        if decimal is not None:
            assert row["decimal"] == decimal


def test_punto_values(cli):
    code, out, _ = cli("punto", "--format", "json")
    results = get_json(out)["results"]
    assert F(results["P"]) == F(2153464, 4826809)
    assert F(results["edge_chemin"]) == F(553186, 24134045)
    assert results["edges_sum_identity"] is True


def test_module_entry_point_runs_the_cli():
    """``python -m baccarat.cli`` runs a command instead of only importing."""
    proc = fresh_process("punto", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert get_json(proc.stdout)["command"] == "punto"


def test_alpha_star_width_honors_tolerance(cli):
    code, out, _ = cli("alpha-star", "--tol", "1e-7", "--format", "json")
    assert code == 0
    results = get_json(out)["results"]
    lo, hi = F(results["lo"]), F(results["hi"])
    assert hi - lo <= F(1, 10**7)
    assert results["midpoint_decimal"].startswith("0.05565")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_huge_rationals_render_in_every_format(fmt):
    """A 401-digit tolerance gets its full decimal, not a traceback."""
    proc = fresh_process("alpha-star", "--tol", "1e400", "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "1" + "0" * 400 + "." + "0" * 10 in proc.stdout


def test_sweep_reports_each_grid_point(cli):
    code, out, _ = cli(
        "sweep", "--variant", "classic", "--grid", "0,1/30,1/20", "--format", "json"
    )
    assert code == 0
    results = get_json(out)["results"]
    assert results["validity_bound"] == "1/15"
    samples = results["samples"]
    assert [s["alpha"] for s in samples] == ["0", "1/30", "1/20"]
    assert samples[2]["player_draw_on_5"] == "179/214"


def test_simulate_is_deterministic(cli):
    args = ("simulate", "--variant", "modern", "--hands", "2000", "--seed", "123")
    _, first, _ = cli(*args)
    _, second, _ = cli(*args)
    assert first == second
    _, js, _ = cli(*args, "--format", "json")
    results = get_json(js)["results"]
    assert results["wins"] + results["losses"] + results["ties"] == 2000


def test_simulate_player_override(cli):
    code, out, _ = cli(
        "simulate",
        "--variant",
        "parlor",
        "--hands",
        "1000",
        "--seed",
        "5",
        "--player-p",
        "1/2",
        "--format",
        "json",
    )
    assert code == 0
    payload = get_json(out)
    assert payload["inputs"]["player_draw_on_5"] == "1/2"


@pytest.fixture
def solve_calls(monkeypatch):
    """The argument tuples of every ``solve_variant`` call made."""
    solve = baccarat.parametric.solve_variant
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(baccarat.parametric, "solve_variant", counting)
    monkeypatch.setattr(baccarat.montecarlo, "solve_variant", counting)
    return calls


def test_simulate_solves_once(cli, solve_calls):
    code, _, _ = cli("simulate", "--variant", "classic", "--hands", "100", "--seed", "1")
    assert code == 0
    assert len(solve_calls) == 1


def test_oracle_command_cross_checks(cli):
    code, out, _ = cli("oracle", "--variant", "modern", "--alpha", "1/30")
    assert code == 0
    assert "mismatch" not in out.lower()


def test_global_flags_accepted_before_subcommand(cli):
    _, after, _ = cli("punto", "--format", "csv")
    _, before, _ = cli("--format", "csv", "punto")
    assert after == before


def test_out_writes_stdout_verbatim(cli, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = cli("punto", "--format", "json", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


class TestExitCodes:
    def test_unknown_variant(self, cli):
        code, _, err = cli("solve", "bogus")
        assert code == 2
        assert err

    def test_missing_subcommand(self, cli):
        code, _, _ = cli()
        assert code == 2

    def test_invalid_tolerance(self, cli):
        code, _, err = cli("alpha-star", "--tol", "0")
        assert code == 2
        assert "positive" in err

    def test_alpha_out_of_range(self, cli):
        code, _, err = cli("solve", "classic", "--alpha", "1/10")
        assert code == 2

    def test_float_like_alpha_is_parsed_exactly_not_rejected(self, cli):
        code, out, _ = cli("solve", "classic", "--alpha", "0.05", "--format", "json")
        assert code == 0
        assert get_json(out)["inputs"]["alpha"] == "1/20"

    @pytest.mark.parametrize("hands", ["0", "-5", "10000001"])
    def test_hands_out_of_range(self, cli, solve_calls, hands):
        code, out, err = cli(
            "simulate", "--variant", "modern", "--hands", hands, "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert solve_calls == []  # rejected before any solve

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "parlor", "--alpha", "1/20"),
            ("simulate", "--variant", "parlor", "--alpha", "1/20",
             "--hands", "100", "--seed", "1"),
            ("sweep", "--variant", "parlor", "--grid", "0,1/20"),
        ],
        ids=["solve", "simulate", "sweep"],
    )
    def test_parlor_rejects_a_commission(self, cli, argv):
        code, out, err = cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "commission-free" in err

    def test_help_exits_zero(self, cli):
        code, out, _ = cli("--help")
        assert code == 0
        assert "baccarat" in out


def test_one_process_serves_many_commands(cli, monkeypatch):
    """The parser is built on the first run and reused: a rejected flag
    and --help in between leave every report as a fresh process gives."""
    monkeypatch.setenv("COLUMNS", "80")
    cli_module._build_parser.cache_clear()
    good = ("solve", "modern", "--alpha", "1/20", "--format", "json")
    argvs = (good, ("solve", "modern", "--bogus"), ("--help",), good)
    results = [cli(*argv) for argv in argvs]
    assert [code for code, _, _ in results] == [0, 2, 0, 0]
    assert cli_module._build_parser.cache_info().misses == 1
    for argv, result in zip(argvs, results):
        proc = fresh_process(*argv, COLUMNS="80")
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("alpha-star", "--tol", "1e5000"),
        ("alpha-star", "--tol", "1e-1001"),
        ("--format", "json", "oracle", "--variant", "modern", "--alpha", "1e-5000"),
        ("solve", "classic", "--alpha", "1e-99999999"),
        ("solve", "classic", "--alpha", "1/" + "9" * 1001),
        ("sweep", "--grid", ",".join(["1/100"] * 1001)),
    ],
    ids=["tol-huge", "tol-fine", "oracle-alpha", "alpha-exponent", "alpha-fraction",
         "grid"],
)
def test_unbounded_input_is_refused(cli, argv):
    """Past 10^1000 in a numerator or denominator, or 1000 grid rates,
    the input is refused at once with one line."""
    start = time.perf_counter()
    code, out, err = cli(*argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_finest_tolerance_still_runs(cli):
    start = time.perf_counter()
    code, out, err = cli("alpha-star", "--tol", "1e-1000", "--format", "json")
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    results = get_json(out)["results"]
    assert F(results["hi"]) - F(results["lo"]) <= F(1, 10**1000)


def test_rendering_failure_is_one_internal_error_line(cli, monkeypatch):
    def broken(report):
        raise ValueError("cannot render")

    monkeypatch.setitem(cli_module._RENDERERS, "json", broken)
    code, out, err = cli("punto", "--format", "json")
    assert (code, out, err) == (1, "", "internal error: cannot render\n")

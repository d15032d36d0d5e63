"""End-to-end tests of the command-line interface via its ``run`` entry."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import baccarat
from baccarat import cli as cli_module
from baccarat.cli import _decimal_str, _rational, run
from cli_reference import _build_parser

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


def fresh_process(*argv, stdout=subprocess.PIPE, **env):
    """``python -m baccarat.cli`` with ``argv`` in a new interpreter."""
    src = str(Path(baccarat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "baccarat.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
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


#: The sha256 of each command's ``--format json`` report.  A rewrite of
#: the engine must leave every byte of these reports as it is.
PINNED_REPORTS = {
    ("table",):
        "74c727934f60e29d4b58d9cb1ad00836972d8b15ee89b596d5de821e8bad9e95",
    ("solve", "classic", "--alpha", "37/1234"):
        "fa44461842b33dd1b76c922bb84a71061093c816bc02b79b58c79bf47bdf85d9",
    ("solve", "classic", "--alpha", "1/20"):
        "df2a8fc596338078544dbb9be160abaf7e024781246408be4e6e57a02cf62b2f",
    ("solve", "parlor"):
        "d1d8d5d5d51f10254dd778a5222b04efd8c99d72a7cccbf8517bc781ea4206fd",
    ("solve", "modern", "--alpha", "101/700"):
        "1ad7d3e8536884c4827f61714916767137cf677830ab354487318db8371b062a",
    ("sweep", "--variant", "classic"):
        "a2dac329cc7cbd5ef748dff11da19e5d7476a433da19c8f5ba737926d0457215",
    ("sweep", "--variant", "modern", "--grid", "1/100,101/700,1/3"):
        "d9edf65b42f2d9c38847b454834b0922aa77e853f2d6670d3ce6bfef23987489",
    ("alpha-star", "--tol", "1e-9"):
        "acf80244eefa729957609cbad30e2a24e9707db06915b5b68c6ec562e8eb2396",
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_json_reports_are_byte_identical_to_the_pinned_ones(cli, argv):
    code, out, err = cli(*argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]


#: The sha256 of the default ``--format text`` report and of the ``csv``
#: one, for a solve whose residual has a fallen row and one without.
PINNED_TEXT_AND_CSV_REPORTS = {
    ("solve", "modern", "--alpha", "101/700", "--format", "text"):
        "ec0475c66ac4545a21731cde9ca6a247b4122d1027249c259eb87a444bc0b3ab",
    ("solve", "modern", "--alpha", "101/700", "--format", "csv"):
        "07b8a55c8221e200f72651fb75429e4290eec95fb1e34b5afa42ac5dd1323bbd",
    ("solve", "classic", "--alpha", "1/20", "--format", "text"):
        "71e5c71e8d77e037540baa5284fb3400a914cd48d69d48720ee4b984e28371e8",
    ("solve", "classic", "--alpha", "1/20", "--format", "csv"):
        "6db89d03a1f3557f60454b630f6eb0541f5dfbd93fa284d9f488f8870b8bfe2e",
}


@pytest.mark.parametrize("argv", list(PINNED_TEXT_AND_CSV_REPORTS), ids=" ".join)
def test_text_and_csv_reports_are_byte_identical_to_the_pinned_ones(cli, argv):
    code, out, err = cli(*argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TEXT_AND_CSV_REPORTS[argv]


#: The same for the three ``simulate`` commands of the seed-0 benchmark
#: script, at 20 000 hands, and one with a fixed Player mix.  A faster
#: simulation loop must consume the same variates in the same order.
PINNED_SIMULATE_REPORTS = {
    ("simulate", "--variant", "modern", "--alpha", "1489/4747",
     "--hands", "20000", "--seed", "1238733488"):
        "e237270eb57dbbc4b8fdb3a276317dbbe0a34c22c2ff7cda28b13139b54404fe",
    ("simulate", "--variant", "parlor", "--hands", "20000", "--seed", "1332217461"):
        "498baac82e1037161e4cacf9d591767559258351f6f9b7cbe3442285c535f7f7",
    ("simulate", "--variant", "classic", "--alpha", "74/2623",
     "--hands", "20000", "--seed", "495895151"):
        "3b754b78ae0ea53f2fed4e991d40d435838dcef53a4e5b76d4b332b62e6ea2a0",
    ("simulate", "--variant", "classic", "--alpha", "1/20", "--player-p", "1/3",
     "--hands", "20000", "--seed", "7"):
        "3e65f051dcd2044b8c183c1fe6f515092f6017489567bbc28f85658ee6d56cce",
}


@pytest.mark.parametrize("argv", list(PINNED_SIMULATE_REPORTS), ids=" ".join)
def test_simulate_reports_are_byte_identical_to_the_pinned_ones(cli, argv):
    code, out, err = cli(*argv, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SIMULATE_REPORTS[argv]


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


def test_the_cli_imports_without_dataclasses_or_inspect():
    """Every command pays the import of ``baccarat.cli``; ``dataclasses``,
    with ``inspect``, ``ast`` and ``dis`` behind it, and the methods it
    generated once cost more than half of it.  ``pathlib`` brings
    ``urllib.parse`` and ``ipaddress`` for one file write.  ``argparse``
    brings ``gettext`` and, on its first message, ``locale``; ``csv`` is
    for one format.  ``-S`` keeps the ``.pth`` hooks of site-packages out
    of the run."""
    src = str(Path(baccarat.__file__).resolve().parents[1])
    unwanted = {"dataclasses", "inspect", "pathlib", "argparse", "gettext", "locale", "csv"}
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import baccarat.cli; "
        "code = baccarat.cli.run(['punto', '--format', 'json']); "
        f"print(code, sorted({unwanted!r} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("}\n0 []\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("solve", "classic"), ("punto",), ("--help",)])
def test_a_report_stdout_cannot_take_is_one_error_line(argv):
    """A full disk behind stdout, for a report longer than the stream's
    buffer and for shorter ones, is one line and exit 1, also once the
    interpreter flushes its streams on the way out."""
    with open("/dev/full", "w") as full:
        proc = fresh_process(*argv, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write to stdout: [Errno 28] ")
    assert proc.stderr.count("\n") == 1


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


def _decimal_str_by_decimal(x: Fraction, places: int = 10) -> str:
    """The earlier rendering: the quotient to 60 significant digits, then
    half-even to ``places`` decimals.  Exact while the 60 digits are."""
    whole = Decimal(abs(x.numerator) // x.denominator)
    with localcontext() as ctx:
        ctx.prec = max(60, whole.adjusted() + places + 2)
        q = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
            Decimal(1).scaleb(-places)
        )
    return format(q, "f")


def test_a_decimal_is_rounded_once_from_the_exact_value(cli):
    """Just above half of the tenth decimal rounds up: rounding first to
    60 digits made it an exact tie, which half-even sent to zero."""
    x = F(5 * 10**60 + 1, 10**71)
    assert _decimal_str(x) == "0.0000000001"
    assert _decimal_str(-x) == "-0.0000000001"
    assert _decimal_str(F(-1, 10**12)) == "-0.0000000000"
    assert _decimal_str(F(0)) == "0.0000000000"
    alpha = "0.0000000000" + "5" + "0" * 59 + "1"
    code, out, _ = cli("table", "--alpha", alpha, "--format", "json")
    assert code == 0
    assert F(alpha) == x
    assert get_json(out)["inputs"]["alpha_decimal"] == "0.0000000001"


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.fractions(-(10**6), 10**6, max_denominator=10**30),
        st.integers(-(10**12), 10**12).map(lambda k: F(2 * k + 1, 2 * 10**10)),
    )
)
def test_decimal_str_equals_the_decimal_rendering_where_it_is_exact(x):
    """Denominators up to 10^30 and exact ties of the tenth decimal."""
    assert _decimal_str(x) == _decimal_str_by_decimal(x)


_JSON_SCALARS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t", "\x00", "é", "\u2028", "\U0001f0a1"]),
    st.integers(-(10**1000), 10**1000),
    st.sampled_from([10**999, -(10**999)]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: No key ends as a Fraction's decimal twin does, so no two keys clash.
_JSON_KEYS = st.text(max_size=6).filter(lambda key: not key.endswith("_decimal"))
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_KEYS, children | st.fractions(), max_size=4),
    max_leaves=24,
)


def _expanded(node):
    """``node`` with each Fraction value of a dict written as its string
    and a ``<key>_decimal`` twin, as the json report shows it."""
    if isinstance(node, list):
        return [_expanded(item) for item in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if isinstance(value, F):
            out[key], out[key + "_decimal"] = str(value), _decimal_str(value)
        else:
            out[key] = _expanded(value)
    return out


@seed(2037)
@settings(max_examples=300, deadline=None, database=None)
@given(_JSON_TREES)
def test_json_rendering_is_json_dumps_of_the_expanded_tree(tree):
    assert cli_module._json(tree) == json.dumps(_expanded(tree), indent=2)


#: Each numeral the CLI reads, and its value or the start of its message.
RATIONALS = {
    "1/20": F(1, 20),
    "0.05": F(1, 20),
    "1e-9": F(1, 10**9),
    "1e99999": "number too large",
    "1e-100000": "number too large",
    "nan": "not a rational number",
    "inf": "not a rational number",
    "1/0": "not a rational number",
    "abc": "not a rational number",
    "1e": "not a rational number",
    "9" * 5000: "number too large",
    "-1/20": F(-1, 20),
    " 2/4 ": F(1, 2),
    "1_0": F(10),
    "0x10": "not a rational number",
    "1e5/3": "not a rational number",
    "--1": "not a rational number",
    "1e-1000": F(1, 10**1000),
    "1e1000": F(10**1000),
    "1e1001": "number too large",
    "1.5e-999": F(3, 2 * 10**999),
}


@pytest.mark.parametrize(
    "text", list(RATIONALS), ids=lambda t: t if len(t) < 20 else f"{len(t)} digits"
)
def test_rational_reads_through_the_number_gate(text):
    expected = RATIONALS[text]
    if isinstance(expected, Fraction):
        assert _rational(text) == expected
    else:
        with pytest.raises(ValueError, match=f"^{expected}: "):
            _rational(text)


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
    # montecarlo takes a solution and holds no solve_variant of its own;
    # one imported there again would still be counted.
    monkeypatch.setattr(baccarat.montecarlo, "solve_variant", counting, raising=False)
    return calls


def test_simulate_solves_once(cli, solve_calls):
    code, _, _ = cli("simulate", "--variant", "classic", "--hands", "100", "--seed", "1")
    assert code == 0
    assert len(solve_calls) == 1


def test_oracle_command_cross_checks(cli):
    code, out, _ = cli("oracle", "--variant", "modern", "--alpha", "1/30")
    assert code == 0
    assert "mismatch" not in out.lower()


def test_the_oracle_builds_each_column_strategy_once(cli, monkeypatch):
    """One Banker strategy per column of the classic game, shared by its
    two rows: 16, not one per entry."""
    init = baccarat.BankerStrategy.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(baccarat.BankerStrategy, "__init__", counting)
    code, _, _ = cli("oracle", "--variant", "classic", "--alpha", "1/20")
    assert code == 0
    assert len(built) == 16


def test_global_flags_accepted_before_subcommand(cli):
    _, after, _ = cli("punto", "--format", "csv")
    _, before, _ = cli("--format", "csv", "punto")
    assert after == before


def test_out_writes_stdout_verbatim(cli, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = cli("punto", "--format", "json", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize(
    "out", [["--out", ""], ["--out="], ["--out", "{tmp}"]],
    ids=["empty", "empty after =", "directory"],
)
def test_an_out_file_that_cannot_be_written_is_exit_2_after_the_report(
    cli, tmp_path, out
):
    """The report still reaches stdout; the failed write is one line."""
    _, report, _ = cli("punto", "--format", "json")
    out = [arg.replace("{tmp}", str(tmp_path)) for arg in out]
    code, stdout, err = cli("punto", "--format", "json", *out)
    assert (code, stdout) == (2, report)
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


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

    def test_a_flag_without_its_value(self, cli):
        code, out, err = cli("solve", "classic", "--alpha")
        assert (code, out) == (2, "")
        assert err == (
            "error: argument --alpha: expected one argument "
            "(see 'baccarat solve --help')\n"
        )

    def test_alpha_out_of_range(self, cli):
        code, _, err = cli("solve", "classic", "--alpha", "1/10")
        assert code == 2

    def test_a_repeated_sweep_rate_is_refused(self, cli):
        code, out, err = cli("sweep", "--variant", "classic", "--grid", "1/20,0.05")
        assert (code, out) == (2, "")
        assert err == "error: the grid lists the rate 1/20 more than once\n"

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

    def test_negative_seed_is_refused(self, cli, solve_calls):
        """It would silently replay the run of its absolute value."""
        code, out, err = cli(
            "simulate", "--variant", "modern", "--hands", "1000", "--seed", "-5"
        )
        assert (code, out) == (2, "")
        assert err == "error: seed must be an integer >= 0, got -5\n"
        assert solve_calls == []  # rejected before any solve

    @pytest.mark.parametrize("p", ["2", "-1/3", "1.5"])
    def test_player_p_out_of_range_is_refused(self, cli, solve_calls, p):
        code, out, err = cli(
            "simulate", "--variant", "classic", "--hands", "100", "--seed", "1",
            "--player-p", p,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --player-p must be in [0, 1], got {F(p)}\n"
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

    def test_a_command_help_lists_its_flags(self, cli):
        code, out, err = cli("simulate", "--variant", "classic", "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: baccarat simulate [arguments]\n")
        assert "  --variant {parlor,classic,modern}  the variant to play (required)\n" in out
        for flag in ("--hands", "--seed", "--alpha", "--player-p", "--format", "--out"):
            assert f"  {flag} " in out

    @pytest.mark.parametrize(
        "argv",
        [("solve", "classic", "--alp", "1/20"), ("--form", "json", "punto"),
         ("sweep", "--var=modern")],
    )
    def test_a_flag_name_must_match_exactly(self, cli, argv):
        """argparse took a unique prefix of a flag; this parser does not."""
        assert vars(_build_parser().parse_args(argv))
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: unrecognized argument: '--") and err.count("\n") == 1


def test_one_process_serves_many_commands(cli):
    """A rejected flag and --help in between leave every report as a
    fresh process gives."""
    good = ("solve", "modern", "--alpha", "1/20", "--format", "json")
    argvs = (good, ("solve", "modern", "--bogus"), ("--help",), good)
    results = [cli(*argv) for argv in argvs]
    assert [code for code, _, _ in results] == [0, 2, 0, 0]
    for argv, result in zip(argvs, results):
        proc = fresh_process(*argv)
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
        ("table", "--alpha", "1" * 20_000 + "x"),
    ],
    ids=["tol-huge", "tol-fine", "oracle-alpha", "alpha-exponent", "alpha-fraction",
         "grid", "alpha-malformed"],
)
def test_unbounded_input_is_refused(cli, argv):
    """Past 10^1000 in a numerator or denominator, or 1000 grid rates, or
    as a malformed numeral of many digits, the input is refused at once
    with one line."""
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


def test_an_oracle_disagreement_is_one_internal_error_line(cli, monkeypatch):
    """Every entry whose brute-force counts are off by one deal is counted,
    whether the shift moves Player's value or, at a nonzero rate, only
    Banker's."""
    counts = cli_module._oracle_counts
    for shift in ((0, -1, 1), (1, -2, 1)):

        def shifted(row, strategy, shift=shift):
            return tuple(n + d for n, d in zip(counts(row, strategy), shift))

        monkeypatch.setattr(cli_module, "_oracle_counts", shifted)
        code, out, err = cli("oracle", "--variant", "modern", "--alpha", "1/20")
        assert (code, out) == (1, "")
        assert err == "internal error: oracle disagrees with the decomposition on 8 entries\n"


def test_rendering_failure_is_one_internal_error_line(cli, monkeypatch):
    def broken(report):
        raise ValueError("cannot render")

    monkeypatch.setitem(cli_module._RENDERERS, "json", broken)
    code, out, err = cli("punto", "--format", "json")
    assert (code, out, err) == (1, "", "internal error: cannot render\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "classic", "--alpha", "-1e-3"), "got -1/1000"),
        (("solve", "classic", "--alpha", "-1/20"), "got -1/20"),
        (("solve", "classic", "--alpha=-1/20"), "got -1/20"),
        (("solve", "classic", "--alpha", "-0.5"), "got -1/2"),
        (("sweep", "--grid", "-1/20,0"), "got -1/20"),
        (("alpha-star", "--tol", "-1e-3"), "tolerance must be positive"),
        (("solve", "classic", "--alpha", "1e999999999999999999999999"),
         "number too large"),
        (("solve", "classic", "--alpha", "-1e999999999999999999999999"),
         "number too large"),
        (("solve", "classic", "--alpha", "1" * 5000 + "/3"), "number too large"),
        (("solve", "classic", "--alpha", "1/0"), "not a rational number"),
        (("solve", "classic", "--alpha", "-1x"), "not a rational number"),
    ],
    ids=["exponent", "fraction", "equals", "decimal", "grid", "tol",
         "huge-exponent", "huge-negative-exponent", "huge-digits", "zero-denominator",
         "malformed"],
)
def test_signed_and_huge_numbers_get_their_own_message(cli, argv, message):
    """A negative number is a value, not an unknown flag, and a
    well-formed number past the bounds is too large, not malformed."""
    code, out, err = cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert "expected one argument" not in err


# ---------------------------------------------------------------------------
# A grammar over argv: subcommands, flags and numbers of every spelling.
# ---------------------------------------------------------------------------

_NUMBER = st.one_of(
    st.integers(-3, 3).map(str),
    st.fractions(-1, 1, max_denominator=100).map(str),
    st.floats(-1, 1).map(repr),
    st.floats().map(repr),
    st.builds("{}e{}".format, st.integers(-20, 20), st.integers(-(10**25), 10**25)),
    st.integers(1000, 1100).map(lambda n: "1" + "0" * n),
    st.integers(1000, 1100).map(lambda n: "-1/" + "9" * n),
    st.text("0123456789./-+eE_x ", max_size=8),
)
# Half the rates drawn are ones most commands accept.
_RATE = st.one_of(
    st.fractions(0, F(1, 16), max_denominator=1000).map(str),
    st.sampled_from(["0", "0.05", "1e-3", "1/" + "9" * 999]),
    _NUMBER,
)
_VARIANT = st.sampled_from(["parlor", "classic", "modern", "bogus"])
_GRID = st.lists(_RATE, min_size=0, max_size=4).map(",".join)


def _mostly(valid, other):
    """Draws from ``valid`` three times in four, else from ``other``."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else other)


# At most 2 000 valid hands: ten million, the most allowed, take seconds.
_HANDS = _mostly(
    st.integers(1, 2000).map(str),
    st.one_of(st.integers(-3, 0).map(str), st.integers(10**7 + 1, 10**40).map(str),
              _NUMBER),
)
_INTEGER = _mostly(st.integers(-(10**30), 10**30).map(str), _NUMBER)

#: Per subcommand: its positional values, and its flags with their values
#: and whether the command requires them.
_COMMANDS = {
    "table": ([], {"--alpha": (_RATE, False)}),
    "solve": ([_VARIANT], {"--alpha": (_RATE, False)}),
    "alpha-star": ([], {"--tol": (_RATE, False)}),
    "punto": ([], {}),
    "sweep": ([], {"--variant": (_VARIANT, False), "--grid": (_GRID, False)}),
    "simulate": ([], {
        "--variant": (_VARIANT, True),
        "--hands": (_HANDS, True),
        "--seed": (_INTEGER, True),
        "--alpha": (_RATE, False),
        "--player-p": (_RATE, False),
    }),
    "oracle": ([], {"--variant": (_VARIANT, True), "--alpha": (_RATE, True)}),
    "bogus": ([], {}),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, flags = _COMMANDS[command]
    argv = [command, *(draw(values) for values in positionals)]
    for flag, (values, required) in flags.items():
        # A required flag is left out now and then, an optional one half
        # the time.
        if draw(st.integers(0, 9)) < (9 if required else 5):
            value = draw(values)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "-h", "extra", "-1"])))
    fmt = draw(st.sampled_from([None, "text", "json", "csv", "yaml"]))
    if fmt is not None:
        argv[draw(st.sampled_from([0, len(argv)])):0] = ["--format", fmt]
    return argv


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(_argvs())
@example(["simulate", "--variant", "classic", "--hands", "2000", "--seed", "-7",
          "--player-p", "1/2"])
@example(["solve", "classic", "--alpha", "-1e-3"])
@example(["alpha-star", "--tol", "1e-1000"])
@example(["--format", "csv", "sweep", "--grid", "1/" + "9" * 999 + ",0"])
def test_any_argv_exits_cleanly_and_in_time(argv):
    """0 with a report, or 2 with one stderr line; never a traceback, an
    internal error, or a call past 2 s."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 2.0, argv
    if code == 0:
        assert out.getvalue() and err.getvalue() == "", argv
    else:
        assert code == 2, (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert err.getvalue().endswith("\n"), argv


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(_argvs().filter(lambda argv: "-h" not in argv))
@example(["--format", "csv", "punto", "--format", "json", "--out", "x"])
@example(["solve", "--", "classic"])
@example(["solve", "classic", "--"])
@example(["solve", "classic", "--alpha=-1/20", "--alpha", "1/20"])
@example(["sweep", "--grid", "-1/20,0"])
def test_the_command_table_reads_argv_as_argparse_did(argv):
    """Both parsers refuse, or both give the same subcommand, handler,
    output flags and per-command values."""
    try:
        ours = vars(cli_module._parse(argv))
    except ValueError:
        ours = "refused"
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            theirs = vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            theirs = "refused"
    assert ours == theirs, argv

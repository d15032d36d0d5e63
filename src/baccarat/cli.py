"""Command-line interface.

Every command prints a report carrying the command name, the exact
inputs it ran with, and its results.  Rational quantities are rendered
twice -- the exact fraction string and a decimal rounded to ten places
-- in all three output formats (text, json, csv), so the formats carry
identical numeric content.  Rates accept both decimal and fraction
spellings: ``--alpha 0.05`` and ``--alpha 1/20`` are the same number.

Exit codes: 0 on success, 2 on invalid input (unknown command or flag,
malformed or out-of-range values), 1 on internal error.  Either failure
prints one line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

from . import montecarlo, parametric, punto
from .payoff import build_reduced_game, classify_info_sets, oracle_payoff_entry
from .rules import _MAX_DECIMAL, CLASSIC, InfoSet, MODERN, PARLOR, PlayerRow
from .solver import MixedStrategy

__all__ = ["run", "main"]

_VARIANTS = {"parlor": PARLOR, "classic": CLASSIC, "modern": MODERN}
_DEFAULT_ALPHA = {"parlor": Fraction(0), "classic": Fraction(1, 20),
                  "modern": Fraction(1, 20)}


#: Largest numerator or denominator a parsed number may have.
_MAX_TERM = 10**1000
#: Most rates one ``--grid`` may list.
_MAX_GRID = 1000
#: A well-formed number: one that still fails to convert is too large,
#: with more digits than an int takes or an exponent past Decimal's.
_NUMERAL = re.compile(r"[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def _rational(text: str) -> Fraction:
    """Parse '1/20', '0.05', or '1e-9' to the same exact number, with a
    numerator and a denominator of at most 10^1000."""
    s = text.strip()
    shown = repr(s if len(s) <= 40 else f"{s[:37]}...")
    too_large = argparse.ArgumentTypeError(
        f"number too large: {shown} (numerator and denominator must be at "
        f"most 10^1000)"
    )
    try:
        if "/" in s:
            value = Fraction(s)
        else:
            d = Decimal(s)
            _, digits, exponent = d.as_tuple()
            if d.is_finite() and len(digits) + abs(exponent) > _MAX_DECIMAL:
                raise too_large
            value = Fraction(d)
    except (ValueError, ArithmeticError) as exc:
        if _NUMERAL.fullmatch(s) and not isinstance(exc, ZeroDivisionError):
            raise too_large
        raise argparse.ArgumentTypeError(f"not a rational number: {shown}")
    if max(abs(value.numerator), value.denominator) > _MAX_TERM:
        raise too_large
    return value


def _rational_list(text: str) -> list[Fraction]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    if len(items) > _MAX_GRID:
        raise argparse.ArgumentTypeError(
            f"at most {_MAX_GRID} rates, got {len(items)}"
        )
    return [_rational(piece) for piece in items]


def _decimal_str(x: Fraction, places: int = 10) -> str:
    # 60 digits, or more when the integer part needs them to quantize.
    whole = Decimal(abs(x.numerator) // x.denominator)
    with localcontext() as ctx:
        ctx.prec = max(60, whole.adjusted() + places + 2)
        q = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
            Decimal(1).scaleb(-places)
        )
    return format(q, "f")


# --- rendering -------------------------------------------------------------


def _to_jsonable(node):
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if isinstance(value, Fraction):
                out[key] = str(value)
                out[f"{key}_decimal"] = _decimal_str(value)
            elif isinstance(value, (dict, list, tuple)):
                out[key] = _to_jsonable(value)
            else:
                out[key] = value
        return out
    if isinstance(node, (list, tuple)):
        return [_to_jsonable(x) for x in node]
    return node


def _render_json(report: dict) -> str:
    return json.dumps(_to_jsonable(report), indent=2) + "\n"


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value", "decimal"])

    def walk(prefix: str, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, (list, tuple)):
            for i, value in enumerate(node):
                walk(f"{prefix}[{i}]", value)
        elif isinstance(node, Fraction):
            writer.writerow([prefix, str(node), _decimal_str(node)])
        elif isinstance(node, float):
            writer.writerow([prefix, repr(node), ""])
        else:
            writer.writerow([prefix, str(node), ""])

    walk("", report)
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def walk(node, indent: int):
        pad = " " * indent
        for key, value in node.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                walk(value, indent + 2)
            elif isinstance(value, (list, tuple)):
                lines.append(f"{pad}{key}:")
                for item in value:
                    if isinstance(item, dict):
                        lines.append(f"{pad}  -")
                        walk(item, indent + 4)
                    else:
                        lines.append(f"{pad}  - {item}")
            elif isinstance(value, Fraction):
                lines.append(
                    f"{pad}{key}: {value} ({_decimal_str(value)})"
                )
            else:
                lines.append(f"{pad}{key}: {value}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


# --- command handlers ------------------------------------------------------


def _strategy_summary(sol: parametric.VariantSolution) -> dict:
    out: dict = {
        "player_draw_on_5": sol.player_draw_probability,
        "banker_columns": dict(sol.column_mixture),
        "player_value": sol.player_value,
        "banker_value": sol.banker_value,
        "kind": sol.report.kind,
        "unique": sol.report.unique,
    }
    if InfoSet(6, None) in sol.variant.optional_cells:
        out["banker_draw_at_6_stand"] = sol.banker_draw_probability(
            InfoSet(6, None)
        )
    return out


def _cmd_table(ns) -> dict:
    cls = classify_info_sets(ns.alpha)
    marks = {}
    for b in range(8):
        row = ""
        for c in (*range(10), None):
            info = InfoSet(b, c)
            row += "*" if info in cls.starred else str(cls.determined[info])
        marks[str(b)] = row
    return {
        "command": "table",
        "inputs": {"alpha": Fraction(ns.alpha)},
        "results": {
            "columns": "0123456789-",
            "grid": marks,
            "starred": [str(i) for i in cls.starred],
            "agrees_with_tableau": cls.agrees_with_tableau,
        },
    }


def _cmd_solve(ns) -> dict:
    variant = _VARIANTS[ns.variant]
    alpha = ns.alpha if ns.alpha is not None else _DEFAULT_ALPHA[ns.variant]
    sol = parametric.solve_variant(variant, alpha)
    results = _strategy_summary(sol)
    results["p"] = results["player_draw_on_5"]
    if "banker_draw_at_6_stand" in results:
        results["q"] = results["banker_draw_at_6_stand"]
    for side, labels in (("column", sol.game.column_labels), ("row", sol.game.row_labels)):
        results[f"eliminated_{side}s"] = [
            str(labels[step.index]) for step in sol.elimination_log if step.side == side
        ]
    results["surviving_columns"] = list(sol.reduced.column_labels)
    return {
        "command": "solve",
        "inputs": {"variant": ns.variant, "alpha": Fraction(alpha)},
        "results": results,
    }


def _cmd_alpha_star(ns) -> dict:
    bracket = parametric.find_alpha_star(ns.tol)
    return {
        "command": "alpha-star",
        "inputs": {"tolerance": Fraction(ns.tol)},
        "results": {
            "lo": bracket.lo,
            "hi": bracket.hi,
            "midpoint": bracket.midpoint,
            "width": bracket.hi - bracket.lo,
            "iterations": bracket.iterations,
            "player_value": bracket.player_value,
        },
    }


def _cmd_punto(ns) -> dict:
    rep = punto.punto_report()
    return {
        "command": "punto",
        "inputs": {},
        "results": {
            "P": rep.P,
            "B": rep.B,
            "T": rep.T,
            "edge_player": rep.edge_player,
            "edge_banker": rep.edge_banker,
            "edge_chemin": rep.edge_chemin,
            "edges_sum_identity": rep.edge_chemin
            == rep.edge_player + rep.edge_banker,
        },
    }


def _cmd_sweep(ns) -> dict:
    variant = _VARIANTS[ns.variant]
    sweep = parametric.equilibrium_curve(variant, ns.grid)
    samples = []
    for alpha, sol in sweep.samples:
        entry = {"alpha": alpha}
        entry.update(_strategy_summary(sol))
        samples.append(entry)
    return {
        "command": "sweep",
        "inputs": {
            "variant": ns.variant,
            "grid": [str(a) for a in (ns.grid or [])]
            or [str(a) for a, _ in sweep.samples],
        },
        "results": {
            "validity_bound": sweep.validity_bound,
            "samples": samples,
        },
    }


def _cmd_simulate(ns) -> dict:
    variant = _VARIANTS[ns.variant]
    alpha = ns.alpha if ns.alpha is not None else _DEFAULT_ALPHA[ns.variant]
    montecarlo._check_hands(ns.hands)
    montecarlo._check_seed(ns.seed)
    p = ns.player_p
    if p is not None and not 0 <= p <= 1:
        raise ValueError(f"--player-p must be in [0, 1], got {p}")
    sol = parametric.solve_variant(variant, alpha)
    row_mix, banker_mix = montecarlo.equilibrium_profile(sol)
    if p is not None:
        row_mix = MixedStrategy((1 - p, p))
    result = montecarlo.simulate(
        variant, row_mix, banker_mix, alpha, ns.hands, ns.seed
    )
    return {
        "command": "simulate",
        "inputs": {
            "variant": ns.variant,
            "alpha": Fraction(alpha),
            "hands": ns.hands,
            "seed": ns.seed,
            "player_draw_on_5": row_mix[1],
            "banker_mix": {str(k): v for k, v in dict(banker_mix).items()},
        },
        "results": {
            "rng": result.rng,
            "wins": result.wins,
            "losses": result.losses,
            "ties": result.ties,
            "mean_player": result.mean_player,
            "mean_banker": result.mean_banker,
            "std_error": result.std_error,
            "std_error_banker": result.std_error_banker,
            "solved_player_value": sol.player_value,
            "solved_banker_value": sol.banker_value,
        },
    }


def _cmd_oracle(ns) -> dict:
    variant = _VARIANTS[ns.variant]
    game = build_reduced_game(variant, ns.alpha)
    A, B = game.A, game.B  # each read builds the fractions anew
    entries = []
    mismatches = 0
    for r, row in enumerate(game.row_labels):
        for j, label in enumerate(game.column_labels):
            strategy = game.banker_strategy(j)
            o_player, o_banker = oracle_payoff_entry(row, strategy, game.alpha)
            match = o_player == A[r][j] and o_banker == B[r][j]
            mismatches += not match
            entries.append(
                {
                    "row": str(row),
                    "column": label,
                    "player_value": o_player,
                    "banker_value": o_banker,
                    "matches_decomposition": match,
                }
            )
    if mismatches:
        raise RuntimeError(
            f"oracle disagrees with the decomposition on {mismatches} entries"
        )
    return {
        "command": "oracle",
        "inputs": {"variant": ns.variant, "alpha": Fraction(ns.alpha)},
        "results": {"entries": entries, "all_match": True},
    }


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error:`` line.

    An argument that begins like a negative number (``-1/20``, ``-1e-3``,
    ``-.5``) is read as a value, not as an unknown flag, so a negative
    rate gets the same range message as any other rate.  No flag of this
    parser begins with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern knows only "-5" and "-0.5".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        self.exit(2, f"error: {message} (see '{self.prog} --help')\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first :func:`run` of a process."""
    parser = _Parser(
        prog="baccarat",
        description="Exact solver for the drawing games of baccarat.",
    )
    # The output flags are accepted both before and after the subcommand;
    # the shared parent uses SUPPRESS so a subcommand-position flag
    # overrides without its default clobbering a pre-subcommand value.
    common = argparse.ArgumentParser(add_help=False)
    for target, default in ((parser, "text"), (common, argparse.SUPPRESS)):
        target.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default=default,
            help="output format (default: text)",
        )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the report verbatim to FILE",
    )
    common.add_argument(
        "--out", metavar="FILE", default=argparse.SUPPRESS,
        help="also write the report verbatim to FILE",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "table", parents=[common], help="render the 88-cell drawing table"
    )
    p.add_argument("--alpha", type=_rational, default=Fraction(0))
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("solve", parents=[common], help="solve one variant exactly")
    p.add_argument("variant", choices=sorted(_VARIANTS))
    p.add_argument(
        "--alpha",
        type=_rational,
        default=None,
        help="commission rate (default: 0 for parlor, 1/20 otherwise)",
    )
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser(
        "alpha-star", parents=[common], help="bracket the break-even commission rate"
    )
    p.add_argument("--tol", type=_rational, default=Fraction(1, 10**9))
    p.set_defaults(handler=_cmd_alpha_star)

    p = sub.add_parser("punto", parents=[common], help="fixed-rule probabilities and edges")
    p.set_defaults(handler=_cmd_punto)

    p = sub.add_parser("sweep", parents=[common], help="solve along a grid of commission rates")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="classic")
    p.add_argument(
        "--grid",
        type=_rational_list,
        default=None,
        help="comma-separated rates, e.g. 0,1/100,1/20",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo check of a solved game")
    p.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    p.add_argument("--hands", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument(
        "--player-p",
        type=_rational,
        default=None,
        help="override Player's draw-on-5 probability",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "oracle", parents=[common], help="brute-force every payoff entry and compare"
    )
    p.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        try:
            report = ns.handler(ns)
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = _RENDERERS[ns.format](report)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if ns.out:
        try:
            with open(ns.out, "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: cannot write {ns.out}: {exc}", file=sys.stderr)
            return 2
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

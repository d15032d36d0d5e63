"""Command-line interface.

Every command prints a report carrying the command name, the exact
inputs it ran with, and its results.  Rational quantities are rendered
twice -- the exact fraction string and a decimal rounded to ten places
-- in all three output formats (text, json, csv), so the formats carry
identical numeric content.  Rates accept both decimal and fraction
spellings: ``--alpha 0.05`` and ``--alpha 1/20`` are the same number.

Exit codes: 0 on success; 2 on invalid input (unknown command or flag,
malformed or out-of-range values), and on an ``--out`` file that cannot
be written, after the report has reached stdout; 1 on an internal error
or a report that stdout cannot take.  Each failure prints one line to
stderr.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import montecarlo, parametric, punto
from .payoff import _entry_terms, _oracle_counts, build_reduced_game, classify_info_sets
from .rules import _NUMERAL, _coerce_rational, ALL_INFO_SETS, CLASSIC, MODERN, PARLOR

__all__ = ["run", "main"]

_VARIANTS = {"parlor": PARLOR, "classic": CLASSIC, "modern": MODERN}
_DEFAULT_ALPHA = {"parlor": Fraction(0), "classic": Fraction(1, 20),
                  "modern": Fraction(1, 20)}


#: Largest numerator or denominator a parsed number may have.
_MAX_TERM = 10**1000
#: Most rates one ``--grid`` may list.
_MAX_GRID = 1000


def _rational(text: str) -> Fraction:
    """Parse '1/20', '0.05', or '1e-9' to the same exact number, with a
    numerator and a denominator of at most 10^1000."""
    s = text.strip()
    shown = repr(s if len(s) <= 40 else f"{s[:37]}...")
    too_large = ValueError(
        f"number too large: {shown} (numerator and denominator must be at "
        f"most 10^1000)"
    )
    try:
        value = _coerce_rational(s, "number")
    except (ValueError, ArithmeticError) as exc:
        # A numeral that the gate cannot build is too long to write out.
        if _NUMERAL.fullmatch(s) and not isinstance(exc, ZeroDivisionError):
            raise too_large
        raise ValueError(f"not a rational number: {shown}")
    if max(abs(value.numerator), value.denominator) > _MAX_TERM:
        raise too_large
    return value


def _rational_list(text: str) -> list[Fraction]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    if len(items) > _MAX_GRID:
        raise ValueError(f"at most {_MAX_GRID} rates, got {len(items)}")
    return [_rational(piece) for piece in items]


def _decimal_str(x: Fraction) -> str:
    """``x`` rounded half to even to ten decimals, from the exact value;
    a negative ``x`` keeps its sign even when it rounds to zero."""
    num, den = x.numerator, x.denominator
    scaled, rest = divmod(abs(num) * 10**10, den)
    scaled += 2 * rest > den or (2 * rest == den and scaled & 1)
    whole, frac = divmod(scaled, 10**10)
    return f"{'-' if num < 0 else ''}{whole}.{frac:010d}"


# --- rendering -------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii


def _json(node, pad: str = "\n") -> str:
    """``node`` as ``json.dumps(node, indent=2)`` writes it, where ``pad``
    starts each line of ``node``'s own level; a Fraction value of a dict
    is its string followed by a ``<key>_decimal`` twin."""
    inner = pad + "  "
    if isinstance(node, dict):
        items = []
        for key, value in node.items():
            if isinstance(value, Fraction):
                items.append(f'{_quote(key)}: "{value}"')
                items.append(f'{_quote(key + "_decimal")}: "{_decimal_str(value)}"')
            else:
                items.append(f"{_quote(key)}: {_json(value, inner)}")
        return f"{{{inner}{f',{inner}'.join(items)}{pad}}}" if items else "{}"
    if isinstance(node, (list, tuple)):
        items = [_json(item, inner) for item in node]
        return f"[{inner}{f',{inner}'.join(items)}{pad}]" if items else "[]"
    # A string, number, bool or None; json refuses anything else.
    if isinstance(node, str):
        return _quote(node)
    if isinstance(node, int):
        return ("false", "true")[node] if isinstance(node, bool) else int.__repr__(node)
    return "null" if node is None else json.dumps(node)


def _render_csv(report: dict) -> str:
    import csv
    import io

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
                lines.append(f"{pad}{key}: {value} ({_decimal_str(value)})")
            else:
                lines.append(f"{pad}{key}: {value}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": _render_text, "json": lambda report: _json(report) + "\n",
              "csv": _render_csv}


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
    # A cell equals its (banker total, player third) tuple; None: Player stood.
    if (6, None) in sol.variant.optional_cells:
        out["banker_draw_at_6_stand"] = sol.banker_draw_probability((6, None))
    return out


def _cmd_table(ns) -> dict:
    cls = classify_info_sets(ns.alpha)
    # A starred cell is the one the classification leaves undetermined.
    marks = "".join(str(cls.determined.get(info, "*")) for info in ALL_INFO_SETS)
    return {
        "inputs": {"alpha": ns.alpha},
        "results": {
            "columns": "0123456789-",
            "grid": {str(b): marks[b * 11 : b * 11 + 11] for b in range(8)},
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
        "inputs": {"variant": ns.variant, "alpha": alpha},
        "results": results,
    }


def _cmd_alpha_star(ns) -> dict:
    bracket = parametric.find_alpha_star(ns.tol)
    return {
        "inputs": {"tolerance": ns.tol},
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
    names = ("P", "B", "T", "edge_player", "edge_banker", "edge_chemin")
    results = {name: getattr(rep, name) for name in names}
    results["edges_sum_identity"] = rep.edge_chemin == rep.edge_player + rep.edge_banker
    return {"inputs": {}, "results": results}


def _cmd_sweep(ns) -> dict:
    variant = _VARIANTS[ns.variant]
    sweep = parametric.equilibrium_curve(variant, ns.grid)
    samples = [{"alpha": alpha, **_strategy_summary(sol)} for alpha, sol in sweep.samples]
    return {
        "inputs": {"variant": ns.variant, "grid": [str(a) for a, _ in sweep.samples]},
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
        row_mix = (1 - p, p)
    result = montecarlo.simulate(
        variant, row_mix, banker_mix, alpha, ns.hands, ns.seed
    )
    return {
        "inputs": {
            "variant": ns.variant,
            "alpha": alpha,
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
    game = build_reduced_game(_VARIANTS[ns.variant], ns.alpha)
    strategies = [game.banker_strategy(j) for j in range(len(game.columns))]
    (scale_A, A), (scale_B, B) = game.scaled
    entries = []
    mismatches = 0
    for r, row in enumerate(game.row_labels):
        for j, strategy in enumerate(strategies):
            loss, _tie, win = _oracle_counts(row, strategy)
            (player, den_A), (banker, den_B) = _entry_terms(loss, win, game.alpha)
            # Each value against the game's entry, cross-multiplied in integers.
            mismatches += (player * scale_A != A[r][j] * den_A
                           or banker * scale_B != B[r][j] * den_B)
            # A mismatch raises below, so every entry reported matches.
            entries.append({"row": str(row), "column": game.column_labels[j],
                            "player_value": Fraction(player, den_A),
                            "banker_value": Fraction(banker, den_B),
                            "matches_decomposition": True})
    if mismatches:
        raise RuntimeError(
            f"oracle disagrees with the decomposition on {mismatches} entries")
    return {
        "inputs": {"variant": ns.variant, "alpha": ns.alpha},
        "results": {"entries": entries, "all_match": True},
    }


# --- command line ----------------------------------------------------------

#: The flags of every command, given before or after its name.  Each
#: argument has a type (a callable, or a mapping whose keys are its
#: choices), a default, a required mark and a help line.
_GLOBAL_FLAGS = {
    "--format": (_RENDERERS, "text", False, "output format (default: text)"),
    "--out": (str, None, False, "also write the report verbatim to the file OUT"),
}

#: Each command's handler, help line and arguments; an argument whose
#: name has no dashes is a positional.
_COMMANDS = {
    "table": (_cmd_table, "render the 88-cell drawing table", {
        "--alpha": (_rational, Fraction(0), False, "commission rate (default: 0)")}),
    "solve": (_cmd_solve, "solve one variant exactly", {
        "variant": (_VARIANTS, None, True, "the variant to solve"),
        "--alpha": (_rational, None, False,
                    "commission rate (default: 0 for parlor, 1/20 otherwise)")}),
    "alpha-star": (_cmd_alpha_star, "bracket the break-even commission rate", {
        "--tol": (_rational, Fraction(1, 10**9), False, "widest bracket (default: 1e-9)")}),
    "punto": (_cmd_punto, "fixed-rule probabilities and edges", {}),
    "sweep": (_cmd_sweep, "solve along a grid of commission rates", {
        "--variant": (_VARIANTS, "classic", False, "the variant (default: classic)"),
        "--grid": (_rational_list, None, False,
                   "comma-separated rates, e.g. 0,1/100,1/20")}),
    "simulate": (_cmd_simulate, "Monte Carlo check of a solved game", {
        "--variant": (_VARIANTS, None, True, "the variant to play"),
        "--hands": (int, None, True, "hands to play, 1 to 10^7"),
        "--seed": (int, None, True, "seed of the generator, an integer >= 0"),
        "--alpha": (_rational, None, False, "commission rate (default: as for solve)"),
        "--player-p": (_rational, None, False, "override Player's draw-on-5 probability")}),
    "oracle": (_cmd_oracle, "brute-force every payoff entry and compare", {
        "--variant": (_VARIANTS, None, True, "the variant to check"),
        "--alpha": (_rational, None, True, "commission rate")}),
}


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The namespace of one command line, or its help text for ``-h``.

    The global flags may come before or after the command; the last of a
    repeated flag wins.  The token after a flag is its value, even one
    that starts with a dash, and ``--flag=value`` works too.  Flag names
    match exactly.  After the command, ``--`` ends the flags.  A command
    line it refuses raises ValueError with the message's one line.
    """
    cmd, args, given, positionals, flags = None, _GLOBAL_FLAGS, {}, [], True

    def refused(message: str) -> ValueError:
        return ValueError(f"{message} (see 'baccarat{' ' + cmd if cmd else ''} --help')")

    def read(name: str, kind, text: str):
        if isinstance(kind, dict):
            if text in kind:
                return text
            reason = f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"
        else:
            try:
                return kind(text)
            except ValueError as exc:
                reason = f"invalid int value: {text!r}" if kind is int else exc
        raise refused(f"argument {name}: {reason}")

    tokens = iter(argv)
    for tok in tokens:
        if flags and tok == "--" and cmd:
            flags = False
        elif flags and tok in ("-h", "--help"):
            return _help(cmd)
        elif flags and tok[:1] == "-":
            name, eq, text = tok.partition("=")
            if name not in args:
                raise refused(f"unrecognized argument: {tok!r}")
            if not eq and (text := next(tokens, None)) is None:
                raise refused(f"argument {name}: expected one argument")
            given[name] = read(name, args[name][0], text)
        elif cmd is None:
            cmd = read("subcommand", _COMMANDS, tok)
            args = {**_COMMANDS[cmd][2], **_GLOBAL_FLAGS}
            positionals = [name for name in args if name[0] != "-"]
        elif positionals:
            name = positionals.pop(0)
            given[name] = read(name, args[name][0], tok)
        else:
            raise refused(f"unrecognized argument: {tok!r}")
    missing = [name for name, arg in args.items() if arg[2] and name not in given]
    if cmd is None or missing:
        listed = ", ".join(missing) if cmd else "subcommand"
        raise refused(f"the following arguments are required: {listed}")
    values = {name.lstrip("-").replace("-", "_"): given.get(name, arg[1])
              for name, arg in args.items()}
    return SimpleNamespace(subcommand=cmd, handler=_COMMANDS[cmd][0], **values)


def _help(cmd: str | None) -> str:
    """The usage of ``baccarat``, or of its command ``cmd``."""
    args = {**_COMMANDS[cmd][2], **_GLOBAL_FLAGS} if cmd else _GLOBAL_FLAGS
    rows = [] if cmd else [(name, command[1]) for name, command in _COMMANDS.items()]
    for name, (kind, _, required, text) in args.items():
        meta = name.strip("-").upper() if callable(kind) else "{%s}" % ",".join(kind)
        left = f"{name} {meta}" if name[0] == "-" else meta
        rows.append((left, text + " (required)" * required))
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    about = _COMMANDS[cmd][1] if cmd else "Exact solver for the drawing games of baccarat."
    usage = cmd or "[--format FORMAT] [--out OUT] <command>"
    return "\n".join([f"usage: baccarat {usage} [arguments]", "", about, "",
                      *(f"  {left:<{width}}{right}" for left, right in rows)]) + "\n"


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        try:
            ns = _parse(sys.argv[1:] if argv is None else argv)
            report = (None if isinstance(ns, str)  # None: help
                      else {"command": ns.subcommand, **ns.handler(ns)})
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = ns if report is None else _RENDERERS[ns.format](report)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1
    if report is not None and ns.out is not None:
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

"""The argparse parser the command line used before its table-driven one.

``_Parser`` and ``_build_parser`` are kept here as they were, so the
tests can check that ``baccarat.cli._parse`` reads every command line
this parser read into the same namespace, and refuses what it refused.
Its one intended difference: argparse accepts a unique prefix of a flag
(``--alp`` for ``--alpha``), and the table-driven parser does not.  The
messages differ too: ``_rational`` now raises ``ValueError``, which
argparse reports as ``invalid _rational value: …``.
"""

import argparse
import re
from fractions import Fraction
from functools import cache

from baccarat.cli import (
    _cmd_alpha_star,
    _cmd_oracle,
    _cmd_punto,
    _cmd_simulate,
    _cmd_solve,
    _cmd_sweep,
    _cmd_table,
    _rational,
    _rational_list,
    _VARIANTS,
)


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

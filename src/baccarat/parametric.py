"""How the solved games move with the commission rate alpha.

This module solves a variant end to end at a given rate (reduction by
strict dominance, then support enumeration, then independent
verification on the unreduced game), sweeps that solution across a grid
of rates, locates the break-even rate at which Banker's seat stops being
worth more than Player's, and finds the exact rate at which each
variant's fixed drawing rules lose their justification.

Closed forms worth naming (all verified against the solver; the
break-even bracket is located from Banker's value and then certified by
two solves):

* The parlor game (no commission) has value -679568 / (11 * 13^6) to
  Player, with Player drawing on 5 with probability 9/11 and Banker
  drawing at (6, None) with probability 859/2288.

* With commission alpha, Player's equilibrium draw probability becomes
  (9 - alpha) / (11 - 6*alpha); Banker's mix is unchanged, so Player's
  value does not move while Banker's erodes.

* The modern game has the unique pure equilibrium (draw on 5; draw at
  both optional cells), giving Player -59280 / 13^6 regardless of alpha.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .payoff import (
    ReducedGame,
    _gain_table,
    build_reduced_game,
    classify_info_sets,
)
from .rules import (
    Action,
    CLASSIC,
    InfoSet,
    MODERN,
    PlayerRow,
    Variant,
    _CELL_INDEX,
    _coerce_rational,
    _of_type,
)
from .solver import (
    EliminationStep,
    EquilibriumReport,
    _eliminate,
    _enumerate,
    verify_equilibrium,
)

__all__ = [
    "PARLOR_PLAYER_VALUE",
    "PARLOR_PLAYER_DRAW_P",
    "BANKER_STAND_CELL_DRAW_Q",
    "MODERN_PLAYER_VALUE",
    "classic_draw_probability",
    "classic_banker_value",
    "modern_banker_value",
    "VariantSolution",
    "solve_variant",
    "CommissionSweep",
    "DEFAULT_ALPHA_GRID",
    "equilibrium_curve",
    "AlphaStarBracket",
    "find_alpha_star",
    "table_validity_bound",
]

_D6 = 13**6

#: Player's equilibrium value in the commission-free game.
PARLOR_PLAYER_VALUE = Fraction(-679568, 11 * _D6)

#: Player's equilibrium probability of drawing on 5, commission-free.
PARLOR_PLAYER_DRAW_P = Fraction(9, 11)

#: Banker's equilibrium probability of drawing at (6, None), any alpha.
BANKER_STAND_CELL_DRAW_Q = Fraction(859, 2288)

#: Player's value in the modern game (alpha-free: the equilibrium is pure).
MODERN_PLAYER_VALUE = Fraction(-59280, _D6)


def classic_draw_probability(alpha) -> Fraction:
    """Player's equilibrium draw-on-5 probability at commission alpha."""
    a = _coerce_rational(alpha, "alpha")
    return (9 - a) / (11 - 6 * a)


#: Constant, linear and quadratic coefficients of ``num(alpha)`` in
#: Banker's classic value ``8 / 13^6 * num(alpha) / (11 - 6*alpha)``.
_BANKER_NUM = (84946, -3099233, 1668708)


def classic_banker_value(alpha) -> Fraction:
    """Banker's equilibrium expected payoff at commission alpha."""
    a = _coerce_rational(alpha, "alpha")
    c0, c1, c2 = _BANKER_NUM
    num = c0 + c1 * a + c2 * a * a
    return Fraction(8, _D6) * num / (11 - 6 * a)


def modern_banker_value(alpha) -> Fraction:
    """Banker's expected payoff in the modern game at commission alpha."""
    a = _coerce_rational(alpha, "alpha")
    return Fraction(8, _D6) * (7410 - 276593 * a)


class VariantSolution(NamedTuple):
    """A fully solved variant at one commission rate.

    ``report`` is stated over the *unreduced* strategic form (every
    Banker column of the variant), and has been re-verified there; the
    log names strategies by their index in ``game``.  Read off, not
    stored: ``variant`` and ``alpha``, from ``game``, and ``reduced``,
    the 2 x n residual the report was enumerated on: ``game`` with both
    rows and the columns that no step of the log removed.
    """

    game: ReducedGame
    elimination_log: tuple[EliminationStep, ...]
    report: EquilibriumReport
    variant = property(lambda self: self.game.variant)
    alpha = property(lambda self: self.game.alpha)

    @property
    def reduced(self) -> ReducedGame:
        game = self.game
        fallen = {s.index for s in self.elimination_log if s.side == "column"}
        cols = [j for j in range(len(game.columns)) if j not in fallen]
        return game._replace(
            column_labels=tuple(game.column_labels[j] for j in cols),
            columns=tuple(game.columns[j] for j in cols),
            scaled=tuple(M.submatrix(cols) for M in game.scaled),
        )

    @property
    def player_value(self) -> Fraction:
        return self.report.row_value

    @property
    def banker_value(self) -> Fraction:
        return self.report.column_value

    @property
    def player_draw_probability(self) -> Fraction:
        """Weight the equilibrium puts on drawing with a total of 5."""
        i = self.game.row_labels.index(PlayerRow.DRAW_ON_5)
        return self.report.row_strategy[i]

    @property
    def column_mixture(self) -> Mapping[str, Fraction]:
        """Support of Banker's equilibrium mix, by column label."""
        return {
            self.game.column_labels[j]: self.report.column_strategy[j]
            for j in self.report.column_support
        }

    def banker_draw_probability(self, cell: InfoSet) -> Fraction:
        """Marginal probability that the equilibrium draws at one of the
        variant's optional cells; any other cell raises ``ValueError``."""
        cells = self.variant.optional_cells
        if cell not in cells:
            raise ValueError(f"not an optional cell of {self.variant.name}: {cell!r} "
                             f"(its optional cells are {', '.join(map(str, cells))})")
        idx = cells.index(cell)
        return sum(
            (self.report.column_strategy[j]
             for j in self.report.column_support
             if self.game.columns[j][idx] is Action.DRAW),
            Fraction(0),
        )


def solve_variant(variant: Variant, alpha=0) -> VariantSolution:
    """Reduce, solve, and independently verify one variant at one rate.

    Strict-dominance elimination never creates or destroys equilibria,
    so solving the residual solves the variant: both Player rows against
    the surviving columns (a fallen row stays strictly dominated there).
    Support enumeration lists its equilibria and a nondegeneracy check
    certifies the list complete; the one found is re-checked by
    :func:`baccarat.solver.verify_equilibrium` on the unreduced game.  A
    rate the variant accepts but at which the residual game is
    degenerate, or has more than one equilibrium, raises ``ValueError``:
    uniqueness is then not certified.
    """
    game = build_reduced_game(variant, alpha)
    (rows, cols), log, points = _eliminate(*game.scaled)
    # With both rows alive, the one round's breakpoints are the residual's.
    enum = _enumerate(*game.scaled, cols, points if len(rows) == 2 else None)
    if not enum.complete or len(enum.equilibria) != 1:
        raise ValueError(
            f"variant {variant.name!r} at alpha={game.alpha} has no unique "
            f"equilibrium (residual game 2x{len(cols)} after elimination)"
        )
    (report,) = enum.equilibria
    if not verify_equilibrium(*game.scaled, report):
        raise AssertionError(
            f"solved profile failed verification on the full "
            f"{variant.name} game at alpha={alpha}"
        )
    return VariantSolution(game=game, elimination_log=log, report=report)


#: Commission rates swept by default, less those a variant rejects (a
#: commission-free variant is swept at 0 only).
DEFAULT_ALPHA_GRID = (
    Fraction(0),
    Fraction(1, 100),
    Fraction(1, 30),
    Fraction(1, 20),
    Fraction(1, 16),
    Fraction(33, 500),
)


class CommissionSweep(NamedTuple):
    """Solutions along a grid of commission rates.

    ``validity_bound``, the exact rate at which the variant's fixed rules
    stop being justified, is read off ``variant``: see
    :func:`equilibrium_curve`.
    """

    variant: Variant
    samples: tuple[tuple[Fraction, VariantSolution], ...]
    validity_bound = property(lambda self: _sweep_bound(self.variant))


def _shape(variant: Variant) -> str | None:
    """The solved structure a variant has, read off its mandates alone:
    "classic" when every starred cell is optional, "modern" when it
    mandates the modern stands, and None otherwise."""
    if not variant.fixed_actions:
        return "classic"
    if variant.fixed_actions == MODERN.fixed_actions:
        return "modern"
    return None


def _sweep_bound(variant: Variant) -> Fraction:
    """:func:`table_validity_bound` for a variant shaped like classic or
    modern, else its ``alpha_bound``."""
    if _shape(variant) is None:
        return variant.alpha_bound
    return table_validity_bound(variant)


def _closed_forms(shape: str, sol: VariantSolution, a: Fraction):
    """``(figure, solved value, closed form)`` for each closed form that a
    solution of this shape meets at a rate ``a`` below its validity bound."""
    if shape == "classic":
        return (
            ("draw probability", sol.player_draw_probability, classic_draw_probability(a)),
            ("banker mix", sol.banker_draw_probability(InfoSet(6, None)),
             BANKER_STAND_CELL_DRAW_Q),
            ("player value", sol.player_value, PARLOR_PLAYER_VALUE),
            ("banker value", sol.banker_value, classic_banker_value(a)),
        )
    # The pure profile (draw on 5; draw at both optional cells).
    return (
        ("modern equilibrium", (sol.report.kind, sol.player_draw_probability,
                                sol.column_mixture), ("pure", 1, {"DD": 1})),
        ("modern player value", sol.player_value, MODERN_PLAYER_VALUE),
        ("modern banker value", sol.banker_value, modern_banker_value(a)),
    )


def equilibrium_curve(variant: Variant, alpha_grid=None) -> CommissionSweep:
    """Solve a variant across a grid of rates, asserting the closed forms.

    ``validity_bound`` is :func:`table_validity_bound` for a variant
    shaped like classic or modern, else its ``alpha_bound``.  Below that
    bound each sample of a classic-shaped variant is checked against the
    exact formulas for Player's draw probability, Banker's unchanged mix,
    the constant Player value, and Banker's value; of a modern-shaped
    one, against the pure equilibrium and its value line.  A violation
    raises rather than returning quietly wrong data.  A grid that lists
    no rate, or one rate twice in any spelling, raises ``ValueError``, and
    a string or anything not iterable ``TypeError``, before any solve.
    """
    shape = _shape(variant)
    bound = _sweep_bound(variant)
    if alpha_grid is None:
        alpha_grid = [
            a for a in DEFAULT_ALPHA_GRID if a == 0 or a < variant.alpha_bound
        ]
    if isinstance(alpha_grid, (str, bytes)) or not hasattr(alpha_grid, "__iter__"):
        raise TypeError(f"alpha_grid must list rates, not {type(alpha_grid).__name__}")
    grid = [variant.check_alpha(a) for a in alpha_grid]
    if not grid:
        raise ValueError("alpha_grid must list at least one rate")
    seen = set()
    for a in grid:
        if a in seen:
            raise ValueError(f"the grid lists the rate {a} more than once")
        seen.add(a)
    samples = []
    for a in grid:
        sol = solve_variant(variant, a)
        if shape is not None and a < bound:
            for name, solved, closed in _closed_forms(shape, sol, a):
                if solved != closed:
                    raise AssertionError(f"{name} off its closed form at alpha={a}")
        samples.append((a, sol))
    return CommissionSweep(variant, tuple(samples))


def _halvings(tol: Fraction) -> int:
    """How many halvings of ``[0, 33/500]`` first make it no wider than
    ``tol``."""
    return (math.ceil(Fraction(33, 500) / tol) - 1).bit_length()


class AlphaStarBracket(NamedTuple):
    """An exact bracket around the break-even commission rate.

    Banker's equilibrium value exceeds Player's below the rate and falls
    short above it.  The bracket stores ``lo`` and ``tolerance`` and
    reads off the rest: ``iterations`` is the number of halvings of
    ``[0, 33/500]`` that first reach a width of at most ``tolerance``,
    ``hi`` is ``lo`` plus that width, and ``player_value`` is Player's
    constant value :data:`PARLOR_PLAYER_VALUE`.  The bracket is the cell
    of that dyadic grid which holds the rate, the same one bisection
    would return.
    """

    lo: Fraction
    tolerance: Fraction
    player_value = PARLOR_PLAYER_VALUE

    @property
    def iterations(self) -> int:
        return _halvings(self.tolerance)

    @property
    def hi(self) -> Fraction:
        return self.lo + Fraction(33, 500 << self.iterations)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def find_alpha_star(tolerance=Fraction(1, 10**9)) -> AlphaStarBracket:
    """Bracket the commission rate equalizing the two seats' values.

    The classic game's Player value is constant in alpha while Banker's
    falls, and scaled by ``11 * 13^6 * (11 - 6*alpha) / 8`` the premium
    ``classic_banker_value(alpha) - PARLOR_PLAYER_VALUE`` is a quadratic
    whose smaller root is the rate.  That root is an irrational surd, so
    the cell of the halved ``[0, 33/500]`` grid holding it follows
    exactly from one integer square root.  The closed form only locates
    the bracket: two solves certify it, Banker's solved value being above
    Player's at ``lo`` and below it at ``hi``.
    """
    tol = _coerce_rational(tolerance, "tolerance")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    # The game is zero-sum at alpha = 0, so PARLOR_PLAYER_VALUE is
    # -8 * c0 / (11 * 13^6) and the scaled premium is qa*a^2 + qb*a + qc.
    c0, c1, c2 = _BANKER_NUM
    qa, qb, qc = 11 * c2, 11 * c1 - 6 * c0, 22 * c0
    disc = qb * qb - 4 * qa * qc
    scale = 500 << _halvings(tol)
    # The root times scale/33 is (-qb*scale - sqrt(disc*scale^2)) / (66*qa).
    # disc is not a square, so that numerator lies strictly between
    # ``numerator`` and ``numerator + 1``; dividing either floors alike.
    numerator = -qb * scale - math.isqrt(disc * scale * scale) - 1
    bracket = AlphaStarBracket(numerator // (66 * qa) * Fraction(33, scale), tol)
    at_lo = solve_variant(CLASSIC, bracket.lo).banker_value
    at_hi = solve_variant(CLASSIC, bracket.hi).banker_value
    if not at_lo > bracket.player_value > at_hi:
        raise AssertionError(
            f"solved values do not change sign across [{bracket.lo}, {bracket.hi}]"
        )
    return bracket


def table_validity_bound(variant: Variant) -> Fraction:
    """Smallest commission rate at which the variant's fixed drawing
    rules lose their game-theoretic justification.

    Defined for variants shaped like classic or modern, whatever their
    name or ``alpha_bound``.  With every starred cell optional (classic)
    that is the first rate at which some cell of the 88 stops being
    determined the way the tableau fixes it (the row-independence
    classification shifts).  With the modern mandates the optional cells
    must keep strictly favoring a draw against Player's equilibrium row,
    and the distinguishing mandate -- the forced stand at (6, None) --
    must remain a genuine restriction, i.e. Banker must still strictly
    prefer drawing there against that row.  Each condition is a finite
    conjunction of strict signs of cell values affine in alpha, so it
    can only change state at one of the exact crossover rates; scanning
    those rates in order finds the first failure exactly.  The scan reads
    nothing of the variant but its shape, so it runs once per shape.
    """
    shape = _shape(_of_type(variant, Variant, "variant"))
    if shape is None:
        raise ValueError(
            "validity bound is defined for variants shaped like classic or "
            "modern"
        )
    return _validity_bound(shape)


@lru_cache(maxsize=2)
def _validity_bound(shape: str) -> Fraction:
    """The crossover scan of :func:`table_validity_bound` for one shape.

    Every sign it tests is that of drawing's gain ``c - a * s`` at some
    cell and row, ``(c, s)`` read off :func:`baccarat.payoff._gain_table`,
    so the crossover rates are the ratios ``c / s`` in ``(0, 1)``.  For
    the modern shape it also checks, once, that Player's draw on 5
    strictly dominates in the modern game, whose columns every
    modern-shaped variant shares.
    """
    stand_on_5, draw_on_5 = _gain_table()
    if shape == "classic":
        def holds(a: Fraction) -> bool:
            return classify_info_sets(a).agrees_with_tableau
    else:
        # A's rows in integers: Player stands on 5, then draws on 5.
        stands, draws = build_reduced_game(MODERN, 0).scaled[0][1]
        if not all(d > s for s, d in zip(stands, draws)):  # pragma: no cover
            raise AssertionError("drawing on 5 should dominate in the modern game")
        watched = [
            draw_on_5[_CELL_INDEX[c]]
            for c in (*MODERN.optional_cells, InfoSet(6, None))
        ]

        def holds(a: Fraction) -> bool:
            return all(c > a * s for c, s in watched)

    # c / s lies in (0, 1) exactly when c lies strictly between 0 and s.
    roots = {Fraction(c, s) for c, s in (*stand_on_5, *draw_on_5) if 0 < c < s or s < c < 0}
    prev = Fraction(0)
    for r in sorted(roots):
        if not holds((prev + r) / 2):  # pragma: no cover - strict signs
            raise AssertionError(f"validity lost strictly inside ({prev}, {r})")
        if not holds(r):
            return r
        prev = r
    return Fraction(1)  # pragma: no cover - always breaks before 1

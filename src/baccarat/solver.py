"""Exact solvers for 2 x n bimatrix games.

Conventions: ``A[r][j]`` is the row player's payoff and ``B[r][j]`` the
column player's when row ``r`` meets column ``j``.  Zero-sum games are
handled as the special case ``B = -A``.  All arithmetic is over exact
rationals.  Every matrix entry and weight passes the package's one
number gate, ``rules._coerce_rational``: a float is rejected rather than
silently rounded, and a decimal too long to write out is rejected
before it is built.  Every routine here takes a game as its two
matrices ``A`` and ``B``, first, with exactly two rows, and refuses a
``B`` whose shape is not ``A``'s; strategies are named by index.

With two rows, each column is a line over the row mix (1 - p, p), and
every question the solvers ask is answered by one upper envelope of
those lines (:func:`_envelope`): its breakpoints are the ends of the
p-range and the envelope's vertices inside it, and between breakpoints
the envelope is linear.  Each routine reads a matrix as a positive scale
and the integer matrix equal to the matrix times it (:class:`_Scaled`);
a positive scale moves no breakpoint, best reply or dominator weight.
So vertices come from a hull walk on integer lines, weights from integer
slopes and differences, and an equilibrium is checked by integer
payoffs: fractions are built only for what is reported.

* :func:`eliminate_strictly_dominated` -- iterated elimination with a
  full audit log, returning the indices of the surviving rows and
  columns.  A column is strictly dominated by a mixture exactly
  when it is a best reply to no row mix (Pearce, 1984), so one envelope
  pass decides every column at once, and the same breakpoints certify
  each removal: a survivor that beats it on every alive row, or else the
  two lines meeting at the vertex where the envelope first grows steeper
  than it, mixed to run parallel to it.

* :func:`enumerate_nash_2xn` -- support enumeration for bimatrix games,
  with a degeneracy check.  On a nondegenerate game the enumeration is
  exhaustive and ``complete`` is True; on a degenerate one isolated
  equilibria are still reported but continua are only flagged.

* :func:`is_nondegenerate` -- the same degeneracy check on its own.  The
  solve path reads it as ``enumerate_nash_2xn``'s ``complete`` and
  ``witness``, not through this function.

* :func:`verify_equilibrium` -- an independent certificate: every
  solved equilibrium is re-checked by it before it is reported.

:func:`baccarat.parametric.solve_variant` reaches the first two through
their private forms, ``_eliminate`` and ``_enumerate``, so that they share
one game and one hull walk: the enumeration runs on the unreduced
matrices, over the surviving columns only, and reports in the unreduced
game's indexing.  When both rows survive, the elimination's one round
walked the survivors' envelope, and the enumeration reads its breakpoints
instead of walking it again.  Every mix the solver builds, of weights it
computed as fractions, goes through one private constructor,
``MixedStrategy._built``, which sets the fields the public constructor
would and skips only the number gate.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .rules import _Frozen, _coerce_rational, _items, _of_type

__all__ = [
    "MixedStrategy",
    "EquilibriumReport",
    "EliminationStep",
    "eliminate_strictly_dominated",
    "NashEnumeration",
    "enumerate_nash_2xn",
    "DegeneracyWitness",
    "is_nondegenerate",
    "verify_equilibrium",
]


def _matrix(M, name: str) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(_coerce_rational(x, "matrix entry") for x in _items(row, f"{name}[{r}]"))
                 for r, row in enumerate(_items(M, name)))
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows must have equal length")
    return rows


class _Scaled(tuple):
    """An exact matrix as the pair ``(scale, rows)``: a positive integer
    and the integer matrix equal to the matrix times it."""

    __slots__ = ()

    def fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        scale, rows = self
        return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)

    def submatrix(self, columns) -> "_Scaled":
        scale, M = self
        return _Scaled((scale, tuple(tuple(row[j] for j in columns) for row in M)))


_ZERO, _ONE = Fraction(0), Fraction(1)


def _unit(index: int, n: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if i == index else _ZERO for i in range(n))


class MixedStrategy(_Frozen):
    """An exact probability vector over pure strategies."""

    __slots__ = ("weights", "support", "_scaled")
    _fields = ("weights",)

    def __init__(self, weights):
        self._set(tuple(_coerce_rational(w, "weight") for w in _items(weights, "weights")))

    @classmethod
    def _built(cls, weights: tuple[Fraction, ...]) -> "MixedStrategy":
        """The mix of ``Fraction`` weights the solver built, with the same
        fields and checks as the public constructor, less the number gate
        each weight has already passed."""
        mix = object.__new__(cls)
        mix._set(weights)
        return mix

    def _set(self, weights: tuple[Fraction, ...]) -> None:
        scaled = _integral((weights,))
        scale, (ints,) = scaled
        if min(ints, default=0) < 0:
            raise ValueError("mixed-strategy weights must be nonnegative")
        if sum(ints) != scale:
            raise ValueError("mixed-strategy weights must sum to 1")
        support = tuple(i for i, x in enumerate(ints) if x)
        self._init(weights=weights, support=support, _scaled=scaled)

    @classmethod
    def pure(cls, index: int, n: int) -> "MixedStrategy":
        """The unit vector at ``index``, an int in ``0..n-1``."""
        _of_type(n, int, "n")
        if type(index) is not int or not 0 <= index < n:
            raise ValueError(f"pure strategy {index!r} of {n}: not an int in 0..{n - 1}")
        return cls(_unit(index, n))

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]


def _as_weights(mix, name: str) -> tuple[Fraction, ...]:
    """The exact weights of a mix, given as a weight sequence or anything
    with ``.weights``; a refusal of its kind names the parameter ``name``."""
    return MixedStrategy(_items(getattr(mix, "weights", mix), name)).weights


class EquilibriumReport(NamedTuple):
    """One equilibrium of a 2 x n game, with exact strategies and values.

    ``unique`` is True only when the producing routine certified that no
    other equilibrium exists.  ``note`` carries caveats, e.g. that the
    point represents a continuum in a degenerate game.  Read off the
    strategies, not stored: ``row_support`` and ``column_support``, and
    ``kind``, "pure" when both supports have one element, else "mixed".
    """

    row_strategy: MixedStrategy
    column_strategy: MixedStrategy
    row_value: Fraction
    column_value: Fraction
    unique: bool = False
    note: str = ""
    row_support = property(lambda self: self.row_strategy.support)
    column_support = property(lambda self: self.column_strategy.support)

    @property
    def kind(self) -> str:
        pure = len(self.row_support) == len(self.column_support) == 1
        return "pure" if pure else "mixed"


class EliminationStep(NamedTuple):
    """Audit record: which strategy fell, and what dominated it.

    ``index`` and ``dominator_indices`` are indices in the game given to
    :func:`eliminate_strictly_dominated`, on the side that ``side`` names.
    """

    side: str  # "row" or "column"
    index: int
    dominator_indices: tuple[int, ...]
    dominator_weights: tuple[Fraction, ...]


def _integral(M) -> _Scaled:
    """An exact matrix scaled by the lcm of its denominators."""
    scale = math.lcm(*[x.denominator for row in M for x in row])
    return _Scaled((scale, tuple([
        tuple([x.numerator * (scale // x.denominator) for x in row]) for row in M
    ])))


def _game(A, B) -> tuple[_Scaled, _Scaled]:
    """A 2 x n game's matrices scaled by :func:`_integral`, once checked
    exact and 2 x n alike; a scaled pair, as a reduced game's ``scaled``,
    is taken as it is."""
    if type(A) is not _Scaled or type(B) is not _Scaled:
        A, B = _integral(_matrix(A, "A")), _integral(_matrix(B, "B"))
    (_, a), (_, b) = A, B
    if len(a) != 2:
        raise ValueError(f"this solver handles exactly 2 rows, got {len(a)}")
    if len(b) != 2 or len(b[0]) != len(a[0]):
        raise ValueError(
            f"B must have A's shape, 2 x {len(a[0])}, got {len(b)} x {len(b[0])}"
        )
    return A, B


def _envelope(M, cols, lo=0, hi=1):
    """The upper envelope of the 2-row column lines over ``[lo, hi]``.

    ``M`` is an integer matrix (see :func:`_integral`).  Column j is the
    line ``(1 - p) * M[0][j] + p * M[1][j]`` in the weight p on row 1,
    and ``lo`` and ``hi`` are each 0 or 1.  The breakpoints are ``lo``,
    ``hi`` and the envelope's vertices between them, found by a hull
    walk: from each breakpoint follow the steepest line on top; the next
    breakpoint is the nearest crossing to the right by a steeper line,
    and the lines on top there are that line's copies and the steeper
    lines crossing it there, so only the lines at ``lo`` are evaluated.
    The envelope is linear between consecutive breakpoints, so a column
    is a best reply somewhere in ``[lo, hi]`` exactly when it is one at
    a breakpoint; at each one the least and the steepest line on top
    carry the envelope in from the left and out to the right.  Returns
    ``(p, best)`` for each breakpoint in increasing p, ``best`` being the
    columns of ``cols`` on top there, in index order; p is the shared
    ``_ZERO`` or ``_ONE`` at the ends.
    """
    lines = [(j, M[0][j], M[1][j] - M[0][j]) for j in cols]
    height = max(a + s * lo for _, a, s in lines)
    top = [line for line in lines if line[1] + line[2] * lo == height]
    points = []
    num, den = lo, 1  # the breakpoint p = num / den, with den > 0
    while True:
        p = _ZERO if num == 0 else _ONE if num == den else Fraction(num, den)
        points.append((p, tuple(sorted([j for j, _, _ in top]))))
        if num == hi * den:
            return points
        _, a0, s0 = max(top, key=lambda line: line[2])
        # A line no steeper than s0 and not its copy lies below it from here on.
        top = [line for line in top if line[2] == s0]
        lines = [line for line in lines if line[2] > s0]
        num, den, crossing = hi, 1, []
        for line in lines:
            # A steeper line lies below the top here, so it crosses to the right.
            _, a, s = line
            gap = (a0 - a) * den - num * (s - s0)
            if gap < 0:
                num, den, crossing = a0 - a, s - s0, [line]
            elif gap == 0:
                crossing.append(line)
        top += crossing


def eliminate_strictly_dominated(A, B):
    """Iterated strict-dominance elimination of a 2 x n game; returns
    ``((rows, columns), log)``.

    ``rows`` and ``columns`` are the indices of the surviving strategies,
    in increasing order, and ``log`` the removals in the order made.  The
    columns that are a best reply under ``B`` at no breakpoint of the
    alive rows' envelope fall together, logged in index order.  Each is
    certified by the first survivor that beats it on every alive row,
    else by the least and the steepest line on top at the first
    breakpoint where the envelope grows steeper than the fallen column,
    in increasing index order and mixed to have that column's slope:
    the mix touches the envelope there, so it lies above the column by
    one positive margin on both rows.  A row falls when the other row is
    strictly better under ``A`` on every surviving column; the columns
    are then decided once more against the remaining row.
    Strict elimination never removes any equilibrium strategy, so
    solving the game the survivors span solves the game.
    """
    return _eliminate(A, B)[:2]


def _eliminate(A, B):
    """:func:`eliminate_strictly_dominated`, returning also the envelope
    breakpoints of its last round: ``(survivors, log, points)``.  When
    both rows survive, that round was the only one, its breakpoints span
    ``[0, 1]``, and the fallen columns were on top at none of them, so
    they are the breakpoints of the surviving columns alone."""
    (_, A), (_, B) = _game(A, B)
    rows_alive = [0, 1]
    cols_alive = list(range(len(A[0])))
    log: list[EliminationStep] = []
    slope = [b1 - b0 for b0, b1 in zip(*B)]

    while True:
        points = _envelope(B, cols_alive, rows_alive[0], rows_alive[-1])
        best = {j for _, top in points for j in top}
        survivors = [j for j in cols_alive if j in best]
        # One alive row is compared twice, which is comparing it once.
        first, last = B[rows_alive[0]], B[rows_alive[-1]]
        rivals = [(k, first[k], last[k]) for k in survivors]
        # Each breakpoint's least and steepest top line, with their slopes.
        ends = []
        for _, top in points:
            lo, hi = min(top, key=slope.__getitem__), max(top, key=slope.__getitem__)
            ends.append((slope[lo], lo, slope[hi], hi))
        for j in cols_alive:
            if j in best:
                continue
            x, y = first[j], last[j]
            for k, u, v in rivals:
                if u > x and v > y:
                    log.append(EliminationStep("column", j, (k,), (_ONE,)))
                    break
            else:
                # The envelope less j's line is convex and positive.  With
                # no pure dominator two rows are alive, and at the first
                # breakpoint where the envelope grows steeper than j its
                # least and steepest top lines have s(lo) < s(j) < s(hi):
                # at p = 0, or with s(lo) = s(j), one line would beat j alone.
                s = slope[j]
                s_lo, lo, s_hi, hi = next(end for end in ends if end[2] > s)
                w_lo, w_hi = Fraction(s_hi - s, s_hi - s_lo), Fraction(s - s_lo, s_hi - s_lo)
                log.append(EliminationStep("column", j, (lo, hi), (w_lo, w_hi)) if lo < hi
                           else EliminationStep("column", j, (hi, lo), (w_hi, w_lo)))
        cols_alive = survivors

        fallen = [r for r in rows_alive if len(rows_alive) == 2
                  and all(A[1 - r][j] > A[r][j] for j in cols_alive)]
        if not fallen:
            return (tuple(rows_alive), tuple(cols_alive)), tuple(log), points
        (r,) = fallen
        log.append(EliminationStep("row", r, (1 - r,), (_ONE,)))
        rows_alive.remove(r)


class DegeneracyWitness(NamedTuple):
    """Evidence of degeneracy: a strategy with too many best responses.

    ``side`` names whose strategy it is; ``strategy`` is a pure index or
    an exact row-mix weight; ``best_responses`` are the opposing pure
    strategies that all tie as best replies.
    """

    side: str
    strategy: object
    best_responses: tuple[int, ...]


def is_nondegenerate(A, B) -> tuple[bool, DegeneracyWitness | None]:
    """Check the support-counting degeneracy condition for 2 x n games.

    A game is nondegenerate when no mixed strategy with support of size
    s has more than s pure best responses.  With two rows this reduces
    to three finite checks: no pure column leaves both rows tied as best
    replies, no pure row has two best-reply columns tied, and no
    interior row mix has three or more best-reply columns tied.  The
    last two are read off the envelope's breakpoints: distinct lines tie
    on top only at a vertex, and identical ones also at the ends of the
    stretch they top.
    """
    (_, A), (_, B) = _game(A, B)
    cols = range(len(A[0]))
    witness = _degeneracy(A, cols, _envelope(B, cols))
    return witness is None, witness


def _degeneracy(A, cols, points) -> DegeneracyWitness | None:
    """The witness of the checks of :func:`is_nondegenerate` on the
    columns ``cols``, or None, given the scaled ``A`` and the envelope's
    breakpoints ``points`` of ``B``'s lines of those columns."""
    for c in cols:
        if A[0][c] == A[1][c]:
            return DegeneracyWitness("column", c, (0, 1))
    for p, best in points:
        if p in (0, 1):
            if len(best) > 1:
                return DegeneracyWitness("row", int(p), best)
        elif len(best) > 2:
            return DegeneracyWitness("row mix", p, best)
    return None


class NashEnumeration(NamedTuple):
    """All equilibria found by support enumeration, plus the degeneracy
    witness of the game, None when it verified as nondegenerate.

    ``complete``, the completeness certificate, is read off the witness:
    True exactly when there is none.
    """

    equilibria: tuple[EquilibriumReport, ...]
    witness: DegeneracyWitness | None = None
    complete = property(lambda self: self.witness is None)


def enumerate_nash_2xn(A, B) -> NashEnumeration:
    """Enumerate Nash equilibria of a 2 x n bimatrix game by supports.

    Pure-pure pairs are checked directly; mixed equilibria are sought
    over row support {0,1} and every column support pair.  On degenerate
    games, equilibrium continua are represented by sample points with an
    explanatory note, and ``complete`` is False.
    """
    return _enumerate(A, B)


def _enumerate(A, B, cols=None, points=None) -> NashEnumeration:
    """:func:`enumerate_nash_2xn` of the subgame of both rows and the
    columns ``cols`` (all when None), in increasing order, reported in the
    full game's indexing.  The envelope of those columns' lines under
    ``B`` over ``[0, 1]`` is read from ``points`` when they are given."""
    (scale_A, A), (scale_B, B) = _game(A, B)
    n = len(A[0])
    if cols is None:
        cols = range(n)
    if points is None:
        points = _envelope(B, cols)
    witness = _degeneracy(A, cols, points)
    # ((row weights, col weights), note), each profile once and with the
    # note it was first found with; a list, as a Fraction hashes slowly.
    found: list[tuple[tuple, str]] = []

    def record(rw, cw, note=""):
        profile = (tuple(rw), tuple(cw))
        if all(profile != seen for seen, _ in found):
            found.append((profile, note))

    best_to_row = (points[0][1], points[-1][1])  # p = 0 is row 0, p = 1 row 1

    # Pure x pure.
    for r in range(2):
        for c in best_to_row[r]:
            if A[r][c] >= A[1 - r][c]:
                record(_unit(r, 2), _unit(c, n))

    # Mixed row, two-column support: two columns tied on top at an
    # interior breakpoint p, where their lines cross.
    for p, best in points[1:-1]:
        for c1, c2 in combinations(best, 2):
            # Identical lines give continua handled via the degeneracy flag.
            if B[0][c1] == B[0][c2] and B[1][c1] == B[1][c2]:
                continue
            u = A[0][c1] - A[1][c1]
            w = A[0][c2] - A[1][c2]
            # Weight w / (w - u) on c1 equalizes the two rows; it lies in
            # (0, 1) exactly when u and w have opposite signs.
            if u * w >= 0:
                continue
            cw = [_ZERO] * n
            cw[c1], cw[c2] = Fraction(w, w - u), Fraction(-u, w - u)
            record((1 - p, p), cw)

    # Degenerate families: row mixes against one pure column.
    for c in cols:
        if A[0][c] != A[1][c]:
            continue
        # Every p keeps Player indifferent; column c is a best reply on
        # the p-interval between the first and last breakpoints where it
        # is on top.  Report that interval's midpoint.
        on_top = [p for p, best in points if c in best]
        if on_top:
            p = (on_top[0] + on_top[-1]) / 2
            record((1 - p, p), _unit(c, n), "represents a continuum of row mixes")

    # Degenerate families: pure row against mixes of tied best columns.
    for r in range(2):
        for c1, c2 in combinations(best_to_row[r], 2):
            # Row r must stay a best reply: find a feasible column mix.
            g1 = A[r][c1] - A[1 - r][c1]
            g2 = A[r][c2] - A[1 - r][c2]
            lo, hi = _ZERO, _ONE
            if g1 == g2:
                if g1 < 0:
                    continue
            elif g1 > g2:
                lo = max(lo, Fraction(-g2, g1 - g2))
            else:
                hi = min(hi, Fraction(-g2, g1 - g2))
            if lo > hi:
                continue
            q = (lo + hi) / 2
            if not 0 < q < 1:
                continue
            cw = [_ZERO] * n
            cw[c1], cw[c2] = q, 1 - q
            record(_unit(r, 2), cw, "represents a continuum of column mixes")

    reports = []
    unique = witness is None and len(found) == 1
    for (rw, cw), note in sorted(found):
        row, col = MixedStrategy._built(rw), MixedStrategy._built(cw)
        (row_scale, (x,)), (col_scale, (y,)) = row._scaled, col._scaled
        rv, cv = (
            Fraction(
                x[0] * sum(map(operator.mul, y, M[0])) + x[1] * sum(map(operator.mul, y, M[1])),
                row_scale * col_scale * scale,
            )
            for scale, M in ((scale_A, A), (scale_B, B))
        )
        reports.append(
            EquilibriumReport(
                row_strategy=row,
                column_strategy=col,
                row_value=rv,
                column_value=cv,
                unique=unique,
                note=note,
            )
        )
    return NashEnumeration(equilibria=tuple(reports), witness=witness)


def verify_equilibrium(A, B, report: EquilibriumReport) -> bool:
    """Independently check a claimed equilibrium, exactly.

    Confirms that every support strategy is a best reply to the
    opponent's mix, and that the stated values equal the realized
    expected payoffs.  The report's supports are read off its strategies,
    so they need no check.  The payoffs are compared as integers, with
    the game and both mixes scaled to integers; only the two realized
    values are built as fractions.
    Nothing here reads the envelope or the enumeration.
    """
    (scale_A, int_A), (scale_B, int_B) = _game(A, B)
    _of_type(report, EquilibriumReport, "report")
    row = _of_type(report.row_strategy, MixedStrategy, "report.row_strategy")
    col = _of_type(report.column_strategy, MixedStrategy, "report.column_strategy")
    if len(row) != 2 or len(col) != len(int_A[0]):
        return False

    # Every payoff below is scaled by the positive scales of what it is
    # built from, so comparisons between them hold in integers.
    (row_scale, (int_row,)), (col_scale, (int_col,)) = row._scaled, col._scaled

    row_payoffs = [sum(map(operator.mul, int_col, line)) for line in int_A]
    best_row = max(row_payoffs)
    if any(row_payoffs[r] != best_row for r in row.support):
        return False

    col_payoffs = [
        int_row[0] * b0 + int_row[1] * b1 for b0, b1 in zip(*int_B)
    ]
    best_col = max(col_payoffs)
    if any(col_payoffs[j] != best_col for j in col.support):
        return False

    scale = row_scale * col_scale
    rv = Fraction(sum(map(operator.mul, int_row, row_payoffs)), scale * scale_A)
    cv = Fraction(sum(map(operator.mul, int_col, col_payoffs)), scale * scale_B)
    return rv == report.row_value and cv == report.column_value

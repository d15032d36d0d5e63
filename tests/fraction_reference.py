"""The decomposition summed in fractions: a reference for its integer ledger.

These are the fraction computations the engine's integer ledger
replaced, kept here so the tests can compare the two routes quantity by
quantity, and :func:`info_set_stats`, the per-cell statistics read off
that ledger.  Triples are Banker's (win, loss, tie); a ledger slot
counts Player's (loss, tie, win) out of 13^6.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

from baccarat import ALL_INFO_SETS, Action, InfoSet, PlayerRow
from baccarat.payoff import (
    _ROWS,
    _SCALE,
    _analytic_ledger,
    two_card_total_distribution,
    value_distribution,
)
from baccarat.rules import _CELL_INDEX, _commission_rate, _info_set, _of_type

F = Fraction
D5 = PlayerRow.DRAW_ON_5


def _bin(pf, bf):
    """Index of Banker's win (0), loss (1) or tie (2) in a triple."""
    return 0 if bf > pf else (1 if bf < pf else 2)


def fraction_cell_data(info, row):
    """Occurrence and conditional (bw, pw, tie) triples, summed in fractions."""
    tau, nu = two_card_total_distribution(), value_distribution()
    b, c = info
    if c is None:
        finals = [(t, tau[t]) for t in ((6, 7) if row is D5 else (5, 6, 7))]
    else:
        finals = [((t + c) % 10, tau[t] * nu[c]) for t in range(6 if row is D5 else 5)]
    mass = sum(w for _, w in finals)

    def triple(outcomes):
        bins = [F(0)] * 3
        for pf, bf, w in outcomes:
            bins[_bin(pf, bf)] += w
        return tuple(x / mass for x in bins)

    stand = triple((pf, b, w) for pf, w in finals)
    draw = triple(
        (pf, (b + d) % 10, w * wd) for pf, w in finals for d, wd in nu.items()
    )
    return tau[b] * mass, stand, draw


def fraction_natural_phase():
    """Unconditional (bw, pw, tie) contribution of coups with a natural."""
    tau = two_card_total_distribution()
    bins = [F(0)] * 3
    for pt, wp in tau.items():
        for bt, wb in tau.items():
            if pt >= 8 or bt >= 8:
                bins[_bin(pt, bt)] += wp * wb
    return tuple(bins)


def fraction_info_set_stats(info, row, alpha):
    """(occurrence, e_stand, e_draw), each value ``(1 - alpha) bw - pw``."""
    occurrence, stand, draw = fraction_cell_data(info, row)

    def value(triple):
        return (1 - alpha) * triple[0] - triple[1]

    return occurrence, value(stand), value(draw)


def fraction_reduced_game(variant, alpha):
    """(A, B) of a variant, built as a fixed part plus per-cell options."""
    alpha = F(alpha)
    fixed = dict(variant.fixed_cell_actions())
    cells = variant.optional_cells
    A, B = [], []
    for row in (PlayerRow.STAND_ON_5, D5):
        base = list(fraction_natural_phase())
        options = {}
        for info in ALL_INFO_SETS:
            occurrence, stand, draw = fraction_cell_data(info, row)
            if info in fixed:
                chosen = stand if fixed[info] is Action.STAND else draw
                base = [x + occurrence * y for x, y in zip(base, chosen)]
            else:
                options[info] = (
                    [occurrence * x for x in stand],
                    [occurrence * x for x in draw],
                )
        a_row, b_row = [], []
        for asg in itertools.product((Action.STAND, Action.DRAW), repeat=len(cells)):
            total = list(base)
            for info, action in zip(cells, asg):
                chosen = options[info][action is Action.DRAW]
                total = [x + y for x, y in zip(total, chosen)]
            bw, pw, _tie = total
            a_row.append(pw - bw)
            b_row.append((1 - alpha) * bw - pw)
        A.append(tuple(a_row))
        B.append(tuple(b_row))
    return tuple(A), tuple(B)


class InfoSetStats(NamedTuple):
    """Occurrence probability and conditional action values for one cell
    against one Player row, at a given commission rate."""

    info: InfoSet
    row: PlayerRow
    alpha: Fraction
    occurrence: Fraction
    e_stand: Fraction
    e_draw: Fraction

    @property
    def improvement(self) -> Fraction:
        """How much drawing beats standing, conditionally on the cell."""
        return self.e_draw - self.e_stand


def _cell_slot(info, row):
    """The (stand, draw) counts of one cell against one row."""
    return _analytic_ledger()[_ROWS.index(row)][_CELL_INDEX[info]]


def info_set_stats(info, row, alpha=0) -> InfoSetStats:
    """Exact per-cell statistics read off the analytic ledger, with every
    argument through the package's gates; ``alpha`` must be exact."""
    info = _info_set(info)
    row = _of_type(row, PlayerRow, "row")
    a = _commission_rate(alpha)
    stand, draw = _cell_slot(info, row)
    total, p, q = sum(stand), a.numerator, a.denominator
    # Banker's expectation is ((1 - alpha) * loss - win) / total.
    return InfoSetStats(
        info=info,
        row=row,
        alpha=a,
        occurrence=Fraction(total, _SCALE),
        e_stand=Fraction((q - p) * stand[0] - q * stand[2], q * total),
        e_draw=Fraction((q - p) * draw[0] - q * draw[2], q * total),
    )

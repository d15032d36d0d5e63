"""Economics of the fixed-rule casino game: outcome probabilities, the
house edges of the three wagers, and the bet volume a capped bank
leaves unmatched.

Here neither side chooses anything: Player follows the draw-on-5 row
and Banker follows the tableau with stands at (4, 1) and (6, None) and
draws at (3, 9) and (5, 4) -- exactly the modern game's equilibrium
strategies, now written into the rules.  Outcome probabilities come from
the brute-force enumeration oracle, not from the matrix decomposition,
so they double as an independent cross-check on the solved games.

A winning Banker bet is paid at 19:20 (a five percent commission); a
winning Player bet is paid even money; ties push both.  The *edge* of a
wager is the house's expected gain per unit staked on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .payoff import oracle_outcome_distribution
from .rules import (
    Action,
    BankerStrategy,
    InfoSet,
    MODERN,
    PlayerRow,
    _coerce_rational,
)

__all__ = [
    "PuntoReport",
    "mandated_banker_strategy",
    "punto_report",
    "unfulfilled_demand",
]


class PuntoReport(NamedTuple):
    """Exact outcome law and per-wager house edges.

    It stores ``P``, ``B`` and ``T``, the Player-win, Banker-win and tie
    probabilities, which sum to one, and reads the edges off them.  An
    edge is the house's expected gain per unit staked: ``edge_player``
    on a Player bet paid even money, ``edge_banker`` on a Banker bet
    paid 19:20, and ``edge_chemin`` -- one twentieth of the bank's win
    probability -- when the house instead lets a patron hold the bank
    and takes five percent of the bank's wins.
    """

    P: Fraction
    B: Fraction
    T: Fraction
    edge_player = property(lambda self: self.B - self.P)
    edge_banker = property(lambda self: self.P - Fraction(19, 20) * self.B)
    edge_chemin = property(lambda self: self.B / 20)


def mandated_banker_strategy() -> BankerStrategy:
    """The drawing rules the fixed-rule game carves in stone."""
    return BankerStrategy.from_assignment(
        {InfoSet(3, 9): Action.DRAW, InfoSet(5, 4): Action.DRAW}, variant=MODERN
    )


def punto_report() -> PuntoReport:
    """Enumerate the fixed-rule game exactly and price all three wagers."""
    return PuntoReport(
        *oracle_outcome_distribution(PlayerRow.DRAW_ON_5, mandated_banker_strategy())
    )


def unfulfilled_demand(
    stakes: Iterable, banker_offer
) -> tuple[Fraction, Fraction]:
    """Bet volume matched, and left unmatched, at a capped bank.

    ``stakes`` are the amounts would-be bettors put up against the bank
    and ``banker_offer`` is the most the bank will face.  The coup plays
    for the smaller side, so ``matched = min(sum(stakes), banker_offer)``
    and ``unfulfilled`` is the excess of the longer side -- unmet bettor
    demand when the bank is short, idle bank when bettors are.  All
    amounts must be positive exact numbers; an empty table is an error,
    and so is a string, whose characters are not stakes.
    """
    if isinstance(stakes, (str, bytes)):
        raise TypeError(
            f"stakes must be a sequence of amounts, not {type(stakes).__name__}"
        )
    stakes = tuple(stakes)
    if not stakes:
        raise ValueError("stakes must be a nonempty sequence of positive amounts")
    total = Fraction(0)
    for s in stakes:
        a = _coerce_rational(s, "stake")
        if a <= 0:
            raise ValueError(f"stakes must be positive, got {a}")
        total += a
    offer = _coerce_rational(banker_offer, "banker_offer")
    if offer <= 0:
        raise ValueError(f"banker_offer must be positive, got {offer}")
    matched = min(total, offer)
    return matched, abs(total - offer)

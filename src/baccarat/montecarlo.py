"""Monte Carlo validation of the solved games.

Simulation exists here to check the exact results, not to replace them:
hands are sampled from the card-value law and looked up in the outcome
table of :mod:`baccarat.payoff`, built once per process from
:func:`baccarat.rules.play_coup` on the representative hands
``(0, total)`` -- the table whose folded counts are the brute-force
oracle -- so a simulated mean drifting from a solved value by more than
a few standard errors indicts the engine, not the dice.

Sampling notes:

* The RNG is Python's Mersenne Twister (``random.Random``), far beyond
  64 bits of state; the generator identity is recorded in every result.

* Every hand consumes exactly eight variates -- one uniform for
  Player's row, one for Banker's behavioral decision, and six card
  values -- whether or not the hand uses them all.  Results for a given
  seed are therefore bit-for-bit reproducible and stay stable under
  strategy changes that alter how many cards a hand needs.

* Banker mixes are sampled *behaviorally*, one uniform against the
  per-cell draw probability.  A coup reaches at most one Banker
  information set, so a behavioral sample with the right per-cell
  marginals has exactly the outcome law of the corresponding mixture of
  pure strategies.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, sqrt
from typing import Mapping, NamedTuple

from .parametric import VariantSolution, solve_variant
from .payoff import _outcome_table
from .rules import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    InfoSet,
    PlayerRow,
    Variant,
    _coerce_rational,
    _info_set,
)
from .solver import MixedStrategy, _as_weights

__all__ = [
    "SimResult",
    "simulate",
    "equilibrium_profile",
]

_RNG_IDENTITY = "python-random-mt19937"
#: Largest run accepted: 10^7 hands take about 12 s (2-vCPU Xeon, Python 3.11).
_MAX_HANDS = 10**7


class SimResult(NamedTuple):
    """Outcome of one simulation run; equal seeds give equal results."""

    variant: str
    alpha: Fraction
    n_hands: int
    seed: int
    rng: str
    player_draw_probability: Fraction
    wins: int
    losses: int
    ties: int
    mean_player: float
    mean_banker: float
    std_error: float
    std_error_banker: float


def _draw_probabilities(
    banker, variant: Variant
) -> dict[InfoSet, Fraction]:
    """Normalize a strategy-or-mix argument to per-cell draw chances.

    Cells the caller leaves unspecified default to the tableau (and the
    variant's mandates); cells the caller does specify may deviate from
    the tableau -- that is what deviation experiments are for -- but
    never from a mandate the variant writes into law.
    """
    table = {
        info: Fraction(int(action is Action.DRAW))
        for info, action in variant.fixed_cell_actions()
    }
    if isinstance(banker, BankerStrategy):
        specified = banker.items()
    else:
        specified = [(_info_set(key), p) for key, p in dict(banker).items()]
    for info, given in specified:
        if isinstance(given, Action):
            prob = Fraction(int(given is Action.DRAW))
        else:
            prob = _coerce_rational(given, f"draw probability at {info}")
        if not 0 <= prob <= 1:
            raise ValueError(
                f"draw probability at {info} must be in [0,1], got {prob}"
            )
        if info in variant.fixed_actions:
            mandated = Fraction(
                int(variant.fixed_actions[info] is Action.DRAW)
            )
            if prob != mandated:
                raise ValueError(
                    f"{variant.name} rules mandate "
                    f"{variant.fixed_actions[info]} at {info}"
                )
        table[info] = prob
    missing = [i for i in ALL_INFO_SETS if i not in table]
    if missing:
        raise ValueError(f"no action or mix for cells: {missing}")
    return table


# random() yields m / 2**53 with m an integer, so "u < p" for exact
# rational p is equivalent to the pure-float comparison
# "u * 2**53 < ceil(p * 2**53)" -- no per-hand Fraction arithmetic needed.
_TWO53 = float(1 << 53)


def _exact_threshold(p: Fraction) -> float:
    return float(ceil(p * (1 << 53)))


#: Card value of each accepted 4-bit draw 0..12: four ranks count 0.
_CARD_VALUE = (0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)


def _check_hands(n_hands) -> None:
    """Reject a hand count outside 1 to ``_MAX_HANDS``."""
    if not isinstance(n_hands, int) or not 0 < n_hands <= _MAX_HANDS:
        raise ValueError(
            f"n_hands must be an integer from 1 to {_MAX_HANDS}, got {n_hands!r}"
        )


def _row_mix_weight(row_mix) -> Fraction:
    """Weight on drawing-on-5, from a row, weights, or MixedStrategy."""
    if isinstance(row_mix, PlayerRow):
        return Fraction(int(row_mix is PlayerRow.DRAW_ON_5))
    return _as_weights(row_mix, 2)[1]


def simulate(
    variant: Variant,
    row_mix,
    banker_strategy_or_mix,
    alpha,
    n_hands: int,
    seed: int,
) -> SimResult:
    """Sample ``n_hands`` independent coups and summarize both payoffs.

    ``row_mix`` is Player's strategy (a PlayerRow, or weights over
    stand-on-5 / draw-on-5); ``banker_strategy_or_mix`` is a pure
    BankerStrategy or a mapping from optional cells to exact draw
    probabilities.  Standard errors use the plug-in variance of the
    per-coup payoffs.
    """
    a = variant.check_alpha(alpha)
    _check_hands(n_hands)
    p_draw = _row_mix_weight(row_mix)
    table = _draw_probabilities(banker_strategy_or_mix, variant)
    # A natural reaches no cell, so its extra threshold never draws.
    thresholds = [_exact_threshold(table[info]) for info in ALL_INFO_SETS]
    thresholds.append(0.0)
    row_threshold = _exact_threshold(p_draw)
    cells, stand_signs, draw_signs = _outcome_table()

    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    card = _CARD_VALUE
    counts = [0, 0, 0]  # losses, ties, wins: Player's payoff + 1
    for _ in range(n_hands):
        key = 10000 if rand() * _TWO53 < row_threshold else 0
        u_banker = rand() * _TWO53
        # Each card is randrange(13) spelled out as its underlying 4-bit
        # rejection loop; the bit stream consumed is identical, but this
        # form does not depend on randrange internals staying stable.
        # The six cards are dealt Player, Player, Banker, Banker, then
        # the two third cards; written out, not looped, as this is the
        # hot path.
        x = getrandbits(4)
        while x >= 13:
            x = getrandbits(4)
        y = getrandbits(4)
        while y >= 13:
            y = getrandbits(4)
        key += (card[x] + card[y]) % 10 * 1000
        x = getrandbits(4)
        while x >= 13:
            x = getrandbits(4)
        y = getrandbits(4)
        while y >= 13:
            y = getrandbits(4)
        key += (card[x] + card[y]) % 10 * 100
        x = getrandbits(4)
        while x >= 13:
            x = getrandbits(4)
        y = getrandbits(4)
        while y >= 13:
            y = getrandbits(4)
        key += card[x] * 10 + card[y]
        if u_banker < thresholds[cells[key]]:
            counts[draw_signs[key]] += 1
        else:
            counts[stand_signs[key]] += 1
    losses, ties, wins = counts

    n = n_hands
    mean_p = Fraction(wins - losses, n)
    mean_b = ((1 - a) * losses - wins) / Fraction(n)
    var_p = Fraction(wins + losses, n) - mean_p * mean_p
    var_b = ((1 - a) ** 2 * losses + wins) / Fraction(n) - mean_b * mean_b
    return SimResult(
        variant=variant.name,
        alpha=a,
        n_hands=n,
        seed=seed,
        rng=_RNG_IDENTITY,
        player_draw_probability=p_draw,
        wins=wins,
        losses=losses,
        ties=ties,
        mean_player=float(mean_p),
        mean_banker=float(mean_b),
        std_error=sqrt(var_p / n),
        std_error_banker=sqrt(var_b / n),
    )


def equilibrium_profile(
    variant: Variant | VariantSolution, alpha=0
) -> tuple[MixedStrategy, Mapping[InfoSet, Fraction]]:
    """The solved equilibrium in the form :func:`simulate` consumes.

    ``variant`` is a Variant, solved here at ``alpha``, or a
    :class:`~baccarat.parametric.VariantSolution` already at hand, whose
    own rate then applies.  Returns Player's row mix (stand-on-5 weight
    first) and Banker's per-cell draw probabilities at the variant's
    optional cells.
    """
    if isinstance(variant, VariantSolution):
        sol = variant
    else:
        sol = solve_variant(variant, alpha)
    p = sol.player_draw_probability
    row = MixedStrategy((1 - p, p))
    mix = {
        cell: sol.banker_draw_probability(cell)
        for cell in sol.variant.optional_cells
    }
    return row, mix

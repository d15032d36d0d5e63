"""Monte Carlo validation of the solved games.

Simulation exists here to check the exact results, not to replace them:
hands are sampled from the card-value law and resolved through
:func:`baccarat.rules.play_coup` -- the same resolver the brute-force
oracle uses -- so a simulated mean drifting from a solved value by more
than a few standard errors indicts the engine, not the dice.

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

* For parallel runs, derive each batch's seed with
  :func:`derive_batch_seed`; never share one stream across batches.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, sqrt
from typing import Mapping

from .parametric import VariantSolution, solve_variant
from .rules import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    InfoSet,
    PlayerRow,
    Variant,
    _coerce_rational,
    play_coup,
    tableau_action,
)
from .solver import MixedStrategy

__all__ = [
    "SimResult",
    "simulate",
    "equilibrium_profile",
    "derive_batch_seed",
]

_RNG_IDENTITY = "python-random-mt19937"
#: Largest run accepted: 10^7 hands take over a minute.
_MAX_HANDS = 10**7


@dataclass(frozen=True)
class SimResult:
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


def derive_batch_seed(seed: int, batch_index: int) -> int:
    """A reproducible, independent seed for one parallel batch."""
    digest = hashlib.sha256(f"{seed}:{batch_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _draw_probabilities(
    banker, variant: Variant
) -> dict[InfoSet, Fraction]:
    """Normalize a strategy-or-mix argument to per-cell draw chances.

    Cells the caller leaves unspecified default to the tableau (and the
    variant's mandates); cells the caller does specify may deviate from
    the tableau -- that is what deviation experiments are for -- but
    never from a mandate the variant writes into law.
    """
    table: dict[InfoSet, Fraction] = {}
    for info in ALL_INFO_SETS:
        action = variant.fixed_actions.get(info, tableau_action(info))
        if action is not None:
            table[info] = Fraction(int(action is Action.DRAW))
    if isinstance(banker, BankerStrategy):
        specified = banker.items()
    else:
        specified = []
        for info, p in dict(banker).items():
            if not isinstance(info, InfoSet):
                info = InfoSet(*info)
            specified.append((info, p))
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


class _BehavioralBanker:
    """Dict-like strategy view resolving mixed cells with one uniform."""

    __slots__ = ("thresholds", "u_scaled")

    def __init__(self, table):
        self.thresholds = {
            info: _exact_threshold(p) for info, p in table.items()
        }
        self.u_scaled = 0.0

    def __getitem__(self, info):
        if self.u_scaled < self.thresholds[info]:
            return Action.DRAW
        return Action.STAND


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
    weights = getattr(row_mix, "weights", row_mix)
    ws = tuple(_coerce_rational(w, "row weight") for w in weights)
    if len(ws) != 2 or any(w < 0 for w in ws) or sum(ws) != 1:
        raise ValueError(
            "row_mix must be a PlayerRow or two nonnegative weights "
            "summing to 1 (stand-on-5 first)"
        )
    return ws[1]


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
    banker = _BehavioralBanker(table)

    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    row_threshold = _exact_threshold(p_draw)
    draw_on_5 = PlayerRow.DRAW_ON_5
    stand_on_5 = PlayerRow.STAND_ON_5
    wins = losses = ties = 0
    for _ in range(n_hands):
        u_row = rand()
        banker.u_scaled = rand() * _TWO53
        # Card draw = randrange(13) spelled out as its underlying 4-bit
        # rejection loop; the bit stream consumed is identical, but this
        # form does not depend on randrange internals staying stable.
        cards = []
        for _ in range(6):
            x = getrandbits(4)
            while x >= 13:
                x = getrandbits(4)
            cards.append(0 if x < 4 else x - 3)
        row = draw_on_5 if u_row * _TWO53 < row_threshold else stand_on_5
        # alpha never changes the sign read here; the means below apply it.
        out = play_coup(
            cards[0:2], cards[2:4], cards[4:6], row, banker, 0
        )
        if out.player_payoff > 0:
            wins += 1
        elif out.player_payoff < 0:
            losses += 1
        else:
            ties += 1

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

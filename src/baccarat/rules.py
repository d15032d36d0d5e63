"""Rules of baccarat chemin de fer: hand totals, the drawing tableau,
game variants, Banker strategies, and exact coup resolution.

Card values are integers 0 through 9.  Tens and face cards count 0, aces
count 1, and under sampling with replacement value 0 is four times as
likely as any other value.  A hand total is the sum of card values mod 10.
A two-card total of 8 or 9 is a *natural* and ends the coup at once, with
no third cards and no strategic decisions.

When neither side holds a natural, Player acts first and face up: the
rules force a draw on totals 0-4 and a stand on 6-7, leaving a free
choice only on 5.  A Player *row* fixes that choice (`STAND_ON_5` or
`DRAW_ON_5`).  Banker then observes his own two-card total b in 0..7 and
Player's third card c in 0..9, or the fact that Player stood (written
``None`` here), and chooses whether to draw.  The pair (b, c) is
Banker's information set; there are 8 * 11 = 88 of them.

The classical drawing tableau resolves 84 of those 88 cells; the other
four, marked with ``*`` below, are genuinely strategic and are the seat
of all the game theory in this package:

    (3, 9)   (4, 1)   (5, 4)   (6, None)

Payoffs per unit stake: Player receives +1 / -1 / 0 for a win / loss /
tie.  Banker receives 1 - alpha on a win, -1 on a loss, and 0 on a tie,
where alpha is the commission rate charged on Banker wins; the house
collects alpha exactly when Player loses.  The three payoffs sum to zero
in every coup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "CARD_VALUES",
    "Action",
    "PlayerRow",
    "InfoSet",
    "ALL_INFO_SETS",
    "STARRED_CELLS",
    "tableau_action",
    "hand_total",
    "is_natural",
    "mandated_player_action",
    "Variant",
    "PARLOR",
    "CLASSIC",
    "MODERN",
    "BankerStrategy",
    "CoupOutcome",
    "play_coup",
]

CARD_VALUES = range(10)


class Action(enum.Enum):
    """A drawing decision: take a third card or not."""

    STAND = "S"
    DRAW = "D"

    def __str__(self) -> str:
        return self.value


class PlayerRow(enum.Enum):
    """Player's only free choice: what to do on a two-card total of 5."""

    STAND_ON_5 = "StandOn5"
    DRAW_ON_5 = "DrawOn5"

    def __str__(self) -> str:
        return self.value


class InfoSet(NamedTuple):
    """Banker's information when deciding: own total, Player's third card.

    ``player_third`` is ``None`` when Player stood pat.
    """

    banker_total: int
    player_third: int | None

    def __str__(self) -> str:
        c = "-" if self.player_third is None else str(self.player_third)
        return f"({self.banker_total},{c})"


def _check_card(value: int) -> int:
    """Return a card value, rejecting anything but an int in 0..9."""
    # Plain in-range ints take the fast path; anything else (including
    # bools and int subclasses) goes through the full check.
    if type(value) is not int or not 0 <= value <= 9:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"card value must be an integer 0-9, got {value!r}")
        if not 0 <= value <= 9:
            raise ValueError(f"card value must be in 0..9, got {value}")
    return value


def hand_total(cards: Sequence[int]) -> int:
    """Total of a two- or three-card hand, modulo 10."""
    if len(cards) not in (2, 3):
        raise ValueError(f"a hand holds 2 or 3 cards, got {len(cards)}")
    total = 0
    for c in cards:
        total += _check_card(c)
    return total % 10


def is_natural(cards: Sequence[int]) -> bool:
    """True when a two-card hand totals 8 or 9."""
    return len(cards) == 2 and hand_total(cards) >= 8


# The classical tableau.  Row b = Banker's two-card total 0..7; columns are
# Player's third card 0..9 followed by the stood-pat column.  ``*`` marks
# the four cells the tableau deliberately leaves open.
_TABLEAU_ROWS = (
    "DDDDDDDDDDD",  # 0
    "DDDDDDDDDDD",  # 1
    "DDDDDDDDDDD",  # 2
    "DDDDDDDDS*D",  # 3
    "S*DDDDDDSSD",  # 4
    "SSSS*DDDSSD",  # 5
    "SSSSSSDDSS*",  # 6
    "SSSSSSSSSSS",  # 7
)

ALL_INFO_SETS: tuple[InfoSet, ...] = tuple(
    InfoSet(b, c) for b in range(8) for c in (*range(10), None)
)

STARRED_CELLS: tuple[InfoSet, ...] = tuple(
    InfoSet(b, c)
    for b in range(8)
    for ci, c in enumerate((*range(10), None))
    if _TABLEAU_ROWS[b][ci] == "*"
)


def tableau_action(info: InfoSet) -> Action | None:
    """The tableau's verdict for one information set.

    Returns ``Action.STAND`` or ``Action.DRAW`` for the 84 determined
    cells and ``None`` for the four starred ones.
    """
    b, c = info
    if not 0 <= b <= 7:
        raise ValueError(f"banker two-card total must be in 0..7, got {b}")
    if c is not None:
        _check_card(c)
    mark = _TABLEAU_ROWS[b][10 if c is None else c]
    return None if mark == "*" else Action(mark)


def mandated_player_action(total: int, row: PlayerRow) -> Action:
    """Player's forced move on a non-natural two-card total under a row.

    Totals 0-4 draw, 6-7 stand, and 5 follows the row.  Totals 8-9 are
    naturals and never reach a decision, so they are rejected.
    """
    if not isinstance(row, PlayerRow):
        raise ValueError(f"row must be a PlayerRow, got {row!r}")
    if not 0 <= total <= 7:
        raise ValueError(
            f"player decides only on totals 0..7 (8-9 are naturals), got {total}"
        )
    if total <= 4:
        return Action.DRAW
    if total >= 6:
        return Action.STAND
    return Action.DRAW if row is PlayerRow.DRAW_ON_5 else Action.STAND


def _coerce_rational(x, name: str) -> Fraction:
    if isinstance(x, float):
        raise TypeError(
            f"{name} must be exact (int, Fraction, or string); floats are "
            f"rejected to keep the arithmetic exact -- got {x!r}"
        )
    return Fraction(x)


def _commission_rate(alpha) -> Fraction:
    """An exact commission rate in ``[0, 1)``; floats are rejected."""
    a = _coerce_rational(alpha, "alpha")
    if not 0 <= a < 1:
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {a}")
    return a


@dataclass(frozen=True)
class Variant:
    """A rule set: which starred cells Banker may choose, and which are
    fixed by law, plus the commission-rate interval the analysis covers.

    ``optional_cells`` lists the starred cells left to Banker's judgment,
    in canonical order; ``fixed_actions`` pins the remaining starred
    cells, held as a read-only copy of the mapping given.
    ``alpha_bound`` is the exclusive upper end of the commission rates
    for which the variant's analysis is valid (the tableau's determined
    cells, and the modern mandates, are only justified below it).
    """

    name: str
    optional_cells: tuple[InfoSet, ...]
    # A mapping proxy is unhashable; the other fields hash consistently
    # with equality, which still compares the mappings by content.
    fixed_actions: Mapping[InfoSet, Action] = field(hash=False)
    alpha_bound: Fraction

    def __post_init__(self):
        object.__setattr__(
            self, "fixed_actions", MappingProxyType(dict(self.fixed_actions))
        )
        seen = set(self.optional_cells) | set(self.fixed_actions)
        if seen != set(STARRED_CELLS) or len(self.optional_cells) + len(
            self.fixed_actions
        ) != len(STARRED_CELLS):
            raise ValueError(
                "optional_cells and fixed_actions must partition the four "
                "starred cells"
            )

    def check_alpha(self, alpha) -> Fraction:
        """Validate and return an exact commission rate for this variant.

        The parlor game is the commission-free game, so it accepts only
        alpha = 0; the same game with a commission is the classic one.
        """
        a = _coerce_rational(alpha, "alpha")
        if self == PARLOR and a != 0:
            raise ValueError(
                f"parlor is the commission-free game: alpha must be 0, got {a}"
                " (use classic for a commission)"
            )
        if not 0 <= a < self.alpha_bound:
            raise ValueError(
                f"{self.name} analysis requires 0 <= alpha < "
                f"{self.alpha_bound}, got {a}"
            )
        return a


#: No commission (alpha = 0 only); both sides choose freely at every
#: starred cell.  ``alpha_bound`` only bounds the rate, as classic's does.
PARLOR = Variant(
    name="parlor",
    optional_cells=STARRED_CELLS,
    fixed_actions={},
    alpha_bound=Fraction(1, 15),
)

#: Commission 0 <= alpha < 1/15 on Banker wins; same freedom as parlor.
CLASSIC = Variant(
    name="classic",
    optional_cells=STARRED_CELLS,
    fixed_actions={},
    alpha_bound=Fraction(1, 15),
)

#: Modern rules: Banker must stand at (4,1) and (6,None); only (3,9) and
#: (5,4) remain optional.  Valid for 0 <= alpha < 2/5.
MODERN = Variant(
    name="modern",
    optional_cells=(InfoSet(3, 9), InfoSet(5, 4)),
    fixed_actions={InfoSet(4, 1): Action.STAND, InfoSet(6, None): Action.STAND},
    alpha_bound=Fraction(2, 5),
)


def custom_variant(
    name: str,
    optional_cells: Sequence[InfoSet],
    fixed_actions: Mapping[InfoSet, Action],
    alpha_bound=1,
) -> Variant:
    """Build a variant with an arbitrary split of the starred cells.

    ``alpha_bound`` defaults to 1, i.e. any commission below 100% is
    accepted; pass a tighter bound when one is known.
    """
    return Variant(
        name=name,
        optional_cells=tuple(optional_cells),
        fixed_actions=fixed_actions,
        alpha_bound=_coerce_rational(alpha_bound, "alpha_bound"),
    )


_CELL_INDEX = {cell: i for i, cell in enumerate(ALL_INFO_SETS)}


@dataclass(frozen=True)
class BankerStrategy:
    """A pure Banker strategy: one action for each of the 88 info sets.

    Instances are immutable and hashable, so strategy-keyed caches work.
    Use :meth:`from_assignment` to fill the determined cells from the
    tableau and specify only the starred ones.
    """

    actions: tuple[Action, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.actions) != len(ALL_INFO_SETS):
            raise ValueError(
                f"a Banker strategy assigns all {len(ALL_INFO_SETS)} info "
                f"sets, got {len(self.actions)}"
            )
        for a in self.actions:
            if not isinstance(a, Action):
                raise ValueError(f"not an Action: {a!r}")

    def __getitem__(self, info: InfoSet) -> Action:
        return self.actions[_CELL_INDEX[info]]

    def items(self) -> Iterator[tuple[InfoSet, Action]]:
        return zip(ALL_INFO_SETS, self.actions)

    @classmethod
    def from_assignment(
        cls,
        starred: Mapping[InfoSet, Action],
        variant: Variant | None = None,
        label: str = "",
    ) -> "BankerStrategy":
        """Tableau actions everywhere, caller-chosen actions at the stars.

        ``starred`` must cover exactly the four starred cells.  When a
        ``variant`` is given, its fixed actions are enforced: supplying a
        conflicting action for a mandated cell is an error, and omitted
        mandated cells are filled in automatically.
        """
        chosen = dict(starred)
        if variant is not None:
            for cell, action in variant.fixed_actions.items():
                if chosen.setdefault(cell, action) is not action:
                    raise ValueError(
                        f"{variant.name} rules mandate {action} at {cell}, "
                        f"got {chosen[cell]}"
                    )
        if set(chosen) != set(STARRED_CELLS):
            missing = set(STARRED_CELLS) - set(chosen)
            extra = set(chosen) - set(STARRED_CELLS)
            raise ValueError(
                f"assignment must cover the starred cells exactly; "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )
        acts = tuple(
            chosen[cell] if cell in chosen else tableau_action(cell)
            for cell in ALL_INFO_SETS
        )
        if not label:
            label = "".join(str(chosen[c]) for c in STARRED_CELLS)
        return cls(acts, label)


class CoupOutcome(NamedTuple):
    """Complete record of one resolved coup.

    ``player_payoff`` is an integer in {-1, 0, +1}; ``banker_payoff`` and
    ``casino_take`` are exact rationals.  The three always sum to zero.
    """

    player_total: int
    banker_total: int
    player_third: int | None
    banker_third: int | None
    natural: bool
    player_payoff: int
    banker_payoff: Fraction
    casino_take: Fraction


_ZERO = Fraction(0)
_MINUS_ONE = Fraction(-1)


@lru_cache(maxsize=128)
def _commission_payoffs(alpha) -> tuple[Fraction, Fraction]:
    """Validated ``(alpha, 1 - alpha)`` pair, cached per commission rate."""
    a = _commission_rate(alpha)
    return a, 1 - a


def play_coup(
    player_cards: Sequence[int],
    banker_cards: Sequence[int],
    draw_cards: Sequence[int],
    row: PlayerRow,
    banker_strategy: BankerStrategy,
    alpha=0,
) -> CoupOutcome:
    """Resolve one coup exactly, given all cards that could be needed.

    ``draw_cards`` supplies the third cards in the order they would be
    dealt -- Player's first, then Banker's -- and is consumed only as far
    as the rules require.  On a natural neither strategy argument is
    consulted.  ``alpha`` is the commission rate (exact; floats rejected).
    """
    a, banker_win = _commission_payoffs(alpha)
    if len(player_cards) != 2 or len(banker_cards) != 2:
        raise ValueError("player_cards and banker_cards must each hold 2 cards")
    p1, p2 = player_cards
    b1, b2 = banker_cards
    pt = (_check_card(p1) + _check_card(p2)) % 10
    bt = (_check_card(b1) + _check_card(b2)) % 10
    p3: int | None = None
    b3: int | None = None

    natural = pt >= 8 or bt >= 8
    if not natural:
        used = 0
        if mandated_player_action(pt, row) is Action.DRAW:
            if len(draw_cards) < 1:
                raise ValueError("player draws but draw_cards is exhausted")
            p3 = _check_card(draw_cards[0])
            pt = (pt + p3) % 10
            used = 1
        if banker_strategy[InfoSet(bt, p3)] is Action.DRAW:
            if len(draw_cards) < used + 1:
                raise ValueError("banker draws but draw_cards is exhausted")
            b3 = _check_card(draw_cards[used])
            bt = (bt + b3) % 10

    if pt > bt:
        player, banker, casino = 1, _MINUS_ONE, _ZERO
    elif pt < bt:
        player, banker, casino = -1, banker_win, a
    else:
        player, banker, casino = 0, _ZERO, _ZERO
    return CoupOutcome(pt, bt, p3, b3, natural, player, banker, casino)

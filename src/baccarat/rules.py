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

A resolved coup reports Player's payoff per unit stake: +1 / -1 / 0 for
a win / loss / tie.  Banker's payoff is the negative of Player's, less
the commission alpha that the house takes on Banker wins; the coup
carries no rate, and :mod:`baccarat.payoff` applies it to the exact
outcome probabilities.
"""

from __future__ import annotations

import enum
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

__all__ = [
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

class Action(enum.Enum):
    """A drawing decision: take a third card or not."""

    STAND = "S"
    DRAW = "D"

    def __str__(self) -> str:
        return self.value


# Module aliases: reading a member off its Enum class costs several times
# a global lookup, and play_coup runs once per leaf of the oracle's table.
_STAND, _DRAW = Action.STAND, Action.DRAW


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

_CELL_INDEX = {cell: i for i, cell in enumerate(ALL_INFO_SETS)}

_MARKS = {"S": _STAND, "D": _DRAW, "*": None}

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
    return _MARKS[_TABLEAU_ROWS[b][10 if c is None else c]]


@lru_cache(maxsize=1)
def _tableau_actions() -> tuple[Action | None, ...]:
    """:func:`tableau_action` at every cell, in ``ALL_INFO_SETS`` order."""
    return tuple(map(tableau_action, ALL_INFO_SETS))


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
        return _DRAW
    if total >= 6:
        return _STAND
    return _DRAW if row is PlayerRow.DRAW_ON_5 else _STAND


#: Most digits plus exponent size a decimal string or ``Decimal`` may
#: have: past that it is refused before its power of ten is built.
_MAX_DECIMAL = 10_000


def _coerce_rational(x, name: str) -> Fraction:
    """The one conversion of an outside number to an exact ``Fraction``:
    a ``Fraction`` passes as it is, a float or a bool raises
    ``TypeError``, and an infinity, a NaN or an overlong decimal
    ``ValueError``."""
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError(
            f"{name} must be a number (int, Fraction, Decimal or string), "
            f"not a bool -- got {x!r}"
        )
    if isinstance(x, float):
        raise TypeError(
            f"{name} must be exact (int, Fraction, Decimal or string); floats "
            f"are rejected to keep the arithmetic exact -- got {x!r}"
        )
    if isinstance(x, Decimal) or (isinstance(x, str) and "/" not in x):
        try:
            d = Decimal(x)
        except ArithmeticError:  # malformed, or an exponent past Decimal's
            too_long = "e" in x.lower()
        else:
            if not d.is_finite():
                raise ValueError(f"{name} must be finite, got {str(x)[:40]!r}")
            _, digits, exponent = d.as_tuple()
            too_long = len(digits) + abs(exponent) > _MAX_DECIMAL
        if too_long:
            raise ValueError(
                f"{name} must be a number written with at most "
                f"{_MAX_DECIMAL} digits and exponent together, got {str(x)[:40]!r}"
            )
    return Fraction(x)


def _info_set(key) -> InfoSet:
    """The canonical cell equal to ``key``; anything else is refused."""
    try:
        return ALL_INFO_SETS[_CELL_INDEX[key]]
    except (KeyError, TypeError):
        raise ValueError(f"not a Banker information set: {key!r}") from None


def _player_row(row) -> PlayerRow:
    """``row`` itself when it is a ``PlayerRow``; anything else is refused."""
    if not isinstance(row, PlayerRow):
        raise ValueError(f"row must be a PlayerRow, got {row!r}")
    return row


def _commission_rate(alpha) -> Fraction:
    """An exact commission rate in ``[0, 1)``; floats are rejected."""
    a = _coerce_rational(alpha, "alpha")
    if not 0 <= a < 1:
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {a}")
    return a


class _Frozen:
    """Base of the checked value types: ``__init__`` checks its input and
    sets the slots once through ``_init``; after that no attribute can be
    assigned or deleted.  Instances equal, hash and print by ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be changed")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        # copy and pickle rebuild an instance through its own checks, from
        # ``_fields``; a class whose ``__init__`` takes others says which.
        return type(self), self._key()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class Variant(_Frozen):
    """A rule set: which starred cells Banker may choose, and which are
    fixed by law, plus the commission rates the variant accepts.

    ``optional_cells`` lists the starred cells left to Banker's judgment,
    held as a tuple in the order given; ``fixed_actions`` pins the
    remaining starred cells, held as a read-only copy of the mapping
    given; every cell in either is held as its canonical :class:`InfoSet`.
    ``alpha_bound`` is an exact rate in ``[0, 1]``: the variant accepts
    alpha = 0 and every rate in ``(0, alpha_bound)``, so a bound of 0
    makes the game commission-free.  A positive bound is the
    exclusive end of the rates the variant's analysis covers (where the
    tableau's determined cells, and any mandates, are justified); the
    default of 1 accepts any commission below 100%.
    """

    __slots__ = _fields = ("name", "optional_cells", "fixed_actions", "alpha_bound")

    def __init__(
        self, name: str, optional_cells, fixed_actions, alpha_bound=Fraction(1)
    ):
        cells = tuple(map(_info_set, optional_cells))
        fixed = {_info_set(cell): a for cell, a in dict(fixed_actions).items()}
        bound = _coerce_rational(alpha_bound, "alpha_bound")
        if not 0 <= bound <= 1:
            raise ValueError(f"alpha_bound must be in [0, 1], got {bound}")
        seen = set(cells) | set(fixed)
        if seen != set(STARRED_CELLS) or len(cells) + len(fixed) != len(STARRED_CELLS):
            raise ValueError(
                "optional_cells and fixed_actions must partition the four "
                "starred cells"
            )
        self._init(name=name, optional_cells=cells,
                   fixed_actions=MappingProxyType(fixed), alpha_bound=bound)

    def __hash__(self):
        # A mapping proxy is unhashable; the other fields hash consistently
        # with equality, which still compares the mappings by content.
        return hash((self.name, self.optional_cells, self.alpha_bound))

    def __reduce__(self):
        return type(self), (self.name, self.optional_cells,
                            dict(self.fixed_actions), self.alpha_bound)

    def check_alpha(self, alpha) -> Fraction:
        """Validate and return an exact commission rate for this variant:
        0, or a rate in ``(0, alpha_bound)``."""
        a = _coerce_rational(alpha, "alpha")
        if a == 0 or 0 < a < self.alpha_bound:
            return a
        if self.alpha_bound == 0:
            raise ValueError(
                f"{self.name} is a commission-free game: alpha must be 0, got {a}"
            )
        raise ValueError(
            f"{self.name} analysis requires 0 <= alpha < "
            f"{self.alpha_bound}, got {a}"
        )

    def fixed_cell_actions(self) -> tuple[tuple[InfoSet, Action], ...]:
        """The action at every cell Banker may not choose, in canonical
        order: the variant's mandate at a fixed starred cell, and the
        tableau's action elsewhere."""
        return tuple(
            (info, self.fixed_actions.get(info, action))
            for info, action in zip(ALL_INFO_SETS, _tableau_actions())
            if info not in self.optional_cells
        )


#: No commission (alpha_bound = 0, so alpha = 0 only); Banker chooses
#: freely at every starred cell.
PARLOR = Variant(
    name="parlor",
    optional_cells=STARRED_CELLS,
    fixed_actions={},
    alpha_bound=0,
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


class BankerStrategy(_Frozen):
    """A pure Banker strategy: one action for each of the 88 info sets.

    ``actions`` is held as a tuple of the sequence given, so instances
    are immutable and hashable, and strategy-keyed caches work; ``label``
    is advisory and takes no part in equality.  Use
    :meth:`from_assignment` to fill the determined cells from the
    tableau and specify only the starred ones.
    """

    __slots__ = ("actions", "label")
    _fields = ("actions",)

    def __init__(self, actions: Sequence[Action], label: str = ""):
        actions = tuple(actions)
        if len(actions) != len(ALL_INFO_SETS):
            raise ValueError(
                f"a Banker strategy assigns all {len(ALL_INFO_SETS)} info "
                f"sets, got {len(actions)}"
            )
        for a in actions:
            if not isinstance(a, Action):
                raise ValueError(f"not an Action: {a!r}")
        self._init(actions=actions, label=label)

    def __reduce__(self):
        return type(self), (self.actions, self.label)

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
        acts = list(_tableau_actions())
        for cell, action in chosen.items():
            acts[_CELL_INDEX[cell]] = action
        if not label:
            label = "".join(str(chosen[c]) for c in STARRED_CELLS)
        return cls(acts, label)


class CoupOutcome(NamedTuple):
    """Complete record of one resolved coup.

    ``player_payoff`` is Player's result per unit stake: +1, -1 or 0 as
    Player's final total beats, trails or ties Banker's.  Banker's payoff
    and the house's commission are not part of a coup; they depend on the
    rate alpha, which :mod:`baccarat.payoff` applies.
    """

    player_total: int
    banker_total: int
    player_third: int | None
    banker_third: int | None
    natural: bool
    player_payoff: int


def play_coup(
    player_cards: Sequence[int],
    banker_cards: Sequence[int],
    draw_cards: Sequence[int],
    row: PlayerRow,
    banker_strategy: BankerStrategy,
) -> CoupOutcome:
    """Resolve one coup exactly, given all cards that could be needed.

    ``draw_cards`` supplies the third cards in the order they would be
    dealt -- Player's first, then Banker's -- and is consumed only as far
    as the rules require.  On a natural neither strategy argument is
    consulted.
    """
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
        if mandated_player_action(pt, row) is _DRAW:
            if len(draw_cards) < 1:
                raise ValueError("player draws but draw_cards is exhausted")
            p3 = _check_card(draw_cards[0])
            pt = (pt + p3) % 10
            used = 1
        # ALL_INFO_SETS lists 11 cells per Banker total, the stood column last.
        info = ALL_INFO_SETS[bt * 11 + (10 if p3 is None else p3)]
        if banker_strategy[info] is _DRAW:
            if len(draw_cards) < used + 1:
                raise ValueError("banker draws but draw_cards is exhausted")
            b3 = _check_card(draw_cards[used])
            bt = (bt + b3) % 10

    return CoupOutcome(pt, bt, p3, b3, natural, (pt > bt) - (pt < bt))

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
import numbers
import re
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
# a global lookup, and _resolve_coup runs thousands of times per table build.
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
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"card value must be an integer 0-9, got {value!r}")
    if not 0 <= value <= 9:
        raise ValueError(f"card value must be in 0..9, got {value}")
    return value


def hand_total(cards: Sequence[int]) -> int:
    """Total of a two- or three-card hand, modulo 10."""
    cards = _items(cards, "cards")
    if len(cards) not in (2, 3):
        raise ValueError(f"a hand holds 2 or 3 cards, got {len(cards)}")
    return sum(map(_check_card, cards)) % 10


def is_natural(cards: Sequence[int]) -> bool:
    """True when a two-card hand totals 8 or 9."""
    cards = _items(cards, "cards")
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

#: :func:`tableau_action` at every cell, in ``ALL_INFO_SETS`` order.
_TABLEAU_ACTIONS = tuple(_MARKS[mark] for row in _TABLEAU_ROWS for mark in row)

STARRED_CELLS: tuple[InfoSet, ...] = tuple(
    info for info, action in zip(ALL_INFO_SETS, _TABLEAU_ACTIONS) if action is None
)


def tableau_action(info: InfoSet) -> Action | None:
    """The tableau's verdict for one information set.

    Returns ``Action.STAND`` or ``Action.DRAW`` for the 84 determined
    cells and ``None`` for the four starred ones.  ``info`` is any pair
    (Banker's two-card total, Player's third card or ``None``).
    """
    info = _items(info, "info")
    if len(info) != 2:
        raise ValueError(f"info must be a pair, got {len(info)} items")
    b, c = info
    if type(b) is not int:
        raise ValueError(
            f"banker two-card total must be an integer 0..7, got {b!r}"
        )
    if not 0 <= b <= 7:
        raise ValueError(f"banker two-card total must be in 0..7, got {b}")
    if c is not None:
        _check_card(c)
    return _TABLEAU_ACTIONS[b * 11 + (10 if c is None else c)]


#: Player's move on each two-card total 0..7 under each row: 0-4 draw,
#: 6-7 stand, and 5 follows the row.  8 and 9 are naturals.
_PLAYER_MOVES = {
    PlayerRow.STAND_ON_5: (_DRAW,) * 5 + (_STAND,) * 3,
    PlayerRow.DRAW_ON_5: (_DRAW,) * 6 + (_STAND,) * 2,
}


def mandated_player_action(total: int, row: PlayerRow) -> Action:
    """Player's forced move on a non-natural two-card total under a row.

    Totals 0-4 draw, 6-7 stand, and 5 follows the row.  Totals 8-9 are
    naturals and never reach a decision, so they are rejected.
    """
    if type(total) is not int:
        raise ValueError(
            f"player two-card total must be an integer 0..7, got {total!r}"
        )
    if not 0 <= total <= 7:
        raise ValueError(
            f"player decides only on totals 0..7 (8-9 are naturals), got {total}"
        )
    return _PLAYER_MOVES[_of_type(row, PlayerRow, "row")][total]


#: Most digits plus exponent size a decimal string or ``Decimal`` may
#: have: past that it is refused before its power of ten is built.
_MAX_DECIMAL = 10_000
_DIGITS = r"\d+(?:_\d+)*"
#: A number written as a string: an optional sign, then a fraction of two
#: integers or a decimal with an optional exponent.  Single underscores
#: may group digits, and blanks may surround it.
_NUMERAL = re.compile(
    rf"\s*[+-]?(?:{_DIGITS}/{_DIGITS}|(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})"
    rf"(?:[eE][+-]?{_DIGITS})?)\s*"
)
#: Words ``Decimal`` reads, in any case and with a sign, that are no numerals.
_NOT_FINITE = ("inf", "infinity", "nan", "snan")


def _coerce_rational(x, name: str) -> Fraction:
    """The one conversion of an outside number to an exact ``Fraction``:
    a ``Fraction`` passes as it is, a float, a bool or anything else that
    is no rational, ``Decimal`` or string raises ``TypeError``, and a
    string that is no ``_NUMERAL``, an infinity, a NaN or a decimal too
    long to write out ``ValueError``."""
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
    if isinstance(x, str) and not _NUMERAL.fullmatch(x):
        kind = "finite" if x.strip().lstrip("+-").lower() in _NOT_FINITE else "a number"
        raise ValueError(f"{name} must be {kind}, got {x[:40]!r}")
    if isinstance(x, str) and "/" in x:
        # Each term is an integer numeral, bounded as a decimal is.
        num, _, den = x.partition("/")
        return _coerce_rational(num, name) / _coerce_rational(den, name)
    if isinstance(x, (str, Decimal)):
        try:
            d = Decimal(x)
        except ArithmeticError:  # an exponent past Decimal's
            too_long = True
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
        return Fraction(d)
    if not isinstance(x, numbers.Rational):
        raise TypeError(f"{name} must be a number (int, Fraction, Decimal or string), "
                        f"not {type(x).__name__}")
    return Fraction(x)


def _info_set(key) -> InfoSet:
    """The canonical cell equal to ``key``; anything else is refused."""
    try:
        return ALL_INFO_SETS[_CELL_INDEX[key]]
    except (KeyError, TypeError):
        raise ValueError(f"not a Banker information set: {key!r}") from None


def _of_type(value, kind: type, name: str):
    """``value`` itself when it is a ``kind``: the gate of a record, an
    enum member or a mapping.  Anything else raises a ``TypeError`` that
    names the parameter ``name``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, not {type(value).__name__}")
    return value


def _items(value, name: str) -> tuple:
    """The items of ``value`` as a tuple: the gate of a collection.  A
    string or ``bytes``, whose characters are no items, a mapping, whose
    keys are not what it maps, and anything not iterable raise a
    ``TypeError`` that names the parameter ``name``."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise TypeError(f"{name} must be a sequence, not {type(value).__name__}")
    return tuple(value)


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
        _of_type(name, str, "name")
        cells = tuple(map(_info_set, _items(optional_cells, "optional_cells")))
        fixed = {
            _info_set(cell): _of_type(a, Action, f"fixed_actions[{cell}]")
            for cell, a in _of_type(fixed_actions, Mapping, "fixed_actions").items()
        }
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
            for info, action in zip(ALL_INFO_SETS, _TABLEAU_ACTIONS)
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

    ``actions``, its one field, is held as a tuple of the sequence
    given, so instances are immutable and hashable, and strategy-keyed
    caches work.  A strategy carries no name: a reduced game labels its
    columns.  Use :meth:`from_assignment` to fill the determined cells
    from the tableau and specify only the starred ones.
    """

    __slots__ = _fields = ("actions",)

    def __init__(self, actions: Sequence[Action]):
        actions = _items(actions, "actions")
        if len(actions) != len(ALL_INFO_SETS):
            raise ValueError(
                f"a Banker strategy assigns all {len(ALL_INFO_SETS)} info "
                f"sets, got {len(actions)}"
            )
        if set(map(type, actions)) != {Action}:  # one pass; then name the culprit
            for i, a in enumerate(actions):
                _of_type(a, Action, f"actions[{i}]")
        self._init(actions=actions)

    def __getitem__(self, info: InfoSet) -> Action:
        return self.actions[_CELL_INDEX[_info_set(info)]]

    def items(self) -> Iterator[tuple[InfoSet, Action]]:
        return zip(ALL_INFO_SETS, self.actions)

    @classmethod
    def from_assignment(
        cls,
        starred: Mapping[InfoSet, Action],
        variant: Variant | None = None,
    ) -> "BankerStrategy":
        """Tableau actions everywhere, caller-chosen actions at the stars.

        ``starred`` must cover exactly the four starred cells.  When a
        ``variant`` is given, its fixed actions are enforced: supplying a
        conflicting action for a mandated cell is an error, and omitted
        mandated cells are filled in automatically.
        """
        chosen = dict(_of_type(starred, Mapping, "starred"))
        if variant is not None:
            for cell, action in _of_type(variant, Variant, "variant").fixed_actions.items():
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
        acts = list(_TABLEAU_ACTIONS)
        for cell, action in chosen.items():
            acts[_CELL_INDEX[cell]] = action
        return cls(acts)


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


def _resolve_coup(pt, bt, moves, thirds, actions):
    """The rules of one coup, stated once and checked nowhere.

    ``pt`` and ``bt`` are the two-card totals, ``moves`` is
    ``_PLAYER_MOVES`` of Player's row, ``thirds`` the third cards in
    dealing order and ``actions`` Banker's action at each cell, in
    ``ALL_INFO_SETS`` order.  A natural reads none of the last three, and
    a third card is read only when it is dealt.  Returns a plain tuple in
    :class:`CoupOutcome` field order.
    """
    if pt >= 8 or bt >= 8:
        return pt, bt, None, None, True, (pt > bt) - (pt < bt)
    p3 = b3 = None
    used = 0
    if moves[pt] is _DRAW:
        p3 = thirds[0]
        pt = (pt + p3) % 10
        used = 1
    # ALL_INFO_SETS lists 11 cells per Banker total, the stood column last.
    if actions[bt * 11 + (10 if p3 is None else p3)] is _DRAW:
        b3 = thirds[used]
        bt = (bt + b3) % 10
    return pt, bt, p3, b3, False, (pt > bt) - (pt < bt)


class _Dealt:
    """``draw_cards`` as :func:`_resolve_coup` deals from it: a card is
    checked, and an exhausted pile refused, only when it is dealt."""

    __slots__ = ("cards", "player_draws")

    def __init__(self, cards, player_draws):
        self.cards, self.player_draws = cards, player_draws

    def __getitem__(self, i):
        if i >= len(self.cards):
            who = "player" if i == 0 and self.player_draws else "banker"
            raise ValueError(f"{who} draws but draw_cards is exhausted")
        return _check_card(self.cards[i])


class _ByCell:
    """A Banker strategy read by cell index, as :func:`_resolve_coup` reads
    one, and only at the cell it reaches.  It may be a
    :class:`BankerStrategy` or anything read by cell, such as a behavioral
    strategy that draws per hand; what cannot be read by cell is refused
    as no strategy."""

    __slots__ = ("strategy",)

    def __init__(self, strategy):
        self.strategy = strategy

    def __getitem__(self, k):
        try:
            return self.strategy[ALL_INFO_SETS[k]]
        except (TypeError, LookupError):
            # A BankerStrategy reads every cell, so this raises.
            _of_type(self.strategy, BankerStrategy, "banker_strategy")


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
    as the rules require.  ``banker_strategy`` may also be anything that
    maps each cell to an Action.  On a natural neither strategy argument
    is consulted, so neither is checked.  The rules are
    :func:`_resolve_coup`'s; this checks the input it reads.
    """
    player_cards = _items(player_cards, "player_cards")
    banker_cards = _items(banker_cards, "banker_cards")
    draw_cards = _items(draw_cards, "draw_cards")
    if len(player_cards) != 2 or len(banker_cards) != 2:
        raise ValueError("player_cards and banker_cards must each hold 2 cards")
    pt, bt = hand_total(player_cards), hand_total(banker_cards)
    # Only a decision reads the strategies, and a natural ends the coup first.
    moves = None if pt >= 8 or bt >= 8 else _PLAYER_MOVES[_of_type(row, PlayerRow, "row")]
    dealt = _Dealt(draw_cards, moves is not None and moves[pt] is _DRAW)
    return CoupOutcome._make(_resolve_coup(pt, bt, moves, dealt, _ByCell(banker_strategy)))

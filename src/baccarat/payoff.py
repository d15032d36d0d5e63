"""Exact payoff analysis: occurrence probabilities, conditional values,
info-set classification, reduced strategic-form games, best responses,
and an independent brute-force oracle.

Everything here is exact rational arithmetic.  The central objects:

* ``value_distribution`` -- the card-value law nu: value 0 has mass 4/13,
  values 1..9 have mass 1/13 each (sampling with replacement).

* ``two_card_total_distribution`` -- the induced law tau of a two-card
  total: tau(0) = 25/169 and tau(t) = 16/169 for t = 1..9.

  Both laws are held as integer counts, ``_NU`` out of 13 and ``_TAU``
  out of 169; the two functions return ``Fraction`` views of them.

* Per information set I = (b, c) and Player row r, the *occurrence
  probability* w_r(I) that Banker actually faces I, and the conditional
  expected Banker payoffs ``e_draw`` and ``e_stand`` of the two actions
  given I.  Banker's total expected payoff against row r under strategy
  f decomposes as

      E[banker payoff] = (natural-phase part) + sum_I w_r(I) * e_{f(I)}(I)

  so each info set can be optimized cell by cell.  The commission rate
  alpha enters only through the value of a Banker win, 1 - alpha, so
  the decomposition is kept alpha-free, as integer counts out of 13^6
  of Player's loss, tie and win per (row, cell, Banker action), plus
  one slot for the naturals.  That ledger is computed from the counts
  of nu and tau alone and has the oracle's slot layout; alpha
  is applied when a quantity is read off it.  Drawing's gain over
  standing at a cell is ``(c - alpha * s) / total`` for two integers
  read off its slots (``_gain_table``), which the classification and
  the validity scans of :mod:`baccarat.parametric` read.

* ``build_reduced_game`` -- the variant's strategic form after the
  tableau's determined cells are fixed: 2 Player rows against one Banker
  column per assignment of actions to the variant's optional cells
  (16 columns for parlor/classic, 4 for modern).  ``A`` is Player's
  expected payoff (alpha-free), ``B`` is Banker's (affine in alpha).
  Each entry is a sum of 89 integer slots, summed once per variant.

* ``best_response`` -- a pure best reply read off the reduced game:
  Player's rows of ``A`` or Banker's columns of ``B``, each scored
  against the opponent's mix.

* ``oracle_outcome_distribution`` / ``oracle_payoff_entry`` -- a second,
  deliberately independent route to the same numbers.  Every leaf of the
  deal is resolved by the coup rules behind
  :func:`baccarat.rules.play_coup` (see ``_outcome_table``), and the
  outcomes are folded into a ledger of the decomposition's slot layout.
  The decomposition's ledger is never consulted, so agreement between
  the two routes, slot for slot, is a real check.  The same outcome
  table resolves every hand of :func:`baccarat.montecarlo.simulate`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .rules import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    InfoSet,
    PlayerRow,
    Variant,
    _CELL_INDEX,
    _PLAYER_MOVES,
    _TABLEAU_ACTIONS,
    _commission_rate,
    _player_row,
    _resolve_coup,
)
from .solver import _Scaled, _as_weights

__all__ = [
    "value_distribution",
    "two_card_total_distribution",
    "natural_probability",
    "Classification",
    "classify_info_sets",
    "ReducedGame",
    "build_reduced_game",
    "oracle_outcome_distribution",
    "oracle_payoff_entry",
    "BestResponse",
    "best_response",
]

_ROWS = (PlayerRow.STAND_ON_5, PlayerRow.DRAW_ON_5)
#: Six-card deals: every ledger count is out of this many.
_SCALE = 13**6
#: Slot of the naturals in a ledger row, after the 88 cells' slots.
_NO_CELL = len(ALL_INFO_SETS)

#: Player's (loss, tie, win) counts out of 13^6.
_Counts = tuple[int, int, int]
#: Per row, per slot, the counts if Banker stands and if Banker draws.
_Ledger = tuple[tuple[tuple[_Counts, _Counts], ...], ...]


#: The card law nu as counts out of 13: four ranks count 0.
_NU = (4,) + (1,) * 9
#: The law tau of a two-card total as counts of card pairs out of 169.
_TAU = tuple(sum(_NU[a] * _NU[(t - a) % 10] for a in range(10)) for t in range(10))


def value_distribution() -> Mapping[int, Fraction]:
    """Law of a single card value: {0: 4/13, 1..9: 1/13 each}."""
    return MappingProxyType({v: Fraction(n, 13) for v, n in enumerate(_NU)})


def two_card_total_distribution() -> Mapping[int, Fraction]:
    """Law of a two-card total mod 10 under independent card values."""
    return MappingProxyType({t: Fraction(n, 169) for t, n in enumerate(_TAU)})


def natural_probability() -> Fraction:
    """Probability that at least one side's two cards total 8 or 9."""
    return 1 - Fraction(sum(_TAU[:8]) ** 2, 169**2)


def _player_final_totals(info: InfoSet, row: PlayerRow):
    """Weighted final Player totals, conditioned on Banker facing ``info``.

    Yields (final_total, weight) pairs, the weights being counts out of
    169 * 13 (two cards, then a third); they sum to the count of Player's
    side of the condition (drew card c, or stood).
    """
    c = info.player_third
    if c is None:
        stand_totals = (6, 7) if row is PlayerRow.DRAW_ON_5 else (5, 6, 7)
        for t in stand_totals:
            yield t, _TAU[t] * 13
    else:
        draw_totals = range(6) if row is PlayerRow.DRAW_ON_5 else range(5)
        for t in draw_totals:
            yield (t + c) % 10, _TAU[t] * _NU[c]


def _outcome(player_final: int, banker_final: int) -> int:
    """Index of Player's loss (0), tie (1) or win (2) in a slot."""
    return (player_final > banker_final) - (player_final < banker_final) + 1


@lru_cache(maxsize=1)
def _analytic_ledger() -> _Ledger:
    """The decomposition as Player's counts out of 13^6, slot by slot.

    Laid out as the oracle's :func:`_leaf_ledger`:
    ``_analytic_ledger()[r][k]`` holds, against ``_ROWS[r]``, Player's
    (loss, tie, win) counts over the deals in which Banker decides at
    ``ALL_INFO_SETS[k]``, first if Banker stands there, then if Banker
    draws; slot ``_NO_CELL`` holds the naturals, the same counts twice.
    It is read off ``_NU`` and ``_TAU`` alone.  At a cell with Banker
    total ``b``, each final Player total of weight ``w`` (out of 169 * 13) adds
    ``13 * tau(b) * w`` to standing's bin and, for each third card
    ``d``, ``tau(b) * w * nu(d)`` to drawing's; a natural with two-card
    totals ``pt`` and ``bt`` adds ``tau(pt) * tau(bt) * 169``.
    """
    naturals = [0, 0, 0]
    for pt, bt in itertools.product(range(10), repeat=2):
        if pt >= 8 or bt >= 8:
            naturals[_outcome(pt, bt)] += _TAU[pt] * _TAU[bt] * 169
    # Player's (loss, tie, win) counts out of 13 when a final total pf
    # meets Banker's total b plus one third card, keyed (pf, b).
    against_draw = {}
    for pf, b in itertools.product(range(10), range(8)):
        counts = [0, 0, 0]
        for d, wd in enumerate(_NU):
            counts[_outcome(pf, (b + d) % 10)] += wd
        against_draw[pf, b] = counts
    ledger = []
    for row in _ROWS:
        slots = []
        for info in ALL_INFO_SETS:
            b = info.banker_total
            stand, draw = [0, 0, 0], [0, 0, 0]
            for pf, w in _player_final_totals(info, row):
                weight = _TAU[b] * w
                stand[_outcome(pf, b)] += 13 * weight
                loss, tie, win = against_draw[pf, b]
                draw[0] += weight * loss
                draw[1] += weight * tie
                draw[2] += weight * win
            slots.append((tuple(stand), tuple(draw)))
        slots.append((tuple(naturals),) * 2)
        ledger.append(tuple(slots))
    return tuple(ledger)


@lru_cache(maxsize=1)
def _gain_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Drawing's gain over standing, per row and cell, as two integers.

    ``_gain_table()[r][k]`` is ``(c, s) = (loss gain - win gain, loss
    gain)`` against ``_ROWS[r]`` at ``ALL_INFO_SETS[k]``, the gains being
    Player's counts in the cell's draw slot less those in its stand slot.
    At rate alpha drawing beats standing there by ``(c - alpha * s) /
    total``, ``total`` being the cell's positive count of deals, so the
    sign of ``c - alpha * s`` decides the cell.
    """
    return tuple(
        tuple(
            (d[0] - s[0] - d[2] + s[2], d[0] - s[0]) for s, d in slots[:_NO_CELL]
        )
        for slots in _analytic_ledger()
    )


class Classification(NamedTuple):
    """Partition of the 88 info sets at one commission rate.

    A cell is *determined* when the same action is strictly better
    against both Player rows; the rest (row-dependent cells, and exact
    ties) are *starred*.  ``starred`` is read off ``determined``: the
    cells it does not hold, in ``ALL_INFO_SETS`` order.
    """

    alpha: Fraction
    determined: Mapping[InfoSet, Action]

    @property
    def starred(self) -> tuple[InfoSet, ...]:
        return tuple(i for i in ALL_INFO_SETS if i not in self.determined)

    @property
    def agrees_with_tableau(self) -> bool:
        # The tableau's action is None exactly at the cells it stars.
        return all(self.determined.get(i) is a
                   for i, a in zip(ALL_INFO_SETS, _TABLEAU_ACTIONS))


def classify_info_sets(alpha=0) -> Classification:
    """Split the 88 cells into determined and starred at rate ``alpha``.

    Drawing's improvement over standing has the sign of ``q * c - p * s``
    for alpha = p/q, ``(c, s)`` being the cell's entry in the gain table.
    """
    a = _commission_rate(alpha)
    p, q = a.numerator, a.denominator
    determined: dict[InfoSet, Action] = {}
    # One gain against each of the two rows.
    for info, ((c0, s0), (c1, s1)) in zip(ALL_INFO_SETS, zip(*_gain_table())):
        stand_on_5, draw_on_5 = q * c0 - p * s0, q * c1 - p * s1
        if stand_on_5 > 0 and draw_on_5 > 0:
            determined[info] = Action.DRAW
        elif stand_on_5 < 0 and draw_on_5 < 0:
            determined[info] = Action.STAND
    return Classification(a, MappingProxyType(determined))


class ReducedGame(NamedTuple):
    """Strategic form of a variant after fixing all non-optional cells.

    Rows are Player's two choices on a total of 5, ``row_labels``, the
    same for every game; column ``j`` is the pure Banker strategy acting
    per ``columns[j]`` at the variant's optional cells (and per tableau /
    variant mandate elsewhere), labelled by those actions in the
    variant's optional-cell order.  ``A[r][j]`` is Player's expected
    payoff (independent of alpha); ``B[r][j]`` is Banker's at this game's
    ``alpha``.  The solver reads them in integers, ``scaled``; as
    fractions they are built on each read.
    """

    variant: Variant
    alpha: Fraction
    column_labels: tuple[str, ...]
    columns: tuple[tuple[Action, ...], ...]
    scaled: tuple[_Scaled, _Scaled]
    row_labels = _ROWS
    A = property(lambda self: self.scaled[0].fractions())
    B = property(lambda self: self.scaled[1].fractions())

    def column_assignment(self, j: int) -> dict[InfoSet, Action]:
        return dict(zip(self.variant.optional_cells, self.columns[j]))

    def banker_strategy(self, j: int) -> BankerStrategy:
        return BankerStrategy.from_assignment(
            self.column_assignment(j), variant=self.variant
        )


@lru_cache(maxsize=16)
def _column_counts(cells: tuple[InfoSet, ...], mandates: frozenset):
    """The column labels and columns, Player's (loss, win) counts out of
    13^6 per row and column, and ``A`` scaled by 13^6, of every variant
    with these optional ``cells`` and these (cell, action) ``mandates``."""
    columns = tuple(itertools.product((Action.STAND, Action.DRAW), repeat=len(cells)))
    # Any variant of this structure fixes the same cells the same way.
    fixed = tuple(
        (_CELL_INDEX[info], action is Action.DRAW)
        for info, action in Variant("", cells, dict(mandates)).fixed_cell_actions()
    )
    optional = tuple(_CELL_INDEX[info] for info in cells)
    counts = []
    for slots in _analytic_ledger():
        base = tuple(
            map(sum, zip(slots[_NO_CELL][0], *(slots[k][drew] for k, drew in fixed)))
        )
        # A slot is (stand, draw), so this runs in the order of ``columns``.
        chosen = itertools.product(*(slots[k] for k in optional))
        totals = (map(sum, zip(base, *picks)) for picks in chosen)
        counts.append(tuple((loss, win) for loss, _tie, win in totals))
    A = _Scaled((_SCALE, tuple(tuple(win - loss for loss, win in r) for r in counts)))
    return tuple("".join(map(str, c)) for c in columns), columns, tuple(counts), A


def build_reduced_game(variant: Variant, alpha=0) -> ReducedGame:
    """Assemble the variant's 2-row strategic form at rate ``alpha``.

    ``alpha`` must be a rate the variant accepts
    (:meth:`~baccarat.rules.Variant.check_alpha`).  To build the matrices
    past a bound, as when probing where an analysis breaks down, build
    them for a variant of the same structure with a wider ``alpha_bound``
    (a :class:`~baccarat.rules.Variant`'s defaults to 1).
    """
    a = variant.check_alpha(alpha)
    labels, columns, counts, A = _column_counts(
        variant.optional_cells, frozenset(variant.fixed_actions.items())
    )
    p, q = a.numerator, a.denominator
    # Banker's payoff is ((q - p) * loss - q * win) / (q * 13^6) at alpha = p/q.
    B = _Scaled((q * _SCALE, tuple(
        tuple((q - p) * loss - q * win for loss, win in row) for row in counts
    )))
    return ReducedGame(variant, a, labels, columns, (A, B))


# ---------------------------------------------------------------------------
# Brute-force oracle.
#
# Nothing here reads the decomposition above: the oracle keeps its own
# card law (_W, _PAIRS) and takes its outcomes from the coup rules alone,
# so agreement between the two routes, slot for slot, is a real check.
# ---------------------------------------------------------------------------

_W = tuple(4 if v == 0 else 1 for v in range(10))
#: Card pairs, out of 169, behind each two-card total.
_PAIRS = tuple(
    sum(_W[a] * _W[b] for a in range(10) for b in range(10) if (a + b) % 10 == t)
    for t in range(10)
)


@lru_cache(maxsize=1)
def _outcome_table() -> tuple[bytes, bytes, bytes]:
    """Every leaf's Banker cell and Player's sign, by the coup rules.

    Entry ``row * 10000 + pt * 1000 + bt * 100 + c4 * 10 + c5`` is the
    hand with Player two-card total ``pt``, Banker two-card total ``bt``
    and third cards ``c4, c5`` in dealing order, under ``_ROWS[row]``.
    It is resolved through ``rules._resolve_coup``, the unchecked rules
    behind ``play_coup``, on those totals and cards, once with Banker
    standing everywhere and, unless a natural ends the coup, once with
    Banker drawing everywhere.  Returns three immutable ``bytes``: the
    index in ``ALL_INFO_SETS`` of the cell Banker decides at
    (``_NO_CELL`` on a natural), then Player's payoff + 1 if Banker
    stands, then the same if Banker draws.  A coup carries no
    commission: it is applied to the counts the table is folded into.

    Each ``(row, pt, bt)`` block of 100 leaves is resolved once per
    distinct read prefix of the third cards; a result holds for every
    unread card.  The outcome reports the third cards the rules
    consumed, so a coup that read none fills the rest of its block, and
    one that read one fills the rest of its ``c4`` row of ten.  Resolved
    blocks are kept by ``(pt, bt)`` and the block's first standing coup.
    The row reaches the rules only through Player's move on ``pt``, made
    once per block, and that coup shows it (Player's third card is 0 if
    Player drew, ``None`` if not) or a natural.  So a block whose key is
    kept plays alike at every leaf, and its bytes are appended again.
    Under the fixed rules only the eight non-natural blocks of ``pt = 5``
    are resolved under both rows, and a build resolves 5 672 coups
    instead of one or two per leaf.  The cell index is read off the coup as
    ``bt * 11`` plus the column of Player's third card (10 when Player
    stood), the layout of ``ALL_INFO_SETS``.
    """
    all_stand = (Action.STAND,) * len(ALL_INFO_SETS)
    all_draw = (Action.DRAW,) * len(ALL_INFO_SETS)
    # Per leaf j = c4 * 10 + c5 of a block: its third cards, and where a
    # run starting there ends when the coup read 0, 1 or 2 of them.  A
    # block's bytes are gathered run by run from slices of 100 copies of
    # each byte value, and each array is joined from its blocks at the end.
    thirds = tuple(itertools.product(range(10), repeat=2))
    ends = tuple((100, j - j % 10 + 10, j + 1) for j in range(100))
    fill = tuple(bytes((v,)) * 100 for v in range(_NO_CELL + 1))

    resolved, pieces = {}, ([], [], [])
    for row, pt, bt in itertools.product(_ROWS, range(10), range(10)):
        moves = _PLAYER_MOVES[row]
        first = _resolve_coup(pt, bt, moves, thirds[0], all_stand)
        key = pt, bt, first
        if key not in resolved:
            _, _, p3, b3, natural, sign = first
            cell_block, stand_block, j = bytearray(), bytearray(), 0
            while True:
                end = ends[j][(p3 is not None) + (b3 is not None)]
                cell = _NO_CELL if natural else bt * 11 + (10 if p3 is None else p3)
                cell_block += fill[cell][: end - j]
                stand_block += fill[sign + 1][: end - j]
                if end == 100:
                    break
                j = end
                _, _, p3, b3, natural, sign = _resolve_coup(
                    pt, bt, moves, thirds[j], all_stand
                )
            # A natural reads no Banker action, so drawing plays alike.
            draw_block, j = (stand_block, 100) if natural else (bytearray(), 0)
            while j < 100:
                _, _, p3, b3, _, sign = _resolve_coup(
                    pt, bt, moves, thirds[j], all_draw
                )
                end = ends[j][(p3 is not None) + (b3 is not None)]
                draw_block += fill[sign + 1][: end - j]
                j = end
            resolved[key] = cell_block, stand_block, draw_block
        for piece, part in zip(pieces, resolved[key]):
            piece.append(part)
    return tuple(b"".join(piece) for piece in pieces)


@lru_cache(maxsize=1)
def _leaf_ledger() -> _Ledger:
    """The outcome table folded into Player's counts out of 13^6.

    ``_leaf_ledger()[r][k]`` holds, against ``_ROWS[r]``, the
    (loss, tie, win) counts of Player over the deals in which Banker
    decides at ``ALL_INFO_SETS[k]``: first if Banker stands there, then
    if Banker draws.  Slot ``_NO_CELL`` holds the naturals, the same
    counts twice.  Each leaf weighs ``_PAIRS[pt] * _PAIRS[bt] * _W[c4] *
    _W[c5]``; a third card the rules never consume is integrated out, as
    its weights sum to 13.  So the counts of one row, over the natural
    slot and one action per cell, sum to 13^6.

    The first row is folded leaf by leaf.  The second starts from its
    counts and re-folds only the blocks whose bytes differ from the
    first row's in any of the three arrays: it takes the first row's
    leaves of such a block out and puts its own in.
    """
    table = _outcome_table()
    cells, stand_signs, draw_signs = table
    third_weights = [_W[c4] * _W[c5] for c4 in range(10) for c5 in range(10)]
    half = 10**4
    slots = [([0, 0, 0], [0, 0, 0]) for _ in range(_NO_CELL + 1)]

    def fold(base, sign=1):
        """Add the block at ``base`` to ``slots``, or take it out."""
        pairs = sign * _PAIRS[base // 1000 % 10] * _PAIRS[base // 100 % 10]
        block = slice(base, base + 100)
        for cell, s, d, w in zip(
            cells[block], stand_signs[block], draw_signs[block], third_weights
        ):
            stand, draw = slots[cell]
            weight = pairs * w
            stand[s] += weight
            draw[d] += weight

    def frozen():
        return tuple((tuple(s), tuple(d)) for s, d in slots)

    for base in range(0, half, 100):
        fold(base)
    first = frozen()
    for base in range(0, half, 100):
        twin = base + half
        if any(t[base : base + 100] != t[twin : twin + 100] for t in table):
            fold(base, -1)
            fold(twin)
    return first, frozen()


def oracle_outcome_distribution(
    row: PlayerRow, strategy: BankerStrategy
) -> tuple[Fraction, Fraction, Fraction]:
    """(P(player wins), P(banker wins), P(tie)) by direct enumeration."""
    if not isinstance(strategy, BankerStrategy):
        raise TypeError(f"strategy must be a BankerStrategy, got {strategy!r}")
    slots = _leaf_ledger()[_ROWS.index(_player_row(row))]
    chosen = (
        slot[action is Action.DRAW] for slot, action in zip(slots, strategy.actions)
    )
    loss, tie, win = map(sum, zip(slots[_NO_CELL][0], *chosen))
    return Fraction(win, _SCALE), Fraction(loss, _SCALE), Fraction(tie, _SCALE)


def oracle_payoff_entry(
    row: PlayerRow, strategy: BankerStrategy, alpha=0
) -> tuple[Fraction, Fraction]:
    """(player EV, banker EV) for one pure profile, by brute force only."""
    a = _commission_rate(alpha)
    p_win, p_loss, _tie = oracle_outcome_distribution(row, strategy)
    return p_win - p_loss, (1 - a) * p_loss - p_win


class BestResponse(NamedTuple):
    """A pure best reply and its expected payoff.

    For ``role == "player"`` the reply is ``row`` (a PlayerRow); for
    ``role == "banker"`` it is ``actions``, one Action per optional cell
    of the variant.  ``ties`` lists alternatives that do exactly as well:
    rows for Player, optional cells where both actions are optimal for
    Banker.
    """

    role: str
    value: Fraction
    row: PlayerRow | None = None
    actions: Mapping[InfoSet, Action] | None = None
    ties: tuple = ()


def best_response(role: str, opponent_mix, variant: Variant, alpha=0) -> BestResponse:
    """Exact pure best reply within a variant's reduced game.

    ``opponent_mix`` is a weight vector (or anything with ``.weights``)
    over the opponent's pure strategies in reduced-game order: the two
    Player rows when ``role == "banker"``, the variant's Banker columns
    when ``role == "player"``.  Each of the role's own pure strategies
    (a row of ``A`` for Player, a column of ``B`` for Banker) is scored
    against that mix, and the best score wins.
    """
    if role not in ("banker", "player"):
        raise ValueError(f'role must be "player" or "banker", got {role!r}')
    game = build_reduced_game(variant, alpha)
    lines = game.A if role == "player" else tuple(zip(*game.B))
    mix = _as_weights(opponent_mix, len(lines[0]))
    scores = [sum(w * x for w, x in zip(mix, line)) for line in lines]
    best = max(scores)
    winners = [i for i, v in enumerate(scores) if v == best]
    if role == "player":
        return BestResponse(
            role=role,
            value=best,
            row=game.row_labels[winners[0]],
            ties=tuple(game.row_labels[r] for r in winners[1:]),
        )
    # Banker's payoff is a sum over the optional cells, so the winning
    # columns are every combination of each cell's best actions; the
    # first of them, in ``game.columns`` order, stands wherever both
    # actions are best.
    cells = variant.optional_cells
    return BestResponse(
        role=role,
        value=best,
        actions=MappingProxyType(dict(zip(cells, game.columns[winners[0]]))),
        ties=tuple(
            cell
            for k, cell in enumerate(cells)
            if len({game.columns[j][k] for j in winners}) > 1
        ),
    )

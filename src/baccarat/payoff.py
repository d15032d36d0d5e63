"""Exact payoff analysis: occurrence probabilities, conditional values,
info-set classification, reduced strategic-form games, best responses,
and an independent brute-force oracle.

Everything here is exact rational arithmetic.  The central objects:

* ``value_distribution`` -- the card-value law nu: value 0 has mass 4/13,
  values 1..9 have mass 1/13 each (sampling with replacement).

* ``two_card_total_distribution`` -- the induced law tau of a two-card
  total: tau(0) = 25/169 and tau(t) = 16/169 for t = 1..9.

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
  one slot for the naturals.  That ledger is computed from the card
  counts of nu and tau alone and has the oracle's slot layout; alpha
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
  deal -- a row, a pair of two-card totals and the two third cards -- is
  resolved through :func:`baccarat.rules.play_coup` once per distinct
  read prefix of the third cards; a result holds for every unread card.
  The outcome table so filled is folded into an integer ledger of
  Player's loss, tie and win counts out of 13^6 for each (row, cell,
  Banker action), plus one slot for the naturals.  An entry is the sum
  of 89 ledger slots: the naturals and, at each of the 88 cells, the
  action the strategy takes.  The decomposition's ledger is never
  consulted, so agreement between the two routes, slot for slot, is a
  real check.  The same outcome table resolves every hand of
  :func:`baccarat.montecarlo.simulate`.
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
    STARRED_CELLS,
    Variant,
    _CELL_INDEX,
    _commission_rate,
    _player_row,
    play_coup,
    tableau_action,
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


@lru_cache(maxsize=None)
def value_distribution() -> Mapping[int, Fraction]:
    """Law of a single card value: {0: 4/13, 1..9: 1/13 each}."""
    return MappingProxyType({v: Fraction(4 if v == 0 else 1, 13) for v in range(10)})


@lru_cache(maxsize=None)
def two_card_total_distribution() -> Mapping[int, Fraction]:
    """Law of a two-card total mod 10 under independent card values."""
    nu = value_distribution()
    tau = {t: Fraction(0) for t in range(10)}
    for a, wa in nu.items():
        for b, wb in nu.items():
            tau[(a + b) % 10] += wa * wb
    return MappingProxyType(tau)


@lru_cache(maxsize=None)
def natural_probability() -> Fraction:
    """Probability that at least one side's two cards total 8 or 9."""
    tau = two_card_total_distribution()
    live = sum(tau[t] for t in range(8))
    return 1 - live * live


@lru_cache(maxsize=None)
def _card_counts() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The laws nu and tau as integer counts, out of 13 and out of 169."""
    nu, tau = value_distribution(), two_card_total_distribution()
    return (
        tuple(int(nu[v] * 13) for v in range(10)),
        tuple(int(tau[t] * 169) for t in range(10)),
    )


def _player_final_totals(info: InfoSet, row: PlayerRow):
    """Weighted final Player totals, conditioned on Banker facing ``info``.

    Yields (final_total, weight) pairs, the weights being counts out of
    169 * 13 (two cards, then a third); they sum to the count of Player's
    side of the condition (drew card c, or stood).
    """
    nu, tau = _card_counts()
    c = info.player_third
    if c is None:
        stand_totals = (6, 7) if row is PlayerRow.DRAW_ON_5 else (5, 6, 7)
        for t in stand_totals:
            yield t, tau[t] * 13
    else:
        draw_totals = range(6) if row is PlayerRow.DRAW_ON_5 else range(5)
        for t in draw_totals:
            yield (t + c) % 10, tau[t] * nu[c]


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
    It is read off card counts alone.  At a cell with Banker total ``b``,
    each final Player total of weight ``w`` (out of 169 * 13) adds
    ``13 * tau(b) * w`` to standing's bin and, for each third card
    ``d``, ``tau(b) * w * nu(d)`` to drawing's; a natural with two-card
    totals ``pt`` and ``bt`` adds ``tau(pt) * tau(bt) * 169``.
    """
    nu, tau = _card_counts()
    naturals = [0, 0, 0]
    for pt, bt in itertools.product(range(10), repeat=2):
        if pt >= 8 or bt >= 8:
            naturals[_outcome(pt, bt)] += tau[pt] * tau[bt] * 169
    # Player's (loss, tie, win) counts out of 13 when a final total pf
    # meets Banker's total b plus one third card, keyed (pf, b).
    against_draw = {}
    for pf, b in itertools.product(range(10), range(8)):
        counts = [0, 0, 0]
        for d, wd in enumerate(nu):
            counts[_outcome(pf, (b + d) % 10)] += wd
        against_draw[pf, b] = counts
    ledger = []
    for row in _ROWS:
        slots = []
        for info in ALL_INFO_SETS:
            b = info.banker_total
            stand, draw = [0, 0, 0], [0, 0, 0]
            for pf, w in _player_final_totals(info, row):
                weight = tau[b] * w
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
    ties) are *starred*.
    """

    alpha: Fraction
    determined: Mapping[InfoSet, Action]
    starred: tuple[InfoSet, ...]

    @property
    def agrees_with_tableau(self) -> bool:
        return self.starred == STARRED_CELLS and all(
            self.determined[i] == tableau_action(i)
            for i in ALL_INFO_SETS
            if i not in self.starred
        )


def classify_info_sets(alpha=0) -> Classification:
    """Split the 88 cells into determined and starred at rate ``alpha``.

    Drawing's improvement over standing has the sign of ``q * c - p * s``
    for alpha = p/q, ``(c, s)`` being the cell's entry in the gain table.
    """
    a = _commission_rate(alpha)
    p, q = a.numerator, a.denominator
    determined: dict[InfoSet, Action] = {}
    starred: list[InfoSet] = []
    gains = _gain_table()
    for k, info in enumerate(ALL_INFO_SETS):
        imps = [q * c - p * s for c, s in (row[k] for row in gains)]
        if all(x > 0 for x in imps):
            determined[info] = Action.DRAW
        elif all(x < 0 for x in imps):
            determined[info] = Action.STAND
        else:
            starred.append(info)
    return Classification(a, MappingProxyType(determined), tuple(starred))


class ReducedGame(NamedTuple):
    """Strategic form of a variant after fixing all non-optional cells.

    Rows are Player's two choices on a total of 5; column ``j`` is the
    pure Banker strategy acting per ``columns[j]`` at the variant's
    optional cells (and per tableau / variant mandate elsewhere).
    ``A[r][j]`` is Player's expected payoff (independent of alpha);
    ``B[r][j]`` is Banker's at this game's ``alpha``.  The solver reads
    them in integers, ``scaled``; as fractions they are built on each read.
    """

    variant: Variant
    alpha: Fraction
    row_labels: tuple[PlayerRow, ...]
    column_labels: tuple[str, ...]
    columns: tuple[tuple[Action, ...], ...]
    scaled: tuple[_Scaled, _Scaled]
    A = property(lambda self: self.scaled[0].fractions())
    B = property(lambda self: self.scaled[1].fractions())

    def column_assignment(self, j: int) -> dict[InfoSet, Action]:
        return dict(zip(self.variant.optional_cells, self.columns[j]))

    def banker_strategy(self, j: int) -> BankerStrategy:
        return BankerStrategy.from_assignment(
            self.column_assignment(j),
            variant=self.variant,
            label=self.column_labels[j],
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
    return ReducedGame(variant, a, _ROWS, labels, columns, (A, B))


# ---------------------------------------------------------------------------
# Brute-force oracle.
#
# play_coup depends on the first two cards only through their total, so
# a deal is fixed, as far as the rules can tell, by the row, the two
# two-card totals and the two third cards: 2 x 10^4 leaves.
# _outcome_table fills them from the hands (0, total), resolved through
# play_coup once per distinct read prefix of the third cards; a result
# holds for every unread card, and the outcome itself says which cards
# were read.  _leaf_ledger weights each leaf by its number of six-card
# deals out of 13^6 and files it under the Banker cell it reaches.  A
# coup reaches at most one cell, so an oracle entry is the natural slot
# plus, per cell, the slot of the action the strategy takes there.
# Nothing here reads the decomposition above, so agreement between the
# two routes is a real check.
# ---------------------------------------------------------------------------

_W = tuple(4 if v == 0 else 1 for v in range(10))
#: Card pairs, out of 169, behind each two-card total.
_PAIRS = tuple(
    sum(_W[a] * _W[b] for a in range(10) for b in range(10) if (a + b) % 10 == t)
    for t in range(10)
)


@lru_cache(maxsize=1)
def _outcome_table() -> tuple[memoryview, memoryview, memoryview]:
    """Every leaf's Banker cell and Player's sign, resolved by play_coup.

    Entry ``row * 10000 + pt * 1000 + bt * 100 + c4 * 10 + c5`` is the
    hand with Player two-card total ``pt``, Banker two-card total ``bt``
    and third cards ``c4, c5`` in dealing order, under ``_ROWS[row]``.
    It is resolved through ``play_coup`` on the hands ``(0, pt)`` and
    ``(0, bt)``, once with Banker standing everywhere and, unless a
    natural ends the coup, once with Banker drawing everywhere.  Returns
    the index in ``ALL_INFO_SETS`` of the cell Banker decides at
    (``_NO_CELL`` on a natural), then Player's payoff + 1 if Banker
    stands, then the same if Banker draws.  A coup carries no commission:
    it is applied to the counts the table is folded into.

    Each ``(row, pt, bt)`` block of 100 leaves is resolved through
    ``play_coup`` once per distinct read prefix of the third cards; a
    result holds for every unread card.  The outcome reports the third
    cards the rules consumed, so a coup that read none fills the rest of
    its block, and one that read one fills the rest of its ``c4`` row of
    ten: 10 192 calls instead of one or two per leaf.

    The three byte arrays are filled in place and handed out as
    read-only views, not copied to ``bytes``: a copy would double the
    table's memory while it is built, and that moves peak RSS.
    """
    all_stand = BankerStrategy((Action.STAND,) * len(ALL_INFO_SETS))
    all_draw = BankerStrategy((Action.DRAW,) * len(ALL_INFO_SETS))
    size = len(_ROWS) * 10**4
    cells, stand_signs, draw_signs = (bytearray(size) for _ in range(3))
    # Per leaf j = c4 * 10 + c5 of a block: its third cards, and where a
    # run starting there ends when the coup read 0, 1 or 2 of them; runs
    # are filled from slices of 100 copies of each byte value.
    thirds = tuple(itertools.product(range(10), repeat=2))
    ends = tuple((100, j - j % 10 + 10, j + 1) for j in range(100))
    fill = tuple(bytes((v,)) * 100 for v in range(_NO_CELL + 1))

    blocks = itertools.product(_ROWS, range(10), range(10))
    for base, (row, pt, bt) in zip(range(0, size, 100), blocks):
        player, banker = (0, pt), (0, bt)
        j = 0
        while j < 100:
            coup = play_coup(player, banker, thirds[j], row, all_stand)
            p3 = coup.player_third
            end = ends[j][(p3 is not None) + (coup.banker_third is not None)]
            cell = _NO_CELL if coup.natural else _CELL_INDEX[InfoSet(bt, p3)]
            run, n = slice(base + j, base + end), end - j
            cells[run] = fill[cell][:n]
            stand_signs[run] = fill[coup.player_payoff + 1][:n]
            j = end
        if coup.natural:
            draw_signs[base : base + 100] = stand_signs[base : base + 100]
            continue
        j = 0
        while j < 100:
            coup = play_coup(player, banker, thirds[j], row, all_draw)
            read = (coup.player_third is not None) + (coup.banker_third is not None)
            end = ends[j][read]
            draw_signs[base + j : base + end] = fill[coup.player_payoff + 1][: end - j]
            j = end
    return tuple(
        memoryview(t).toreadonly() for t in (cells, stand_signs, draw_signs)
    )


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
    """
    cells, stand_signs, draw_signs = _outcome_table()
    third_weights = [_W[c4] * _W[c5] for c4 in range(10) for c5 in range(10)]
    ledger = []
    for r in range(len(_ROWS)):
        slots = [([0, 0, 0], [0, 0, 0]) for _ in range(_NO_CELL + 1)]
        blocks = itertools.product(range(10), repeat=2)
        for base, (pt, bt) in zip(range(r * 10**4, (r + 1) * 10**4, 100), blocks):
            block = slice(base, base + 100)
            pairs = _PAIRS[pt] * _PAIRS[bt]
            weights = [pairs * w for w in third_weights]
            for cell, s, d, weight in zip(
                cells[block], stand_signs[block], draw_signs[block], weights
            ):
                stand, draw = slots[cell]
                stand[s] += weight
                draw[d] += weight
        ledger.append(tuple((tuple(s), tuple(d)) for s, d in slots))
    return tuple(ledger)


def oracle_outcome_distribution(
    row: PlayerRow, strategy: BankerStrategy
) -> tuple[Fraction, Fraction, Fraction]:
    """(P(player wins), P(banker wins), P(tie)) by direct enumeration."""
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

"""Unit tests for hand arithmetic, the drawing table, and coup resolution."""

import ast
import copy
import gc
import inspect
import itertools
import pickle
import re
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from baccarat import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    CLASSIC,
    CoupOutcome,
    InfoSet,
    MODERN,
    PARLOR,
    PlayerRow,
    STARRED_CELLS,
    hand_total,
    is_natural,
    mandated_player_action,
    play_coup,
    tableau_action,
    Variant,
)
import baccarat
from baccarat.montecarlo import equilibrium_profile, simulate
from baccarat.parametric import find_alpha_star, solve_variant, table_validity_bound
from baccarat.payoff import best_response, build_reduced_game
from baccarat.punto import mandated_banker_strategy, unfulfilled_demand
from baccarat.rules import _PLAYER_MOVES, _TABLEAU_ACTIONS, _info_set, _resolve_coup
from baccarat.solver import (
    EquilibriumReport,
    MixedStrategy,
    eliminate_strictly_dominated,
    enumerate_nash_2xn,
    is_nondegenerate,
    verify_equilibrium,
)
from fraction_reference import info_set_stats

D, S = Action.DRAW, Action.STAND


def test_hand_total_wraps_mod_10():
    assert hand_total([9, 9]) == 8
    assert hand_total([0, 0]) == 0
    assert hand_total((4, 3, 6)) == 3
    assert hand_total([5, 5]) == 0


@pytest.mark.parametrize("bad", [[1], [1, 2, 3, 4], []])
def test_hand_total_rejects_wrong_card_count(bad):
    with pytest.raises(ValueError):
        hand_total(bad)


@pytest.mark.parametrize("card", [-1, 10, 2.0, "3", True, None])
def test_hand_total_rejects_bad_cards(card):
    with pytest.raises(ValueError):
        hand_total([card, 1])


def test_is_natural():
    assert is_natural([4, 4])
    assert is_natural([9, 0])
    assert not is_natural([3, 4])
    assert not is_natural([4, 4, 0])  # three cards can total 8 but not naturally


def test_info_set_catalog():
    assert len(ALL_INFO_SETS) == 88
    assert ALL_INFO_SETS[0] == InfoSet(0, 0)
    assert ALL_INFO_SETS[10] == InfoSet(0, None)
    assert ALL_INFO_SETS[-1] == InfoSet(7, None)
    assert str(InfoSet(6, None)) == "(6,-)"
    assert str(InfoSet(3, 9)) == "(3,9)"


def test_starred_cells_are_the_known_four():
    assert STARRED_CELLS == (
        InfoSet(3, 9),
        InfoSet(4, 1),
        InfoSet(5, 4),
        InfoSet(6, None),
    )
    for cell in STARRED_CELLS:
        assert tableau_action(cell) is None


def test_tableau_spot_values():
    assert tableau_action(InfoSet(0, 0)) is D
    assert tableau_action(InfoSet(7, 7)) is S
    assert tableau_action(InfoSet(3, 8)) is S
    assert tableau_action(InfoSet(4, 0)) is S
    assert tableau_action(InfoSet(5, 5)) is D
    assert tableau_action(InfoSet(6, 6)) is D
    assert tableau_action(InfoSet(6, 5)) is S
    assert tableau_action(InfoSet(2, None)) is D
    assert tableau_action(InfoSet(6, None)) is None


def test_the_tableau_constant_is_tableau_action_at_every_cell():
    assert _TABLEAU_ACTIONS == tuple(map(tableau_action, ALL_INFO_SETS))


def test_tableau_rejects_out_of_range():
    with pytest.raises(ValueError):
        tableau_action(InfoSet(8, 0))
    with pytest.raises(ValueError):
        tableau_action(InfoSet(3, 10))


def test_mandated_player_action():
    for t in range(5):
        assert mandated_player_action(t, PlayerRow.STAND_ON_5) is D
    for t in (6, 7):
        assert mandated_player_action(t, PlayerRow.DRAW_ON_5) is S
    assert mandated_player_action(5, PlayerRow.STAND_ON_5) is S
    assert mandated_player_action(5, PlayerRow.DRAW_ON_5) is D
    with pytest.raises(ValueError):
        mandated_player_action(8, PlayerRow.DRAW_ON_5)
    with pytest.raises(ValueError):
        mandated_player_action(5, "DrawOn5")


@pytest.mark.parametrize(
    "total", [True, False, 5.0, 2.5, "3", None, Fraction(3)], ids=repr
)
def test_mandated_player_action_refuses_a_total_that_is_not_an_int(total):
    with pytest.raises(ValueError) as info:
        mandated_player_action(total, PlayerRow.DRAW_ON_5)
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"player two-card total must be an integer 0..7, got {total!r}"
    )


@pytest.mark.parametrize(
    "total", [True, False, 3.0, 2.5, "3", None, Fraction(3)], ids=repr
)
@pytest.mark.parametrize("third", [None, 9])
def test_tableau_action_refuses_a_total_that_is_not_an_int(total, third):
    with pytest.raises(ValueError) as info:
        tableau_action(InfoSet(total, third))
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"banker two-card total must be an integer 0..7, got {total!r}"
    )


def _refused_at_once(call, match: str) -> None:
    """``call`` raises ValueError matching ``match`` in under 10 ms.

    It is timed three times with the garbage collector held off, each
    call raising alike, and the fastest counts: a collection or a pause
    of the machine inside one call does not fail the test, while a path
    that builds the number, or backtracks over it, fails all three.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=match):
                call()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    assert min(times) < 0.01


class TestVariants:
    def test_builtin_shapes(self):
        assert PARLOR.optional_cells == STARRED_CELLS
        assert CLASSIC.optional_cells == STARRED_CELLS
        assert PARLOR.fixed_actions == {}
        assert MODERN.optional_cells == (InfoSet(3, 9), InfoSet(5, 4))
        assert MODERN.fixed_actions == {InfoSet(4, 1): S, InfoSet(6, None): S}
        assert PARLOR.alpha_bound == 0
        assert CLASSIC.alpha_bound == Fraction(1, 15)
        assert MODERN.alpha_bound == Fraction(2, 5)

    def test_check_alpha(self):
        assert CLASSIC.check_alpha("1/20") == Fraction(1, 20)
        rate = Fraction(1, 20)
        assert CLASSIC.check_alpha(rate) is rate
        for x in (0.05, False):
            with pytest.raises(TypeError):
                CLASSIC.check_alpha(x)
        with pytest.raises(ValueError):
            CLASSIC.check_alpha(Fraction(1, 10))
        assert MODERN.check_alpha(Fraction(1, 3)) == Fraction(1, 3)

    @pytest.mark.parametrize(
        "text",
        ["1e-1000000", "1e-10000", "0e999999999", "1e999999999999999999999999",
         "1e" + "9" * 5000, "0." + "1" * 20_000],
    )
    def test_a_number_too_long_to_write_out_is_refused_at_once(self, text):
        """A decimal string past 10 000 digits and exponent together is
        refused before its power of ten is built, as the CLI refuses it."""
        _refused_at_once(lambda: CLASSIC.check_alpha(text), "digits and exponent")

    @pytest.mark.parametrize(
        "text", ["1e-1000000", "1e-10000", "0e999999999", "0." + "1" * 20_000]
    )
    def test_a_decimal_too_long_to_write_out_is_refused_at_once(self, text):
        """A ``Decimal`` is bounded as its string is."""
        number = Decimal(text)
        _refused_at_once(lambda: CLASSIC.check_alpha(number), "digits and exponent")

    @pytest.mark.parametrize(
        "number",
        [Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"),
         Decimal("sNaN"), "inf", "nan"],
        ids=str,
    )
    def test_a_number_that_is_not_finite_is_refused(self, number):
        with pytest.raises(ValueError, match=r"^alpha must be finite, got"):
            CLASSIC.check_alpha(number)

    @pytest.mark.parametrize("text", ["none", "help", "abc", "1/2/3", " 1 / 2 "])
    def test_a_string_that_is_not_a_numeral_is_named_as_such(self, text):
        with pytest.raises(ValueError) as info:
            CLASSIC.check_alpha(text)
        assert str(info.value) == f"alpha must be a number, got {text!r}"

    def test_a_fraction_is_read_and_bounded_term_by_term(self):
        """A term past int()'s 4300 digits reads as a decimal does, and one
        past the decimal bound is refused at once, by the argument's name."""
        sevens = 7 * (10**4400 - 1) // 9  # 4400 sevens
        assert CLASSIC.check_alpha("1/" + "7" * 4400) == Fraction(1, sevens)
        _refused_at_once(
            lambda: CLASSIC.check_alpha("1/" + "7" * 10_001),
            r"^alpha must be a number written with",
        )

    def test_a_zero_denominator_still_divides_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CLASSIC.check_alpha("1/0")

    def test_the_longest_decimal_still_reads(self):
        assert CLASSIC.check_alpha("1e-9999") == Fraction(1, 10**9999)
        assert CLASSIC.check_alpha(" 5e-2 ") == Fraction(1, 20)
        assert CLASSIC.check_alpha(Decimal("1e-9999")) == Fraction(1, 10**9999)
        assert CLASSIC.check_alpha(Decimal("-0")) == 0

    def test_a_zero_bound_means_commission_free(self):
        free = Variant("free", STARRED_CELLS, {}, 0)
        assert free.check_alpha(0) == 0
        for a in (Fraction(1, 20), Fraction(-1, 20)):
            with pytest.raises(ValueError, match="commission-free"):
                free.check_alpha(a)

    @pytest.mark.parametrize("bound", [0, 1, "1/2", Fraction(2, 5)])
    def test_alpha_bound_accepted(self, bound):
        v = Variant("v", list(STARRED_CELLS), {}, bound)
        assert v.alpha_bound == Fraction(bound)
        assert type(v.alpha_bound) is Fraction
        assert Variant("v", STARRED_CELLS, {}, bound) == v
        assert hash(v) == hash(Variant("v", STARRED_CELLS, {}, bound))

    def test_alpha_bound_defaults_to_one(self):
        v = Variant("wide", STARRED_CELLS, {})
        assert v.alpha_bound == 1 and type(v.alpha_bound) is Fraction
        assert v.check_alpha(Fraction(99, 100)) == Fraction(99, 100)

    def test_alpha_bound_rejected(self):
        for bound in (0.5, True):
            with pytest.raises(TypeError):
                Variant("flt", STARRED_CELLS, {}, bound)
        for bound in (-1, 2, "3/2"):
            with pytest.raises(ValueError, match="alpha_bound"):
                Variant("bad", STARRED_CELLS, {}, bound)

    @pytest.mark.parametrize("variant", [PARLOR, CLASSIC, MODERN], ids=lambda v: v.name)
    def test_fixed_cell_actions(self, variant):
        fixed = dict(variant.fixed_cell_actions())
        optional = variant.optional_cells
        assert list(fixed) == [i for i in ALL_INFO_SETS if i not in optional]
        for info, action in fixed.items():
            assert action is variant.fixed_actions.get(info, tableau_action(info))

    @pytest.mark.parametrize("variant", [PARLOR, CLASSIC, MODERN], ids=lambda v: v.name)
    def test_fixed_actions_are_read_only(self, variant):
        before = dict(variant.fixed_actions)
        cell = InfoSet(4, 1)
        with pytest.raises((AttributeError, TypeError)):
            variant.fixed_actions.pop(cell)
        with pytest.raises((AttributeError, TypeError)):
            variant.fixed_actions.update({cell: D})
        with pytest.raises(TypeError):
            variant.fixed_actions[cell] = D
        with pytest.raises(TypeError):
            del variant.fixed_actions[cell]
        assert variant.fixed_actions == before

    def test_custom_variant_copies_fixed_actions(self):
        fixed = {InfoSet(4, 1): S, InfoSet(6, None): S}
        v = Variant("modern", MODERN.optional_cells, fixed, MODERN.alpha_bound)
        fixed[InfoSet(4, 1)] = D
        del fixed[InfoSet(6, None)]
        assert v.fixed_actions == {InfoSet(4, 1): S, InfoSet(6, None): S}
        assert v == MODERN and hash(v) == hash(MODERN)

    def test_cells_given_as_tuples_are_held_as_info_sets(self):
        """Cells and mandate keys are canonical InfoSets, however given,
        so the variant equals, hashes and prints as the built-in one."""
        v = Variant(
            "modern",
            [(3, 9), (5, 4)],
            {(4, 1): S, (6, None): S},
            alpha_bound=MODERN.alpha_bound,
        )
        assert v == MODERN and hash(v) == hash(MODERN)
        cells = (*v.optional_cells, *v.fixed_actions)
        assert all(type(cell) is InfoSet for cell in cells)
        assert [c.player_third for c in v.optional_cells] == [9, 4]
        assert list(map(str, v.optional_cells)) == list(map(str, MODERN.optional_cells))
        assert list(map(str, v.fixed_actions)) == list(map(str, MODERN.fixed_actions))
        for bad in ((8, 1), (3, 10), "(3,9)", [3, 9]):
            with pytest.raises(ValueError, match="not a Banker information set"):
                Variant("bad", [bad, (5, 4)], {(4, 1): S, (6, None): S})
        for bad in ((8, 1), (3, 10), "(3,9)", 3):
            with pytest.raises(ValueError, match="not a Banker information set"):
                Variant("bad", [(3, 9), (5, 4)], {bad: S, (6, None): S})

    @pytest.mark.parametrize("bad", ["D", "S", 42, None, True], ids=repr)
    def test_a_mandate_must_be_an_action(self, bad):
        """A mandate that is not an Action is refused by name, as in a
        Banker strategy, not read as stand by the engine."""
        refused = pytest.raises(ValueError, match=re.escape(f"not an Action: {bad!r}"))
        with refused:
            Variant("v", [(3, 9), (5, 4)], {(4, 1): bad, (6, None): S})
        with refused:
            Variant("v", [(3, 9), (5, 4)], {(4, 1): S, (6, None): bad})
        with refused:
            BankerStrategy((S,) * 87 + (bad,))

    def test_custom_variant_must_partition_starred_cells(self):
        v = Variant(
            "house",
            optional_cells=(InfoSet(6, None),),
            fixed_actions={InfoSet(3, 9): D, InfoSet(4, 1): S, InfoSet(5, 4): D},
        )
        assert v.optional_cells == (InfoSet(6, None),)
        with pytest.raises(ValueError):
            Variant("bad", optional_cells=(), fixed_actions={})
        with pytest.raises(ValueError):
            Variant(
                "overlap",
                optional_cells=STARRED_CELLS,
                fixed_actions={InfoSet(3, 9): D},
            )


class TestBankerStrategy:
    def test_from_assignment_fills_tableau(self):
        strat = BankerStrategy.from_assignment(
            {InfoSet(3, 9): D, InfoSet(4, 1): S, InfoSet(5, 4): D, InfoSet(6, None): S}
        )
        assert strat[InfoSet(3, 9)] is D
        assert strat[InfoSet(6, None)] is S
        assert strat[InfoSet(0, 4)] is D  # determined by the table
        assert strat[InfoSet(7, 0)] is S

    def test_from_assignment_requires_exact_cover(self):
        with pytest.raises(ValueError):
            BankerStrategy.from_assignment({InfoSet(3, 9): D})
        with pytest.raises(ValueError):
            BankerStrategy.from_assignment(
                {
                    InfoSet(3, 9): D,
                    InfoSet(4, 1): S,
                    InfoSet(5, 4): D,
                    InfoSet(6, None): S,
                    InfoSet(0, 0): D,
                }
            )

    def test_variant_mandates_are_enforced(self):
        with pytest.raises(ValueError):
            BankerStrategy.from_assignment(
                {
                    InfoSet(3, 9): D,
                    InfoSet(4, 1): D,  # modern law says stand here
                    InfoSet(5, 4): D,
                    InfoSet(6, None): S,
                },
                variant=MODERN,
            )
        strat = BankerStrategy.from_assignment(
            {InfoSet(3, 9): D, InfoSet(5, 4): D}, variant=MODERN
        )
        assert strat[InfoSet(4, 1)] is S
        assert strat[InfoSet(6, None)] is S

    @pytest.mark.parametrize("count", [0, 87, 89])
    def test_a_strategy_assigns_every_cell(self, count):
        with pytest.raises(ValueError, match=f"all 88 info sets, got {count}$"):
            BankerStrategy((S,) * count)

    def test_strategies_hash_by_content(self):
        a = BankerStrategy.from_assignment(
            {InfoSet(3, 9): D, InfoSet(5, 4): D}, variant=MODERN
        )
        b = BankerStrategy(a.actions)
        assert a == b and hash(a) == hash(b)

    def test_a_strategy_takes_no_label(self):
        with pytest.raises(TypeError):
            BankerStrategy((S,) * len(ALL_INFO_SETS), "x")
        with pytest.raises(TypeError):
            BankerStrategy.from_assignment(
                {InfoSet(3, 9): D, InfoSet(5, 4): D}, variant=MODERN, label="x"
            )


@pytest.mark.parametrize(
    "value",
    [
        Variant("v", STARRED_CELLS, {}),
        BankerStrategy((S,) * len(ALL_INFO_SETS)),
        MixedStrategy((Fraction(1, 2), Fraction(1, 2))),
    ],
    ids=type,
)
def test_checked_value_types_are_frozen(value):
    """Assigning, deleting or adding an attribute raises AttributeError,
    and the value is unchanged."""
    before = {name: getattr(value, name) for name in type(value).__slots__}
    for name in (*before, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(getattr(value, name) is held for name, held in before.items())


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(BankerStrategy((S,) * len(ALL_INFO_SETS)),
                     id="BankerStrategy"),
        pytest.param(MixedStrategy((Fraction(1, 3), Fraction(2, 3))), id="MixedStrategy"),
        pytest.param(PARLOR, id="parlor"),
        pytest.param(CLASSIC, id="classic"),
        pytest.param(MODERN, id="modern"),
        pytest.param(solve_variant(MODERN, Fraction(1, 20)), id="VariantSolution"),
    ],
)
def test_checked_value_types_copy_and_pickle(value):
    """Every slot comes back, the support included, and a
    variant's mandates come back read-only; a solution, which holds a
    variant, comes back equal field by field."""
    names = getattr(type(value), "__slots__", ()) or value._fields
    for twin in (
        copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    ):
        assert type(twin) is type(value)
        assert [getattr(twin, n) for n in names] == [getattr(value, n) for n in names]
        if isinstance(value, Variant):
            with pytest.raises(TypeError):
                twin.fixed_actions[InfoSet(3, 9)] = S


def test_a_strategy_holds_its_actions_as_a_tuple():
    """A list of actions is copied into a tuple: the strategy hashes, and
    a later change to the list does not reach it."""
    source = [S] * len(ALL_INFO_SETS)
    strat = BankerStrategy(source)
    assert type(strat.actions) is tuple
    assert hash(strat) == hash(BankerStrategy(tuple(source)))
    source[0] = "junk"
    assert strat.actions == (S,) * len(ALL_INFO_SETS)
    assert strat == BankerStrategy((S,) * len(ALL_INFO_SETS))


def test_checked_value_types_print_the_fields_they_compare():
    """A mix's support takes no part in equality, and is not shown."""
    assert repr(MixedStrategy(("1/3", "2/3"))) == (
        "MixedStrategy(weights=(Fraction(1, 3), Fraction(2, 3)))"
    )
    assert repr(PARLOR) == (
        f"Variant(name='parlor', optional_cells={STARRED_CELLS!r}, "
        "fixed_actions=mappingproxy({}), alpha_bound=Fraction(0, 1))"
    )
    stand = (S,) * len(ALL_INFO_SETS)
    assert repr(BankerStrategy(stand)) == f"BankerStrategy(actions={stand!r})"


def test_checked_value_types_keep_their_equality_and_hash():
    """A variant compares its mandates but does not hash them; a mix
    compares by weights alone."""
    house = Variant("v", [(6, None)], {(3, 9): D, (4, 1): S, (5, 4): D})
    other = Variant("v", [(6, None)], {(3, 9): D, (4, 1): S, (5, 4): S})
    assert house != other and hash(house) == hash(other)
    assert house == Variant("v", [(6, None)], {(5, 4): D, (4, 1): S, (3, 9): D})
    assert house != Variant("w", [(6, None)], {(3, 9): D, (4, 1): S, (5, 4): D})
    assert house != PARLOR and PARLOR != CLASSIC
    half = MixedStrategy((Fraction(1, 2), Fraction(1, 2)))
    assert half == MixedStrategy(("1/2", Fraction(2, 4))) and hash(half) == hash(
        MixedStrategy(("1/2", "1/2"))
    )
    assert half != MixedStrategy.pure(0, 2) and half != half.weights
    assert _MANDATED == BankerStrategy(_MANDATED.actions)
    assert _MANDATED != _MANDATED.actions


_MANDATED = BankerStrategy.from_assignment(
    {InfoSet(3, 9): D, InfoSet(5, 4): D}, variant=MODERN
)


class _Poisoned:
    """Strategy stand-in that must never be consulted."""

    def __getitem__(self, info):  # pragma: no cover - failure path
        raise AssertionError(f"strategy consulted at {info}")


class TestPlayCoup:
    def test_natural_ends_play_without_strategy(self):
        out = play_coup([4, 4], [1, 2], [9, 9], PlayerRow.STAND_ON_5, _Poisoned())
        assert out.natural
        assert out.player_total == 8 and out.banker_total == 3
        assert out.player_third is None and out.banker_third is None
        assert out.player_payoff == 1

    def test_banker_natural_also_skips_strategy(self):
        out = play_coup([1, 2], [9, 0], [5], PlayerRow.DRAW_ON_5, _Poisoned())
        assert out.natural and out.player_payoff == -1

    def test_draw_order_player_then_banker(self):
        # Player 2 draws a 9 (total 1); Banker 3 sees the 9 and draws a 7.
        strat = BankerStrategy.from_assignment(
            {InfoSet(3, 9): D, InfoSet(4, 1): S, InfoSet(5, 4): D, InfoSet(6, None): S}
        )
        out = play_coup([1, 1], [1, 2], [9, 7], PlayerRow.STAND_ON_5, strat)
        assert out.player_third == 9 and out.banker_third == 7
        assert out.player_total == 1 and out.banker_total == 0
        assert out.player_payoff == 1

    def test_banker_third_comes_first_when_player_stands(self):
        # Player stands on 6; Banker at 3 vs a stand draws the first card.
        out = play_coup([3, 3], [1, 2], [8], PlayerRow.STAND_ON_5, _MANDATED)
        assert out.player_third is None and out.banker_third == 8
        assert out.banker_total == 1

    def test_tie_pays_nobody(self):
        out = play_coup([3, 3], [3, 3], [], PlayerRow.STAND_ON_5, _MANDATED)
        assert out.player_payoff == 0

    def test_exhausted_draw_pile(self):
        with pytest.raises(ValueError):
            play_coup([1, 1], [1, 1], [], PlayerRow.STAND_ON_5, _MANDATED)
        with pytest.raises(ValueError):
            play_coup([1, 1], [1, 1], [9], PlayerRow.STAND_ON_5, _MANDATED)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            play_coup([1, 1, 1], [2, 2], [], PlayerRow.STAND_ON_5, _MANDATED)

    def test_a_coup_carries_no_commission(self):
        assert "alpha" not in inspect.signature(play_coup).parameters
        assert CoupOutcome._fields == (
            "player_total",
            "banker_total",
            "player_third",
            "banker_third",
            "natural",
            "player_payoff",
        )


def _with_card(position, card):
    """Player 2 draws a 3 and Banker 4 draws at (4, 3): all six cards are
    read, so a bad card in any position is seen."""
    hands = [[1, 1], [2, 2], [3, 3]]
    hands[position // 2][position % 2] = card
    return (*hands, PlayerRow.STAND_ON_5, _MANDATED)


_NOT_AN_INT = "card value must be an integer 0-9, got {!r}"
_OUT_OF_RANGE = "card value must be in 0..9, got {!r}"
_TWO_CARDS = "player_cards and banker_cards must each hold 2 cards"

# Every rejection of play_coup, with its exception type and exact message.
_REJECTIONS = [
    *(
        (f"card{pos}={card!r}", _with_card(pos, card), template.format(card))
        for pos in range(6)
        for card, template in (
            (True, _NOT_AN_INT),
            (False, _NOT_AN_INT),
            (1.0, _NOT_AN_INT),
            (-1, _OUT_OF_RANGE),
            (10, _OUT_OF_RANGE),
        )
    ),
    ("player-1", ([1], [2, 2], [3, 3], PlayerRow.STAND_ON_5, _MANDATED), _TWO_CARDS),
    ("player-3", ([1, 1, 1], [2, 2], [3], PlayerRow.STAND_ON_5, _MANDATED), _TWO_CARDS),
    ("banker-1", ([1, 1], [2], [3, 3], PlayerRow.STAND_ON_5, _MANDATED), _TWO_CARDS),
    ("banker-3", ([1, 1], [2, 2, 2], [3], PlayerRow.STAND_ON_5, _MANDATED), _TWO_CARDS),
    (
        "player-pile",
        ([1, 1], [1, 1], [], PlayerRow.STAND_ON_5, _MANDATED),
        "player draws but draw_cards is exhausted",
    ),
    (
        "banker-pile",
        ([1, 1], [1, 1], [9], PlayerRow.STAND_ON_5, _MANDATED),
        "banker draws but draw_cards is exhausted",
    ),
    (
        "banker-pile-after-a-stand",
        ([3, 3], [1, 2], [], PlayerRow.STAND_ON_5, _MANDATED),
        "banker draws but draw_cards is exhausted",
    ),
    (
        "row-str",
        ([1, 1], [2, 2], [3, 3], "StandOn5", _MANDATED),
        "row must be a PlayerRow, got 'StandOn5'",
    ),
    (
        "row-none",
        ([1, 1], [2, 2], [3, 3], None, _MANDATED),
        "row must be a PlayerRow, got None",
    ),
]


@pytest.mark.parametrize(
    "args, message",
    [case[1:] for case in _REJECTIONS],
    ids=[case[0] for case in _REJECTIONS],
)
def test_play_coup_rejections_keep_their_type_and_message(args, message):
    with pytest.raises(ValueError) as info:
        play_coup(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


_ALL_STAND = BankerStrategy((S,) * 88)
_ALL_DRAW = BankerStrategy((D,) * 88)


@pytest.mark.parametrize(
    "strategy",
    [_ALL_STAND, _ALL_DRAW, mandated_banker_strategy()],
    ids=["all-stand", "all-draw", "punto"],
)
def test_the_core_is_play_coup_unchecked(strategy):
    """On every (row, two-card totals, third cards), the unchecked rules
    return play_coup's outcome as a plain tuple, field by field."""
    for row, pt, bt, c4, c5 in itertools.product(PlayerRow, *[range(10)] * 4):
        core = _resolve_coup(pt, bt, _PLAYER_MOVES[row], (c4, c5), strategy.actions)
        coup = play_coup(((pt - c5) % 10, c5), (bt, 0), (c4, c5), row, strategy)
        assert type(core) is tuple
        assert [(type(v), v) for v in core] == [(type(v), v) for v in coup]


def test_play_coup_states_no_rule_of_its_own():
    """One statement of the rules behind both routes: play_coup checks its
    input and hands the coup to _resolve_coup; Player's moves are one
    table, which mandated_player_action reads too."""
    names = set(play_coup.__code__.co_names)
    assert {"_resolve_coup", "_PLAYER_MOVES"} <= names
    assert not names & {"mandated_player_action", "ALL_INFO_SETS", "_CELL_INDEX"}
    assert "_PLAYER_MOVES" in mandated_player_action.__code__.co_names


def test_a_natural_never_reads_the_row():
    out = play_coup([4, 4], [2, 2], [3, 3], "junk", _MANDATED)
    assert out.natural and out.player_payoff == 1


@given(
    cards=st.lists(st.integers(0, 9), min_size=6, max_size=6),
    row=st.sampled_from(PlayerRow),
    picks=st.tuples(*(st.sampled_from((S, D)) for _ in range(4))),
)
def test_every_coup_reports_consistent_fields(cards, row, picks):
    """Whatever the cards and strategy: totals are hand totals, a natural
    reads no third card, and Player's payoff is the sign of the totals."""
    strat = BankerStrategy.from_assignment(dict(zip(STARRED_CELLS, picks)))
    out = play_coup(cards[0:2], cards[2:4], cards[4:6], row, strat)
    assert 0 <= out.player_total <= 9 and 0 <= out.banker_total <= 9
    assert out.natural == (
        hand_total(cards[0:2]) >= 8 or hand_total(cards[2:4]) >= 8
    )
    if out.natural:
        assert out.player_third is None and out.banker_third is None
        assert out.player_total == hand_total(cards[0:2])
        assert out.banker_total == hand_total(cards[2:4])
    assert out.player_payoff == (
        (out.player_total > out.banker_total) - (out.player_total < out.banker_total)
    )


# ---------------------------------------------------------------------------
# The one gate for outside numbers: every public entry that reads a number
# converts it with rules._coerce_rational.
# ---------------------------------------------------------------------------


_B = ((0, 1), (1, 0))
_HALF = MixedStrategy((Fraction(1, 2), Fraction(1, 2)))
_REPORT = EquilibriumReport(_HALF, _HALF, 0, 0)
_MIX = {InfoSet(3, 9): 1, InfoSet(5, 4): 1}
_D5 = PlayerRow.DRAW_ON_5

#: Each public entry that reads an outside number, given ``x`` there.
_ENTRIES = {
    "MixedStrategy": lambda x: MixedStrategy((x, 1)),
    "eliminate_strictly_dominated": lambda x: eliminate_strictly_dominated(
        ((x, 0), (0, 1)), _B
    ),
    "enumerate_nash_2xn": lambda x: enumerate_nash_2xn(((x, 0), (0, 1)), _B),
    "is_nondegenerate": lambda x: is_nondegenerate(((x, 0), (0, 1)), _B),
    "verify_equilibrium": lambda x: verify_equilibrium(((x, 0), (0, 1)), _B, _REPORT),
    "best_response": lambda x: best_response("banker", (x, 1), CLASSIC, "1/20"),
    "unfulfilled_demand-stake": lambda x: unfulfilled_demand([x], 1),
    "unfulfilled_demand-offer": lambda x: unfulfilled_demand([1], x),
    "check_alpha": lambda x: CLASSIC.check_alpha(x),
    "simulate-alpha": lambda x: simulate(MODERN, _D5, _MIX, x, 10, 1),
    "simulate-row_mix": lambda x: simulate(MODERN, (x, 1), _MIX, 0, 10, 1),
    "simulate-draw_probability": lambda x: simulate(
        MODERN, _D5, {**_MIX, InfoSet(3, 9): x}, 0, 10, 1
    ),
    "find_alpha_star": lambda x: find_alpha_star(x),
}


@pytest.mark.parametrize("x", ["1e-2000000", Decimal("1e-2000000")], ids=type)
@pytest.mark.parametrize("entry", _ENTRIES)
def test_every_entry_refuses_an_overlong_number_at_once(entry, x):
    """A decimal too long to write out is refused before its power of
    ten is built, whether it comes as a string or as a Decimal."""
    build_reduced_game(CLASSIC, Fraction(1, 20))  # best_response builds it first
    _refused_at_once(lambda: _ENTRIES[entry](x), "digits and exponent")


@pytest.mark.parametrize("entry", _ENTRIES)
def test_every_entry_refuses_a_float(entry):
    with pytest.raises(TypeError, match="floats are rejected"):
        _ENTRIES[entry](0.5)
    with pytest.raises(TypeError, match="not a bool"):
        _ENTRIES[entry](True)


#: Each public call given a wrong kind of object where a variant, a
#: report or a solution belongs, and the named refusal it raises.
_WRONG_KINDS = {
    "build_reduced_game": (lambda: build_reduced_game("classic", 0),
                           "variant must be a Variant, not str"),
    "solve_variant": (lambda: solve_variant(None),
                      "variant must be a Variant, not NoneType"),
    "table_validity_bound": (lambda: table_validity_bound(None),
                             "variant must be a Variant, not NoneType"),
    "verify_equilibrium": (lambda: verify_equilibrium(((1, 0), (0, 1)), _B, None),
                           "report must be an EquilibriumReport, not NoneType"),
    "equilibrium_profile": (lambda: equilibrium_profile(None),
                            "sol must be a VariantSolution, not NoneType"),
}


@pytest.mark.parametrize("call", _WRONG_KINDS)
def test_a_wrong_kind_of_argument_is_a_type_error_that_names_it(call):
    make, message = _WRONG_KINDS[call]
    with pytest.raises(TypeError) as refused:
        make()
    assert str(refused.value) == message


def test_cell_keys_read_as_the_canonical_info_set():
    assert _info_set((True, 9.0)) is ALL_INFO_SETS[20]
    assert type(info_set_stats((3, 9), PlayerRow.DRAW_ON_5).info) is InfoSet
    for key in ((3, 10), [3, 9], "3,9", None):
        with pytest.raises(ValueError, match="not a Banker information set"):
            _info_set(key)


def _float_tests(tree):
    """The function of every ``isinstance(..., float)`` in a module,
    named by the outermost function or method holding it."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owner or node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "float" for k in names):
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_the_gate_tests_for_floats():
    """The float test exists once, in the gate."""
    holders = []
    for path in sorted(Path(baccarat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        holders += [f"{path.stem}.{name}" for name in _float_tests(tree)]
    assert holders == ["rules._coerce_rational"]


def test_every_module_parses_at_the_oldest_supported_python():
    """The package declares ``requires-python = ">=3.10"``: every module
    must parse with 3.10's grammar, whatever interpreter runs the tests."""
    pyproject = Path(baccarat.__file__).resolve().parents[2] / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text()
    for path in sorted(Path(baccarat.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))

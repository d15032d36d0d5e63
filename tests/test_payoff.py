"""Unit tests for the occurrence/conditional decomposition and the oracle."""

import inspect
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from baccarat import (
    ALL_INFO_SETS,
    BankerStrategy,
    CLASSIC,
    InfoSet,
    MODERN,
    PARLOR,
    Action,
    PlayerRow,
    STARRED_CELLS,
    best_response,
    build_reduced_game,
    classify_info_sets,
    mandated_banker_strategy,
    mandated_player_action,
    oracle_payoff_entry,
    play_coup,
    tableau_action,
)
import baccarat
from baccarat.payoff import (
    BestResponse,
    _NO_CELL,
    _NU,
    _PAIRS,
    _TAU,
    _W,
    _analytic_ledger,
    _column_counts,
    _entry_terms,
    _gain_table,
    _leaf_ledger,
    _leaf_sums,
    _oracle_counts,
    _player_final_totals,
    _outcome_table,
    natural_probability,
    oracle_outcome_distribution,
    two_card_total_distribution,
    value_distribution,
)
from baccarat.parametric import (
    _validity_bound,
    equilibrium_curve,
    solve_variant,
    table_validity_bound,
)
from baccarat import payoff
from baccarat.rules import Variant
from fraction_reference import (
    _cell_slot,
    fraction_cell_data,
    fraction_info_set_stats,
    fraction_natural_phase,
    fraction_reduced_game,
    info_set_stats,
)

F = Fraction
S5, D5 = PlayerRow.STAND_ON_5, PlayerRow.DRAW_ON_5


def test_value_distribution():
    nu = value_distribution()
    assert nu[0] == F(4, 13)
    assert all(nu[v] == F(1, 13) for v in range(1, 10))
    assert sum(nu.values()) == 1


def test_two_card_total_distribution():
    tau = two_card_total_distribution()
    assert tau[0] == F(25, 169)
    assert all(tau[t] == F(16, 169) for t in range(1, 10))
    assert sum(tau.values()) == 1


def test_the_card_counts_are_the_closed_forms_and_the_oracles_own():
    """nu and tau as counts out of 13 and 169, equal to the oracle's
    separately written ``_W`` and ``_PAIRS``."""
    assert _NU == (4, 1, 1, 1, 1, 1, 1, 1, 1, 1) == _W
    assert _TAU == (25, 16, 16, 16, 16, 16, 16, 16, 16, 16) == _PAIRS
    assert sum(_NU) == 13 and sum(_TAU) == 169


def test_the_fraction_laws_are_fresh_read_only_views_of_the_counts():
    for law, counts, total in (
        (value_distribution, _NU, 13),
        (two_card_total_distribution, _TAU, 169),
    ):
        first = law()
        with pytest.raises(TypeError):
            first[0] = F(0)
        assert dict(first) == {k: F(n, total) for k, n in enumerate(counts)}
        assert law() is not first and law() == first


def test_the_card_laws_and_the_classification_are_read_only():
    for law in (value_distribution(), two_card_total_distribution()):
        with pytest.raises(TypeError):
            law[0] = F(5, 13)
    with pytest.raises(TypeError):
        classify_info_sets(0).determined[InfoSet(0, 0)] = Action.STAND


def test_a_mutated_card_law_cannot_reach_the_first_solve():
    """In a fresh interpreter, before any cache is filled, writing to
    either law raises, and the solve is unchanged."""
    code = (
        "from fractions import Fraction\n"
        "from baccarat import CLASSIC, solve_variant\n"
        "from baccarat.payoff import value_distribution, two_card_total_distribution\n"
        "for law, key, value in ((value_distribution(), 0, Fraction(5, 13)),\n"
        "                        (value_distribution(), 9, 0),\n"
        "                        (two_card_total_distribution(), 0, 0)):\n"
        "    try:\n"
        "        law[key] = value\n"
        "    except TypeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit('a card law took a write')\n"
        "print(solve_variant(CLASSIC, Fraction(1, 20)).player_value)\n"
    )
    src = str(Path(baccarat.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-679568/53094899"


def test_natural_probability():
    # 1 - (137/169)^2: at least one side holds an 8 or 9 on two cards.
    assert natural_probability() == 1 - F(137, 169) ** 2
    assert natural_probability() == F(9792, 28561)


class TestInfoSetStats:
    def test_occurrence_of_stood_pat_cells(self):
        # Banker 6, Player stands: 48/169 stand totals vs 32/169 by row.
        assert info_set_stats(InfoSet(6, None), S5).occurrence == F(768, 28561)
        assert info_set_stats(InfoSet(6, None), D5).occurrence == F(512, 28561)

    def test_occurrences_partition_the_non_natural_mass(self):
        for row in (S5, D5):
            total = sum(
                info_set_stats(InfoSet(b, c), row).occurrence
                for b in range(8)
                for c in (*range(10), None)
            )
            assert total == F(137, 169) ** 2

    def test_improvement_is_affine_in_alpha(self):
        info = InfoSet(5, 4)
        for row in (S5, D5):
            f0 = info_set_stats(info, row, 0).improvement
            f1 = info_set_stats(info, row, F(1, 30)).improvement
            f2 = info_set_stats(info, row, F(1, 15)).improvement
            assert f2 - f1 == f1 - f0  # equal steps, equal increments

    def test_known_improvements(self):
        assert info_set_stats(InfoSet(6, None), D5, 0).improvement == F(1, 13)
        assert info_set_stats(InfoSet(6, None), D5, F(1, 20)).improvement == F(7, 104)
        assert info_set_stats(InfoSet(4, 1), D5, F(1, 20)).improvement == F(1, 390)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            info_set_stats(InfoSet(6, None), D5, 0.05)

    @pytest.mark.parametrize("row", ["DrawOn5", 1], ids=["string", "int"])
    def test_row_must_be_a_player_row(self, row):
        with pytest.raises(ValueError, match="row must be a PlayerRow, got"):
            info_set_stats(InfoSet(6, None), row)

    def test_bad_rows_add_no_cache_keys(self):
        for bad in range(1000):
            with pytest.raises(ValueError):
                info_set_stats(InfoSet(6, None), bad)
        assert _analytic_ledger.cache_info().currsize <= 1

    @pytest.mark.parametrize(
        "alpha", [F(0), F(1, 100), F(1, 20), F(33, 500), F(1, 3)]
    )
    def test_stats_equal_the_fraction_route(self, alpha):
        """All 176 (cell, row) pairs, read off the ledger and summed in
        fractions."""
        for info in ALL_INFO_SETS:
            for row in (S5, D5):
                stats = info_set_stats(info, row, alpha)
                assert (stats.occurrence, stats.e_stand, stats.e_draw) == (
                    fraction_info_set_stats(info, row, alpha)
                ), (info, row)

    def test_gain_table_is_read_off_the_triples(self):
        """Each (c, s) of the gain table against the stats: drawing's gain
        is (c - alpha * s) over the cell's count of deals."""
        for r, row in enumerate((S5, D5)):
            for info, (c, s) in zip(ALL_INFO_SETS, _gain_table()[r]):
                for a in (F(0), F(1, 2)):
                    stats = info_set_stats(info, row, a)
                    total = stats.occurrence * 13**6
                    assert (c - a * s) / total == stats.improvement, (info, row, a)


class TestClassification:
    def test_agrees_at_zero(self):
        cls = classify_info_sets()
        assert cls.agrees_with_tableau
        assert set(cls.starred) == set(STARRED_CELLS)
        assert cls.determined[InfoSet(0, 0)] is Action.DRAW
        assert cls.determined[InfoSet(7, 3)] is Action.STAND

    def test_determined_means_better_under_both_rows(self):
        cls = classify_info_sets(F(1, 20))
        for info, action in cls.determined.items():
            for row in (S5, D5):
                imp = info_set_stats(info, row, F(1, 20)).improvement
                assert (imp > 0) == (action is Action.DRAW), (info, row)

    def test_starred_cells_split_by_row(self):
        # A starred cell's draw edge must point in different directions
        # (or vanish) across the two rows -- that is what makes it strategic.
        cls = classify_info_sets()
        for info in cls.starred:
            signs = {
                info_set_stats(info, row, 0).improvement > 0 for row in (S5, D5)
            }
            zero = any(
                info_set_stats(info, row, 0).improvement == 0 for row in (S5, D5)
            )
            assert len(signs) == 2 or zero, info


class TestReducedGame:
    def test_full_game_shape(self):
        game = build_reduced_game(CLASSIC)
        assert game.row_labels == (S5, D5)
        assert len(game.column_labels) == 16
        assert game.column_labels[0] == "SSSS"
        assert game.column_labels[-1] == "DDDD"
        assert len(game.A) == 2 and len(game.A[0]) == 16

    def test_modern_game_shape(self):
        game = build_reduced_game(MODERN, F(1, 20))
        assert game.column_labels == ("SS", "SD", "DS", "DD")

    def test_zero_sum_at_zero_commission(self):
        game = build_reduced_game(PARLOR)
        for r in range(2):
            for j in range(16):
                assert game.B[r][j] == -game.A[r][j]

    def test_zero_sum_matrix_ignores_commission(self):
        g0 = build_reduced_game(CLASSIC, 0)
        g1 = build_reduced_game(CLASSIC, F(1, 20))
        assert g0.A == g1.A
        assert g0.B != g1.B

    def test_columns_match_their_labels(self):
        game = build_reduced_game(CLASSIC)
        j = game.column_labels.index("DSDS")
        assert game.columns[j] == (
            Action.DRAW,
            Action.STAND,
            Action.DRAW,
            Action.STAND,
        )
        assignment = game.column_assignment(j)
        assert assignment[InfoSet(3, 9)] is Action.DRAW
        assert assignment[InfoSet(6, None)] is Action.STAND

    def test_column_strategy_extends_by_tableau(self):
        game = build_reduced_game(CLASSIC)
        strat = game.banker_strategy(game.column_labels.index("DDDD"))
        for cell in STARRED_CELLS:
            assert strat[cell] is Action.DRAW
        for b in range(8):
            for c in (*range(10), None):
                info = InfoSet(b, c)
                fixed = tableau_action(info)
                if fixed is not None:
                    assert strat[info] is fixed

    def test_bound_enforcement(self):
        with pytest.raises(ValueError):
            build_reduced_game(CLASSIC, F(1, 10))
        # Past the bound, the same structure with a wider bound builds it.
        wide = Variant("wide", CLASSIC.optional_cells, {}, alpha_bound=1)
        game = build_reduced_game(wide, F(1, 10))
        assert len(game.column_labels) == 16
        # A is alpha-free and B affine in alpha: B(1/10) = 2 B(1/20) - B(0).
        at_0 = build_reduced_game(CLASSIC, 0)
        at_20 = build_reduced_game(CLASSIC, F(1, 20))
        assert game.A == at_0.A
        assert game.B == tuple(
            tuple(2 * x - y for x, y in zip(r20, r0))
            for r20, r0 in zip(at_20.B, at_0.B)
        )

    @pytest.mark.parametrize(
        "variant, alpha",
        [
            (PARLOR, F(0)),
            (CLASSIC, F(0)),
            (CLASSIC, F(1, 100)),
            (CLASSIC, F(1, 20)),
            (CLASSIC, F(33, 500)),
            (MODERN, F(0)),
            (MODERN, F(1, 20)),
            (MODERN, F(1, 3)),
            (MODERN, F(39, 100)),
            (Variant("wide", STARRED_CELLS, {}), F(9, 10)),
        ],
    )
    def test_equals_the_fraction_build(self, variant, alpha):
        """Summed slots against the fixed-part-plus-options build in
        fractions."""
        game = build_reduced_game(variant, alpha)
        assert (game.A, game.B) == fraction_reduced_game(variant, alpha)


def test_oracle_agrees_on_spot_entries():
    """Two independently computed payoffs for the same pure profiles."""
    game = build_reduced_game(MODERN, F(1, 30))
    for label in ("SS", "DD"):
        j = game.column_labels.index(label)
        strat = game.banker_strategy(j)
        for r, row in enumerate(game.row_labels):
            pe, be = oracle_payoff_entry(row, strat, F(1, 30))
            assert pe == game.A[r][j]
            assert be == game.B[r][j]


@pytest.mark.parametrize(
    "alpha, error",
    [(5, ValueError), (-1, ValueError), (F(3, 2), ValueError), (0.05, TypeError)],
)
def test_oracle_entry_rejects_bad_alpha(alpha, error):
    with pytest.raises(error):
        oracle_payoff_entry(D5, mandated_banker_strategy(), alpha)


def test_oracle_distribution_is_a_distribution():
    pw, bw, tie = oracle_outcome_distribution(D5, mandated_banker_strategy())
    assert pw + bw + tie == 1
    assert 0 < pw < bw < 1  # the drawing game favors Banker's side


@pytest.mark.parametrize(
    "row, counts",
    [(D5, (2153464, 2212744, 460601)), (S5, (2154360, 2227384, 445065))],
)
def test_oracle_counts_for_the_fixed_rules(row, counts):
    """Player-win / Banker-win / tie counts out of 13^6, exactly."""
    dist = oracle_outcome_distribution(row, mandated_banker_strategy())
    assert tuple(x * 13**6 for x in dist) == counts


@pytest.mark.parametrize("cached", [_validity_bound, _analytic_ledger, _column_counts])
def test_caches_keyed_on_user_input_are_bounded(cached):
    assert cached.cache_info().maxsize is not None


def test_variants_of_one_structure_share_their_column_counts():
    """Parlor and classic differ only in name and commission bound, so
    the second solve reads the alpha-free counts the first one summed."""
    _column_counts.cache_clear()
    solve_variant(PARLOR)
    solve_variant(CLASSIC, F(1, 20))
    info = _column_counts.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_oracle_rejects_a_row_that_is_not_a_player_row():
    with pytest.raises(ValueError, match="row must be a PlayerRow"):
        oracle_outcome_distribution("DrawOn5", mandated_banker_strategy())
    # Nor a strategy that only looks like one: each of these used to be
    # read silently wrong, or failed on a missing attribute.
    actions = mandated_banker_strategy().actions
    for strategy in (
        types.SimpleNamespace(actions=actions[:3]),
        types.SimpleNamespace(actions=("D",) * len(ALL_INFO_SETS)),
        list(actions),
    ):
        with pytest.raises(TypeError, match="strategy must be a BankerStrategy"):
            oracle_outcome_distribution(D5, strategy)
        with pytest.raises(TypeError, match="strategy must be a BankerStrategy"):
            oracle_payoff_entry(D5, strategy, F(1, 20))


# ---------------------------------------------------------------------------
# The ledger oracle against the walk over two-card totals it replaced, and
# the independence of its builders from the decomposition.
# ---------------------------------------------------------------------------

_CARD_W = tuple(4 if v == 0 else 1 for v in range(10))
_TOTAL_PAIRS = tuple(
    sum(_CARD_W[a] * _CARD_W[(t - a) % 10] for a in range(10)) for t in range(10)
)


def _walk_outcome_distribution(row, strategy):
    """The per-profile walk over pairs of two-card totals, as a reference."""
    win = loss = 0
    for pt in range(10):
        for bt in range(10):
            if pt >= 8 or bt >= 8:
                leaves = [((), 169)]
            elif mandated_player_action(pt, row) is Action.DRAW:
                leaves = []
                for p3 in range(10):
                    if strategy[InfoSet(bt, p3)] is Action.DRAW:
                        leaves += [
                            ((p3, b3), _CARD_W[p3] * _CARD_W[b3]) for b3 in range(10)
                        ]
                    else:
                        leaves.append(((p3,), _CARD_W[p3] * 13))
            elif strategy[InfoSet(bt, None)] is Action.DRAW:
                leaves = [((b3,), 13 * _CARD_W[b3]) for b3 in range(10)]
            else:
                leaves = [((), 169)]
            w0 = _TOTAL_PAIRS[pt] * _TOTAL_PAIRS[bt]
            for draws, weight in leaves:
                sign = play_coup((0, pt), (0, bt), draws, row, strategy).player_payoff
                if sign > 0:
                    win += w0 * weight
                elif sign < 0:
                    loss += w0 * weight
    p_win, p_loss = F(win, 13**6), F(loss, 13**6)
    return p_win, p_loss, 1 - p_win - p_loss


_STRATEGIES = st.lists(
    st.sampled_from(Action), min_size=len(ALL_INFO_SETS), max_size=len(ALL_INFO_SETS)
).map(lambda actions: BankerStrategy(tuple(actions)))


@settings(max_examples=40, deadline=None)
@given(_STRATEGIES)
def test_ledger_oracle_equals_the_walk_over_totals(strategy):
    """Any 88-cell Banker strategy, deviating at determined cells too."""
    for row in (S5, D5):
        assert oracle_outcome_distribution(row, strategy) == (
            _walk_outcome_distribution(row, strategy)
        )


@settings(max_examples=40, deadline=None)
@given(
    _STRATEGIES,
    st.sampled_from((S5, D5)),
    st.fractions(min_value=0, max_value=1).filter(lambda a: a < 1),
)
def test_oracle_entry_conserves_money(strategy, row, alpha):
    """The commission is applied once, to the oracle's probabilities: Player,
    Banker and the house's alpha on each Banker win sum to zero."""
    player, banker = oracle_payoff_entry(row, strategy, alpha)
    _p_win, p_banker_wins, _tie = oracle_outcome_distribution(row, strategy)
    assert player + banker + alpha * p_banker_wins == 0


@seed(2037)
@settings(max_examples=60, deadline=None, database=None)
@given(
    _STRATEGIES,
    st.sampled_from((S5, D5)),
    st.fractions(min_value=0, max_value=1).filter(lambda a: a < 1),
)
def test_oracle_counts_are_the_leaf_ledger_summed_slot_by_slot(strategy, row, alpha):
    """The integer sums equal the fold of the chosen slots, and the entry
    equals the payoffs computed from the outcome distribution."""
    slots = _leaf_ledger()[(S5, D5).index(row)]
    chosen = (slot[action is Action.DRAW] for slot, action in zip(slots, strategy.actions))
    counts = tuple(map(sum, zip(slots[_NO_CELL][0], *chosen)))
    assert _oracle_counts(row, strategy) == counts
    p_win, p_loss, _tie = oracle_outcome_distribution(row, strategy)
    entry = oracle_payoff_entry(row, strategy, alpha)
    assert entry == (p_win - p_loss, (1 - alpha) * p_loss - p_win)
    assert all(type(value) is F for value in entry)


def _names_in(code):
    """Every global or attribute name a code object and its nested code use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_in(const)
    return names


#: The private helpers through which a builder reaches its source, in
#: the order each calls the next.
_ORACLE_CHAINS = {
    "oracle_outcome_distribution": (_oracle_counts, _leaf_sums),
    "oracle_payoff_entry": (_oracle_counts, _leaf_sums),
}
#: The helpers a builder calls off its chain, which must name none of
#: the decomposition either.
_ORACLE_SIDE_HELPERS = {"oracle_payoff_entry": (_entry_terms,)}


@pytest.mark.parametrize(
    "builder, source",
    [
        (_outcome_table, "_resolve_coup"),
        (_leaf_ledger, "_outcome_table"),
        (oracle_outcome_distribution, "_leaf_ledger"),
        (oracle_payoff_entry, "_leaf_ledger"),
    ],
)
def test_oracle_builders_never_read_the_decomposition(builder, source):
    """Nor a second copy of the rules: which third cards a coup read, and
    where Banker decided, come from the outcome of the rules play_coup
    checks its input for.  Every link of a builder's chain names the next
    and none of the decomposition."""
    forbidden = {
        "_analytic_ledger",
        "_cell_slot",
        "_NU",
        "_TAU",
        "_player_final_totals",
        "value_distribution",
        "two_card_total_distribution",
        "mandated_player_action",
        "tableau_action",
        "_TABLEAU_ROWS",
        "hand_total",
        "is_natural",
    }
    chain = (builder, *_ORACLE_CHAINS.get(builder.__name__, ()))
    for link, target in zip(chain, [*(f.__name__ for f in chain[1:]), source]):
        names = _names_in(getattr(link, "__wrapped__", link).__code__)
        assert target in names, link.__name__
        assert not names & forbidden, link.__name__
    for helper in _ORACLE_SIDE_HELPERS.get(builder.__name__, ()):
        assert helper.__name__ in _names_in(builder.__code__)
        assert not _names_in(helper.__code__) & forbidden, helper.__name__


# ---------------------------------------------------------------------------
# The decomposition's integer tallies against the fraction arithmetic they
# replaced, and their independence from the oracle.
# ---------------------------------------------------------------------------


def test_integer_cell_data_equals_the_fraction_sums():
    """The analytic ledger's slots, as the oracle's are checked in [10]."""
    for row, slots in zip((S5, D5), _analytic_ledger()):
        for info, cell_slots in zip(ALL_INFO_SETS, slots):
            occurrence, *triples = fraction_cell_data(info, row)
            for (loss, tie, win), (bw, pw, t) in zip(cell_slots, triples):
                assert F(loss, 13**6) == occurrence * bw, (row, info)
                assert F(win, 13**6) == occurrence * pw, (row, info)
                assert F(tie, 13**6) == occurrence * t, (row, info)
        for loss, tie, win in slots[_NO_CELL]:
            assert (F(loss, 13**6), F(win, 13**6), F(tie, 13**6)) == (
                fraction_natural_phase()
            )


@pytest.mark.parametrize(
    "function",
    [
        _analytic_ledger,
        _player_final_totals,
        _cell_slot,
        _gain_table,
        _column_counts,
        info_set_stats,
        classify_info_sets,
        build_reduced_game,
    ],
)
def test_decomposition_never_reads_the_oracle(function):
    names = _names_in(getattr(function, "__wrapped__", function).__code__)
    forbidden = {"_W", "_PAIRS", "_outcome_table", "_leaf_ledger", "play_coup"}
    assert not names & forbidden


@pytest.mark.parametrize(
    "function",
    [Variant.check_alpha, equilibrium_curve, table_validity_bound, build_reduced_game],
)
def test_variant_behaviour_never_reads_a_variant_name(function):
    """Variants differ by structure only: no rule dispatches on which
    built-in variant it was handed."""
    assert not _names_in(function.__code__) & {"PARLOR", "CLASSIC"}


def test_reduced_game_has_no_bound_override():
    assert "enforce_bound" not in inspect.signature(build_reduced_game).parameters


@st.composite
def _custom_games(draw):
    optional = [c for c in STARRED_CELLS if draw(st.booleans())]
    fixed = {
        c: draw(st.sampled_from(Action)) for c in STARRED_CELLS if c not in optional
    }
    alpha = draw(
        st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
            lambda a: a < 1
        )
    )
    return Variant("drawn", optional, fixed), alpha


@settings(max_examples=50, deadline=None)
@given(_custom_games())
def test_oracle_agrees_on_custom_variants(variant_and_alpha):
    """Every reduced-game entry of a drawn variant equals the oracle's."""
    variant, alpha = variant_and_alpha
    game = build_reduced_game(variant, alpha)
    for j in range(len(game.column_labels)):
        strategy = game.banker_strategy(j)
        for r, row in enumerate(game.row_labels):
            assert oracle_payoff_entry(row, strategy, alpha) == (
                game.A[r][j],
                game.B[r][j],
            )


class TestBestResponse:
    def test_banker_ties_at_equilibrium_row_mix(self):
        # At Player's classic equilibrium mix, the (6,-) cell is exactly
        # indifferent; the tie must be reported, with stand as tiebreak.
        p = F(179, 214)
        br = best_response("banker", (1 - p, p), CLASSIC, F(1, 20))
        assert InfoSet(6, None) in br.ties
        assert br.actions[InfoSet(6, None)] is Action.STAND

    def test_player_response_to_all_stand(self):
        game = build_reduced_game(CLASSIC)
        j = game.column_labels.index("SSSS")
        weights = tuple(F(int(k == j)) for k in range(16))
        br = best_response("player", weights, CLASSIC)
        assert br.row is D5  # standing Banker is punished by drawing

    def test_role_and_mix_validation(self):
        with pytest.raises(ValueError):
            best_response("dealer", (1, 0), CLASSIC)
        with pytest.raises(ValueError):
            best_response("banker", (F(1, 2), F(1, 3)), CLASSIC)
        with pytest.raises(ValueError):
            best_response("banker", (F(1, 2), F(1, 2), 0), CLASSIC)

    def test_role_is_checked_before_the_game_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("built a game for a bad role")

        monkeypatch.setattr(payoff, "build_reduced_game", build)
        with pytest.raises(ValueError, match="role must be"):
            best_response("dealer", (1, 0), CLASSIC)

    def test_float_weights_rejected(self):
        with pytest.raises(TypeError):
            best_response("banker", (0.5, 0.5), CLASSIC, F(1, 20))
        with pytest.raises(TypeError):
            best_response("player", (1.0,) + (0,) * 15, CLASSIC)


def _per_cell_best_response(role, mix, variant, alpha):
    """Best replies by the per-cell route, as a reference: Banker draws at
    an optional cell when the mix-weighted occurrence times improvement,
    summed over the rows, is positive, and stands when it is not."""
    game = build_reduced_game(variant, alpha)
    if role == "player":
        per_row = [sum(w * game.A[r][j] for j, w in enumerate(mix)) for r in range(2)]
        best = max(per_row)
        winners = [r for r, v in enumerate(per_row) if v == best]
        return BestResponse(
            role=role,
            value=best,
            row=game.row_labels[winners[0]],
            ties=tuple(game.row_labels[r] for r in winners[1:]),
        )
    actions, ties = {}, []
    for info in variant.optional_cells:
        diff = F(0)
        for weight, row in zip(mix, game.row_labels):
            stats = info_set_stats(info, row, game.alpha)
            diff += weight * stats.occurrence * stats.improvement
        if diff == 0:
            ties.append(info)
        actions[info] = Action.DRAW if diff > 0 else Action.STAND
    j = game.columns.index(tuple(actions[c] for c in variant.optional_cells))
    value = sum(w * game.B[r][j] for r, w in enumerate(mix))
    return BestResponse(role=role, value=value, actions=actions, ties=tuple(ties))


@st.composite
def _reply_cases(draw):
    """A variant, a rate it accepts, a role and a random mix over the
    opponent's pure strategies."""
    variant = draw(st.sampled_from((PARLOR, CLASSIC, MODERN, None)))
    if variant is None:
        optional = [c for c in STARRED_CELLS if draw(st.booleans())]
        fixed = {
            c: draw(st.sampled_from(Action)) for c in STARRED_CELLS if c not in optional
        }
        variant = Variant("drawn", optional, fixed)
    bound = variant.alpha_bound
    alpha = F(0)
    if bound > 0:
        alpha = draw(
            st.fractions(min_value=0, max_value=bound, max_denominator=10**4).filter(
                lambda a: a < bound
            )
        )
    role = draw(st.sampled_from(("player", "banker")))
    n = 2 if role == "banker" else 2 ** len(variant.optional_cells)
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    return role, tuple(F(w, sum(weights)) for w in weights), variant, alpha


@seed(2013)
@settings(max_examples=200, deadline=None)
@given(_reply_cases())
def test_best_response_equals_the_per_cell_route(case):
    """Scoring the reduced game's rows or columns gives the per-cell
    route's reply, value and ties, stand breaking Banker's ties; against
    a built-in variant's equilibrium mix too, where the replies tie."""
    role, mix, variant, alpha = case
    mixes = [mix]
    if variant.name != "drawn":
        report = solve_variant(variant, alpha).report
        mixes.append(
            (report.row_strategy if role == "banker" else report.column_strategy).weights
        )
    for mix in mixes:
        assert best_response(role, mix, variant, alpha) == (
            _per_cell_best_response(role, mix, variant, alpha)
        )

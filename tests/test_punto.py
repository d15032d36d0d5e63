"""Unit tests for the fixed-rule game's probabilities, edges, and matching."""

from fractions import Fraction

import pytest

from baccarat import (
    Action,
    InfoSet,
    MODERN,
    mandated_banker_strategy,
    punto_report,
    solve_variant,
    tableau_action,
    unfulfilled_demand,
)

F = Fraction
D6 = 13**6


def test_outcome_probabilities():
    rep = punto_report()
    assert rep.P == F(2153464, D6)
    assert rep.B == F(2212744, D6)
    assert rep.T == F(460601, D6)
    assert rep.P + rep.B + rep.T == 1


def test_edges():
    rep = punto_report()
    assert rep.edge_player == rep.B - rep.P
    assert rep.edge_player == F(4560, 371293)
    assert rep.edge_banker == F(256786, 24134045)
    assert rep.edge_chemin == rep.edge_player + rep.edge_banker
    assert rep.edge_chemin == F(553186, 24134045)
    # Betting Banker gives up less than betting Player, commission and all.
    assert rep.edge_banker < rep.edge_player


def test_edge_banker_includes_the_commission():
    rep = punto_report()
    a = F(1, 20)
    assert rep.edge_banker == rep.P - (1 - a) * rep.B


def test_fixed_rules_mirror_the_strategic_solution():
    """The house's fixed drawing rule is the solved constrained optimum."""
    rep = punto_report()
    sol = solve_variant(MODERN, F(1, 20))
    assert rep.edge_player == -sol.player_value
    assert rep.edge_banker == -sol.banker_value


def test_mandated_strategy_contents():
    strat = mandated_banker_strategy()
    assert strat[InfoSet(3, 9)] is Action.DRAW
    assert strat[InfoSet(5, 4)] is Action.DRAW
    assert strat[InfoSet(4, 1)] is Action.STAND
    assert strat[InfoSet(6, None)] is Action.STAND
    for b in range(8):
        for c in (*range(10), None):
            fixed = tableau_action(InfoSet(b, c))
            if fixed is not None:
                assert strat[InfoSet(b, c)] is fixed


class TestUnfulfilledDemand:
    def test_shortfall(self):
        matched, unmet = unfulfilled_demand([1, 1], 10)
        assert (matched, unmet) == (2, 8)

    def test_excess(self):
        matched, unmet = unfulfilled_demand([5, 4, 3], 6)
        assert (matched, unmet) == (6, 6)

    def test_exact_match(self):
        matched, unmet = unfulfilled_demand([F(1, 2), F(3, 2)], 2)
        assert (matched, unmet) == (2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            unfulfilled_demand([], 5)
        with pytest.raises(ValueError):
            unfulfilled_demand([1, 0], 5)
        with pytest.raises(ValueError):
            unfulfilled_demand([1], 0)
        with pytest.raises(TypeError):
            unfulfilled_demand([1.5], 5)
        with pytest.raises(TypeError):
            unfulfilled_demand([1], 5.0)

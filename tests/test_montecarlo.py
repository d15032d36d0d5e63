"""Unit tests for the seeded simulator and its equilibrium adapters."""

from fractions import Fraction

import pytest

from baccarat import (
    Action,
    InfoSet,
    MODERN,
    PARLOR,
    PlayerRow,
    MixedStrategy,
    derive_batch_seed,
    equilibrium_profile,
    mandated_banker_strategy,
    simulate,
    solve_variant,
)

F = Fraction
A = F(1, 20)


def run_modern(n, seed, mix=None, row=PlayerRow.DRAW_ON_5):
    banker = mix if mix is not None else mandated_banker_strategy()
    return simulate(MODERN, row, banker, A, n, seed)


def test_same_seed_same_everything():
    a = run_modern(20000, 42)
    b = run_modern(20000, 42)
    assert a == b


def test_different_seeds_differ():
    assert run_modern(20000, 1) != run_modern(20000, 2)


def test_counts_and_means_are_consistent():
    r = run_modern(30000, 7)
    n = r.n_hands
    assert r.wins + r.losses + r.ties == n == 30000
    assert r.mean_player == (r.wins - r.losses) / n
    assert r.mean_banker == float((F(19, 20) * r.losses - r.wins) / n)
    assert r.seed == 7
    assert r.rng == "python-random-mt19937"
    assert r.variant == "modern"
    assert r.alpha == A


def test_stream_layout_is_frozen():
    """Eight variates per hand, in a fixed order: these exact counts
    must never change for a given seed, or reproducibility is lost."""
    r = run_modern(2000, 123, mix=equilibrium_profile(MODERN, A)[1])
    assert (r.wins, r.losses, r.ties) == (902, 918, 180)


def test_pure_strategy_and_trivial_mix_agree():
    as_mix = {InfoSet(3, 9): 1, InfoSet(5, 4): 1}
    a = run_modern(5000, 11)
    b = run_modern(5000, 11, mix=as_mix)
    assert a == b


def test_row_argument_forms_agree():
    strat = mandated_banker_strategy()
    by_enum = simulate(MODERN, PlayerRow.DRAW_ON_5, strat, A, 5000, 3)
    by_weights = simulate(MODERN, (0, 1), strat, A, 5000, 3)
    by_mix = simulate(MODERN, MixedStrategy((F(0), F(1))), strat, A, 5000, 3)
    assert by_enum == by_weights == by_mix


def test_close_to_exact_value_at_moderate_size():
    sol = solve_variant(MODERN, A)
    r = run_modern(200_000, 20240823, mix=equilibrium_profile(MODERN, A)[1])
    assert abs(r.mean_player - float(sol.player_value)) < 5 * r.std_error
    assert abs(r.mean_banker - float(sol.banker_value)) < 5 * r.std_error_banker


def test_variant_mandates_bind_the_simulator():
    with pytest.raises(ValueError):
        simulate(
            MODERN,
            PlayerRow.DRAW_ON_5,
            {InfoSet(4, 1): Action.DRAW},  # law says stand
            A,
            100,
            1,
        )


def test_probability_validation():
    with pytest.raises(ValueError):
        run_modern(100, 1, mix={InfoSet(3, 9): F(3, 2)})
    with pytest.raises(TypeError):
        run_modern(100, 1, mix={InfoSet(3, 9): 0.5})


def test_tableau_cells_may_deviate():
    """Off-table experiments are allowed at cells the law leaves alone."""
    deviant = {InfoSet(3, 9): 1, InfoSet(5, 4): 1, InfoSet(7, 7): Action.DRAW}
    r = simulate(MODERN, PlayerRow.DRAW_ON_5, deviant, A, 5000, 5)
    base = run_modern(5000, 5)
    assert r != base  # the deviation shows up in play
    assert r.n_hands == base.n_hands


def test_bad_hand_counts():
    with pytest.raises(ValueError):
        run_modern(0, 1)
    with pytest.raises(ValueError):
        run_modern(-5, 1)
    with pytest.raises(ValueError):
        run_modern(10**7 + 1, 1)
    with pytest.raises(ValueError):
        run_modern(F(1, 2), 1)


def test_float_alpha_rejected():
    with pytest.raises(TypeError):
        simulate(MODERN, PlayerRow.DRAW_ON_5, mandated_banker_strategy(), 0.05, 10, 1)


def test_equilibrium_profiles():
    row, mix = equilibrium_profile(PARLOR)
    assert row.weights == (F(2, 11), F(9, 11))
    assert mix == {
        InfoSet(3, 9): 1,
        InfoSet(4, 1): 0,
        InfoSet(5, 4): 1,
        InfoSet(6, None): F(859, 2288),
    }
    row_m, mix_m = equilibrium_profile(MODERN, A)
    assert row_m.weights == (F(0), F(1))
    assert mix_m == {InfoSet(3, 9): 1, InfoSet(5, 4): 1}


def test_equilibrium_profile_of_a_solution():
    """A solution already at hand gives the same profile, with no solve."""
    assert equilibrium_profile(solve_variant(MODERN, A)) == equilibrium_profile(
        MODERN, A
    )


def test_batch_seeds_are_stable_and_distinct():
    assert derive_batch_seed(20240817, 0) == 12608409738939176769
    seeds = {derive_batch_seed(99, i) for i in range(50)}
    assert len(seeds) == 50

"""Unit tests for the seeded simulator and its equilibrium adapters."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil, sqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import baccarat
from baccarat import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    CLASSIC,
    InfoSet,
    MODERN,
    PARLOR,
    PlayerRow,
    MixedStrategy,
    SimResult,
    derive_batch_seed,
    equilibrium_profile,
    mandated_banker_strategy,
    mandated_player_action,
    play_coup,
    simulate,
    solve_variant,
)
from baccarat import montecarlo

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


# ---------------------------------------------------------------------------
# The outcome table against play_coup, and the table-driven loop against
# the per-hand play_coup loop it replaced.
# ---------------------------------------------------------------------------


def test_outcome_table_matches_play_coup():
    """Every entry equals play_coup for both Banker actions.

    The hands here are ``(x, pt - x)`` rather than the builder's
    ``(0, pt)``, so the test also checks that only totals matter.
    """
    cells, stand_signs, draw_signs = montecarlo._outcome_table()
    assert len(cells) == len(stand_signs) == len(draw_signs) == 20000
    all_stand = BankerStrategy((Action.STAND,) * 88)
    all_draw = BankerStrategy((Action.DRAW,) * 88)
    for r, row in enumerate((PlayerRow.STAND_ON_5, PlayerRow.DRAW_ON_5)):
        for pt in range(10):
            for bt in range(10):
                for c4 in range(10):
                    for c5 in range(10):
                        key = r * 10000 + pt * 1000 + bt * 100 + c4 * 10 + c5
                        x = (c4 + c5) % 10
                        hands = ((x, (pt - x) % 10), ((bt - x) % 10, x), (c4, c5))
                        if pt >= 8 or bt >= 8:
                            cell = 88
                        elif mandated_player_action(pt, row) is Action.DRAW:
                            cell = ALL_INFO_SETS.index(InfoSet(bt, c4))
                        else:
                            cell = ALL_INFO_SETS.index(InfoSet(bt, None))
                        stood = play_coup(*hands, row, all_stand)
                        drew = play_coup(*hands, row, all_draw)
                        assert cells[key] == cell
                        assert stand_signs[key] == stood.player_payoff + 1
                        assert draw_signs[key] == drew.player_payoff + 1


class _BehavioralBanker:
    """Dict-like strategy view resolving mixed cells with one uniform."""

    def __init__(self, table):
        self.thresholds = {
            info: float(ceil(p * (1 << 53))) for info, p in table.items()
        }
        self.u_scaled = 0.0

    def __getitem__(self, info):
        if self.u_scaled < self.thresholds[info]:
            return Action.DRAW
        return Action.STAND


def _reference_simulate(variant, row_mix, banker_mix, alpha, n_hands, seed):
    """The per-hand play_coup loop the outcome table replaced."""
    a = variant.check_alpha(alpha)
    p_draw = montecarlo._row_mix_weight(row_mix)
    banker = _BehavioralBanker(montecarlo._draw_probabilities(banker_mix, variant))
    rng = random.Random(seed)
    row_threshold = float(ceil(p_draw * (1 << 53)))
    wins = losses = ties = 0
    for _ in range(n_hands):
        u_row = rng.random()
        banker.u_scaled = rng.random() * 2.0**53
        cards = []
        for _ in range(6):
            x = rng.getrandbits(4)
            while x >= 13:
                x = rng.getrandbits(4)
            cards.append(0 if x < 4 else x - 3)
        if u_row * 2.0**53 < row_threshold:
            row = PlayerRow.DRAW_ON_5
        else:
            row = PlayerRow.STAND_ON_5
        out = play_coup(cards[0:2], cards[2:4], cards[4:6], row, banker, 0)
        if out.player_payoff > 0:
            wins += 1
        elif out.player_payoff < 0:
            losses += 1
        else:
            ties += 1
    n = n_hands
    mean_p = F(wins - losses, n)
    mean_b = ((1 - a) * losses - wins) / F(n)
    var_p = F(wins + losses, n) - mean_p * mean_p
    var_b = ((1 - a) ** 2 * losses + wins) / F(n) - mean_b * mean_b
    return SimResult(
        variant=variant.name,
        alpha=a,
        n_hands=n,
        seed=seed,
        rng="python-random-mt19937",
        player_draw_probability=p_draw,
        wins=wins,
        losses=losses,
        ties=ties,
        mean_player=float(mean_p),
        mean_banker=float(mean_b),
        std_error=sqrt(var_p / n),
        std_error_banker=sqrt(var_b / n),
    )


#: Exact probabilities n/d with 0 <= n <= d <= 2^20.
_UNIT = st.tuples(st.integers(0, 2**20), st.integers(1, 2**20)).map(
    lambda nd: F(min(nd), max(nd))
)


@st.composite
def _simulations(draw):
    """A variant, a row mix, a draw map over all 88 cells, alpha, hands, seed.

    The map deviates from the tableau at determined cells as freely as at
    the starred ones, and keeps every mandate of the variant.
    """
    variant = draw(st.sampled_from((PARLOR, CLASSIC, MODERN)))
    banker = {}
    for info in ALL_INFO_SETS:
        if info in variant.fixed_actions:
            banker[info] = variant.fixed_actions[info]
        else:
            banker[info] = draw(st.one_of(st.sampled_from(list(Action)), _UNIT))
    p = draw(_UNIT)
    row_mix = draw(st.sampled_from([(1 - p, p), MixedStrategy((1 - p, p))]))
    alpha = 0 if variant is PARLOR else F(draw(st.integers(0, 19)), 300)
    return variant, row_mix, banker, alpha, draw(st.integers(1, 2000)), draw(
        st.integers(0, 2**64)
    )


@settings(max_examples=40, deadline=None)
@given(_simulations())
def test_table_loop_equals_the_play_coup_loop(args):
    assert simulate(*args) == _reference_simulate(*args)


@pytest.mark.parametrize(
    "seed, counts", [(0, (8841, 9237, 1922)), (1, (8944, 9186, 1870))]
)
def test_parlor_equilibrium_tallies_are_pinned(seed, counts):
    """Both the row (9/11) and the (6,-) cell (859/2288) are mixed here."""
    r = simulate(PARLOR, *equilibrium_profile(PARLOR), 0, 20000, seed)
    assert (r.wins, r.losses, r.ties) == counts


_DEVIANT = {
    InfoSet(3, 9): F(1, 7),
    InfoSet(4, 1): F(2, 3),
    InfoSet(5, 4): 0,
    InfoSet(6, None): F(5, 9),
    InfoSet(7, 7): F(1, 2),
    InfoSet(0, None): F(3, 4),
    InfoSet(2, 5): F(1, 3),
    InfoSet(6, 6): F(1, 3),
}


@pytest.mark.parametrize(
    "seed, counts", [(0, (8930, 9200, 1870)), (5, (9031, 9181, 1788))]
)
def test_deviant_mix_tallies_are_pinned(seed, counts):
    """Mixed at starred and determined cells alike, with a mixed row."""
    r = simulate(CLASSIC, (F(1, 3), F(2, 3)), _DEVIANT, A, 20000, seed)
    assert (r.wins, r.losses, r.ties) == counts


def test_outcome_table_is_built_lazily_once():
    """Importing the package builds nothing; the first simulate builds it."""
    src = str(Path(baccarat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import baccarat\n"
        "from baccarat.montecarlo import _outcome_table\n"
        "print(_outcome_table.cache_info().currsize)\n"
        "for seed in (1, 2):\n"
        "    baccarat.simulate(baccarat.MODERN, baccarat.PlayerRow.DRAW_ON_5,\n"
        "                      baccarat.mandated_banker_strategy(), 0, 10, seed)\n"
        "info = _outcome_table.cache_info()\n"
        "print(info.misses, info.hits)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["0", "1 1"]

"""Unit tests for the seeded simulator and its equilibrium adapters."""

import itertools
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from math import ceil, isqrt, sqrt
from pathlib import Path

import pytest
from hypothesis import given, seed as fixed_seed, settings, strategies as st

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
    equilibrium_profile,
    mandated_banker_strategy,
    mandated_player_action,
    play_coup,
    simulate,
    solve_variant,
)
from baccarat import montecarlo, payoff, rules
from baccarat.rules import _PLAYER_MOVES, _resolve_coup

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
    r = run_modern(2000, 123, mix=equilibrium_profile(solve_variant(MODERN, A))[1])
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
    r = run_modern(200_000, 20240823, mix=equilibrium_profile(sol)[1])
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


@pytest.mark.parametrize(
    "key", [(9, 1), (3, 10), (-1, None), (3, "9"), (3,), 3, (3, 9, 1)]
)
def test_keys_that_are_not_cells_are_rejected(key):
    """A mistyped cell is an error, not an entry silently dropped."""
    mix = {(3, 9): 1, (5, 4): 1}
    assert simulate(MODERN, PlayerRow.DRAW_ON_5, mix, 0, 100, 1)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        simulate(MODERN, PlayerRow.DRAW_ON_5, {**mix, key: 1}, 0, 100, 1)


def test_a_mix_must_cover_every_optional_cell():
    with pytest.raises(ValueError, match=re.escape(f"cells: {[InfoSet(5, 4)]}")):
        simulate(MODERN, PlayerRow.DRAW_ON_5, {InfoSet(3, 9): 1}, 0, 100, 1)


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
    with pytest.raises(ValueError):
        run_modern(True, 1)


@pytest.mark.parametrize("bad", [-5, -1, 1.5, "x", None, True, False])
def test_seeds_other_than_integers_from_zero_are_refused(bad):
    """random.Random seeds with |seed|, so -5 would silently replay 5."""
    with pytest.raises(ValueError, match="seed"):
        run_modern(1000, bad)


@fixed_seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.tuples(st.integers(0, 2**60), st.integers(1, 2**60)).map(
            lambda nd: F(min(nd), max(nd))
        ),
    ),
)
def test_prescaled_threshold_comparison_is_exact(p):
    """For the draws m / 2**53 of random() around the threshold, the float
    comparison the loop makes equals the integer one and the exact one."""
    c = ceil(p * 2**53)
    threshold = montecarlo._exact_threshold(p)
    assert threshold * 2**53 == c
    for m in (0, c - 1, c, c + 1, 2**53 - 1):
        if 0 <= m < 2**53:
            u = m * 2.0**-53
            assert (u < threshold) == (u * 2**53 < c) == (m < c) == (F(m, 2**53) < p)


def test_a_warm_call_allocates_little():
    """No per-key table of Python objects: a warm 20 000-hand call peaks
    at the three 20 KB bytes copies of the outcome table and little more."""
    row, mix = equilibrium_profile(solve_variant(CLASSIC, A))
    simulate(CLASSIC, row, mix, A, 100, 0)
    tracemalloc.start()
    try:
        simulate(CLASSIC, row, mix, A, 20000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_float_alpha_rejected():
    with pytest.raises(TypeError):
        simulate(MODERN, PlayerRow.DRAW_ON_5, mandated_banker_strategy(), 0.05, 10, 1)


def test_equilibrium_profiles():
    row, mix = equilibrium_profile(solve_variant(PARLOR))
    assert row.weights == (F(2, 11), F(9, 11))
    assert mix == {
        InfoSet(3, 9): 1,
        InfoSet(4, 1): 0,
        InfoSet(5, 4): 1,
        InfoSet(6, None): F(859, 2288),
    }
    row_m, mix_m = equilibrium_profile(solve_variant(MODERN, A))
    assert row_m.weights == (F(0), F(1))
    assert mix_m == {InfoSet(3, 9): 1, InfoSet(5, 4): 1}


def test_equilibrium_profile_of_a_solution():
    """The profile is the solution's own draw probabilities: Player's on
    a total of 5, and Banker's at each of the variant's optional cells."""
    for sol in (solve_variant(PARLOR), solve_variant(CLASSIC, F(1, 20))):
        row, mix = equilibrium_profile(sol)
        p = sol.player_draw_probability
        assert row == MixedStrategy((1 - p, p))
        assert list(mix) == list(sol.variant.optional_cells)
        assert all(mix[cell] == sol.banker_draw_probability(cell) for cell in mix)


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
    assert all(type(t) is bytes for t in (cells, stand_signs, draw_signs))
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


def _reference_outcome_table():
    """The builder that resolved each of the 20 000 leaves on its own:
    one public ``play_coup`` call with Banker standing and, off a
    natural, one with Banker drawing."""
    all_stand = BankerStrategy((Action.STAND,) * 88)
    all_draw = BankerStrategy((Action.DRAW,) * 88)
    cells, stand_signs, draw_signs = bytearray(), bytearray(), bytearray()
    for row in (PlayerRow.STAND_ON_5, PlayerRow.DRAW_ON_5):
        for pt, bt, c4, c5 in itertools.product(range(10), repeat=4):
            hand = ((0, pt), (0, bt), (c4, c5), row)
            stood = play_coup(*hand, all_stand)
            if stood.natural:
                cells.append(88)
                drew = stood
            else:
                cells.append(ALL_INFO_SETS.index(InfoSet(bt, stood.player_third)))
                drew = play_coup(*hand, all_draw)
            stand_signs.append(stood.player_payoff + 1)
            draw_signs.append(drew.player_payoff + 1)
    return bytes(cells), bytes(stand_signs), bytes(draw_signs)


def _draws_on_6(pt, bt, moves, thirds, actions):
    """The coup rules under a made-up rule: ``DRAW_ON_5`` draws on 6 as well."""
    if moves == _PLAYER_MOVES[PlayerRow.DRAW_ON_5]:
        moves = (Action.DRAW,) * 7 + (Action.STAND,)
    return _resolve_coup(pt, bt, moves, thirds, actions)


@pytest.fixture(scope="module")
def draws_on_6_table():
    """The per-leaf build from public play_coup, with the made-up rule in
    the core that play_coup hands every coup to."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rules, "_resolve_coup", _draws_on_6)
        return _reference_outcome_table()


def test_outcome_table_equals_the_per_leaf_build():
    """Filling the leaves a coup never read gives the same bytes."""
    table = tuple(bytes(view) for view in montecarlo._outcome_table())
    assert table == _reference_outcome_table()


def test_outcome_table_shares_blocks_by_what_play_coup_does(
    monkeypatch, draws_on_6_table
):
    """Which blocks the second row copies from the first is read off the
    coups, not assumed: under a rule that also splits the rows on a
    total of 6, the build still equals the per-leaf one."""
    monkeypatch.setattr(payoff, "_resolve_coup", _draws_on_6)
    table = tuple(bytes(view) for view in payoff._outcome_table.__wrapped__())
    assert table == draws_on_6_table


def test_outcome_table_calls_play_coup_once_per_read_prefix(monkeypatch):
    """Per (row, pt, bt) block of the first row: 1 call on a natural; 1
    standing and 10 drawing when Player stands; 10 standing and 100
    drawing when Player draws.  Over 36 natural, 24 Player-stands and 40
    Player-draws blocks, that is 36 + 24 * 11 + 40 * 110 = 4 700 calls.
    The second row makes the first coup of each of its 100 blocks, which
    keys the blocks already resolved: its 36 naturals cost that one coup
    each, and so do the 56 whose first coup shows the first row's Player
    move.  The 8 non-natural blocks of total 5 are resolved in full from
    their first coup, at 109 more calls each: 100 + 8 * 109 = 972.  In
    all 5 672 calls, not 32 800.  The calls are counted on
    ``rules._resolve_coup``, the rules ``play_coup`` checks its input
    for."""
    calls = []

    def counting_core(*args):
        calls.append(args)
        return _resolve_coup(*args)

    monkeypatch.setattr(payoff, "_resolve_coup", counting_core)
    payoff._outcome_table.__wrapped__()
    assert len(calls) == 5672


def test_outcome_table_checks_nothing(monkeypatch):
    """The builder makes every total, card and action it resolves, so it
    never checks a card or reads Player's move through the checked
    ``mandated_player_action``.  The closing ``play_coup`` call shows
    that the counters see a checked coup."""
    calls = []

    def counting(function):
        def counted(*args):
            calls.append(function.__name__)
            return function(*args)

        return counted

    for module in (rules, payoff):
        for name in ("_check_card", "mandated_player_action"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    payoff._outcome_table.__wrapped__()
    assert calls == []
    play_coup((1, 1), (2, 2), (3, 3), PlayerRow.STAND_ON_5, mandated_banker_strategy())
    assert calls.count("_check_card") == 6


def _reference_leaf_ledger(table):
    """The fold that summed every leaf of both rows, one by one."""
    cells, stand_signs, draw_signs = table
    card = [4 if v == 0 else 1 for v in range(10)]
    total = [sum(card[a] * card[(t - a) % 10] for a in range(10)) for t in range(10)]
    weights = [card[c4] * card[c5] for c4 in range(10) for c5 in range(10)]
    ledger = []
    for r in range(2):
        slots = [([0, 0, 0], [0, 0, 0]) for _ in range(89)]
        for pt, bt in itertools.product(range(10), repeat=2):
            pairs = total[pt] * total[bt]
            base = r * 10000 + pt * 1000 + bt * 100
            for j in range(100):
                stand, draw = slots[cells[base + j]]
                stand[stand_signs[base + j]] += pairs * weights[j]
                draw[draw_signs[base + j]] += pairs * weights[j]
        ledger.append(tuple((tuple(s), tuple(d)) for s, d in slots))
    return tuple(ledger)


def test_leaf_ledger_equals_the_per_leaf_fold():
    table = payoff._outcome_table()
    assert payoff._leaf_ledger.__wrapped__() == _reference_leaf_ledger(table)


def test_leaf_ledger_refolds_every_block_the_rows_play_apart(
    monkeypatch, draws_on_6_table
):
    """The second row's blocks of total 6 differ too under this rule, so
    copying the first row's counts there would show."""
    monkeypatch.setattr(payoff, "_outcome_table", lambda: draws_on_6_table)
    assert payoff._leaf_ledger.__wrapped__() == _reference_leaf_ledger(
        draws_on_6_table
    )


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
        out = play_coup(cards[0:2], cards[2:4], cards[4:6], row, banker)
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
    r = simulate(PARLOR, *equilibrium_profile(solve_variant(PARLOR)), 0, 20000, seed)
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
    """Importing builds nothing; simulate builds the table, not the ledger.

    The oracle then folds the table it finds into the ledger once, and
    punto reads that same ledger.
    """
    src = str(Path(baccarat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import contextlib, io\n"
        "import baccarat\n"
        "from baccarat.cli import run\n"
        "from baccarat.payoff import _leaf_ledger, _outcome_table\n"
        "print(_outcome_table.cache_info().currsize,"
        " _leaf_ledger.cache_info().currsize)\n"
        "for seed in (1, 2):\n"
        "    baccarat.simulate(baccarat.MODERN, baccarat.PlayerRow.DRAW_ON_5,\n"
        "                      baccarat.mandated_banker_strategy(), 0, 10, seed)\n"
        "table = _outcome_table.cache_info()\n"
        "print(table.misses, table.hits, _leaf_ledger.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['oracle', '--variant', 'modern', '--alpha', '1/20']) == 0\n"
        "    assert run(['punto']) == 0\n"
        "print(_outcome_table.cache_info().misses, _leaf_ledger.cache_info().misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["0 0", "1 1 0", "1 1"]


# ---------------------------------------------------------------------------
# A large run shares its hands with one forked child.  The splice relies on
# CPython's word accounting, and every way the child can miss must fall
# back to the sequential loop with the same counts.
# ---------------------------------------------------------------------------


def _advanced(seed, words):
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    return rng.getstate()


@pytest.mark.parametrize(
    "draw, words",
    [
        (lambda rng: rng.random(), 2),
        (lambda rng: rng.getrandbits(4), 1),
        (lambda rng: rng.getrandbits(32 * 5), 5),
        (lambda rng: rng.getrandbits(32 * 8192), 8192),
        (lambda rng: rng.getrandbits(1 << 20), 32768),
    ],
)
def test_word_accounting_of_each_draw(draw, words):
    """The generator stands where single-word draws would leave it."""
    rng = random.Random(7)
    draw(rng)
    assert rng.getstate() == _advanced(7, words)


def test_a_hand_reads_ten_words_and_one_per_rejected_draw():
    rng = random.Random(3)
    counts = [0, 0, 0]
    rejected = montecarlo._play(rng, 500, counts, 0.5, [0.5] * 89)
    assert sum(counts) == 500 and rejected > 0
    assert rng.getstate() == _advanced(3, 10 * 500 + rejected)


def _forced_plan(n):
    """A split of any run from 1 hand up, with a start well before hand
    n1's and a window as long as the back half."""
    n1 = n // 3
    return n1, max(0, 148 * n1 // 13 - 1000), n - n1


def _parent_plays(monkeypatch):
    """Record the hands of each loop this process plays.  A split run
    that splices the child's counts plays its front half here, and
    nothing more."""
    parent, play, played = os.getpid(), montecarlo._play, []

    def recording(rng, n_hands, *args):
        if os.getpid() == parent:
            played.append(n_hands)
        return play(rng, n_hands, *args)

    monkeypatch.setattr(montecarlo, "_play", recording)
    return played


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@fixed_seed(20261020)
@settings(max_examples=30, deadline=None, database=None)
@given(_simulations())
def test_a_split_run_equals_the_sequential_one(args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_split_plan", _forced_plan)
        split = simulate(*args)
    assert split == simulate(*args) == _reference_simulate(*args)
    _assert_no_child_left()


@pytest.mark.parametrize("n", [6000, 20000])
def test_split_runs_splice_the_child_counts(monkeypatch, n):
    """With the plan's own margins every run meets, and this process
    plays only the front half."""
    row, mix = equilibrium_profile(solve_variant(CLASSIC, A))
    sequential = [simulate(CLASSIC, row, mix, A, n, seed) for seed in range(8)]
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN_HANDS", 0)
    plan = montecarlo._split_plan(n)
    if plan is None:
        pytest.skip("this process cannot split a run")
    played = _parent_plays(monkeypatch)
    split = [simulate(CLASSIC, row, mix, A, n, seed) for seed in range(8)]
    assert split == sequential
    assert played == [plan[0]] * 8
    _assert_no_child_left()


def _exit_3(*args):
    os._exit(3)


@pytest.mark.parametrize(
    "plan, back_half",
    [
        # The child exits non-zero before it sends anything.
        (_forced_plan, _exit_3),
        # A window of one hand at word 0 never holds hand n1's start.
        (lambda n: (n // 2, 0, 1), None),
        # The child starts past the word where hand n1 starts.
        (lambda n: (n // 2, 12 * n, 100), None),
    ],
)
def test_a_child_that_misses_falls_back_exactly(monkeypatch, plan, back_half):
    args = (CLASSIC, (F(1, 3), F(2, 3)), _DEVIANT, A, 3000, 11)
    sequential = simulate(*args)
    played = _parent_plays(monkeypatch)
    monkeypatch.setattr(montecarlo, "_split_plan", plan)
    if back_half is not None:
        monkeypatch.setattr(montecarlo, "_back_half", back_half)
    assert simulate(*args) == sequential
    n1 = plan(3000)[0]
    assert played == [n1, 3000 - n1]
    _assert_no_child_left()


def test_a_failed_fork_plays_the_run_here(monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    args = (CLASSIC, (F(1, 3), F(2, 3)), _DEVIANT, A, 3000, 12)
    sequential = simulate(*args)
    played = _parent_plays(monkeypatch)
    monkeypatch.setattr(montecarlo, "_split_plan", _forced_plan)
    monkeypatch.setattr(os, "fork", no_fork)
    assert simulate(*args) == sequential
    assert played == [3000]


def test_a_child_reaped_elsewhere_falls_back_exactly(monkeypatch):
    """With SIGCHLD ignored the kernel reaps the child, and waiting for
    it fails; the run does not rely on its records then."""
    args = (CLASSIC, (F(1, 3), F(2, 3)), _DEVIANT, A, 3000, 13)
    sequential = simulate(*args)
    played = _parent_plays(monkeypatch)
    monkeypatch.setattr(montecarlo, "_split_plan", _forced_plan)
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert simulate(*args) == sequential
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert played == [1000, 2000]


def test_the_child_is_killed_and_reaped_when_the_loop_here_raises(monkeypatch):
    def stuck(*args):
        time.sleep(60)
        os._exit(0)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(montecarlo, "_split_plan", _forced_plan)
    monkeypatch.setattr(montecarlo, "_back_half", stuck)
    monkeypatch.setattr(montecarlo, "_play", interrupted)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_modern(3000, 1)
    assert time.monotonic() - began < 30
    _assert_no_child_left()


def _refuse_fork():
    raise AssertionError("fork called")


def test_no_split_below_the_crossover(monkeypatch):
    n = montecarlo._SPLIT_MIN_HANDS
    assert montecarlo._split_plan(n - 1) is None
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert run_modern(n - 1, 4).n_hands == n - 1


def test_no_split_on_one_cpu(monkeypatch):
    n = montecarlo._SPLIT_MIN_HANDS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert montecarlo._split_plan(n) is None
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert run_modern(n, 4).n_hands == n


def test_no_split_while_another_thread_runs(monkeypatch):
    n = montecarlo._SPLIT_MIN_HANDS
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert montecarlo._split_plan(n) is None
        monkeypatch.setattr(os, "fork", _refuse_fork)
        assert run_modern(n, 4).n_hands == n
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()

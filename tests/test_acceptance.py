"""Acceptance gate: the fourteen checks that define "done" for this engine.

Each test prints exactly one ``[NN] PASS/FAIL`` line (visible under
``pytest -s``) and enforces the stated tolerance: rational results are
compared with ``==``, decimal renderings against the quoted figure at
the quoted tolerance, and the slow checks carry wall-clock budgets.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from baccarat import (
    ALL_INFO_SETS,
    CLASSIC,
    MODERN,
    PARLOR,
    Action,
    InfoSet,
    PlayerRow,
    STARRED_CELLS,
    best_response,
    build_reduced_game,
    classify_info_sets,
    equilibrium_profile,
    find_alpha_star,
    oracle_payoff_entry,
    punto_report,
    simulate,
    solve_variant,
    table_validity_bound,
    tableau_action,
)
from baccarat.payoff import (
    _NO_CELL,
    _ROWS,
    _analytic_ledger,
    _leaf_ledger,
)
from baccarat.solver import is_nondegenerate
from fraction_reference import (
    fraction_cell_data,
    fraction_natural_phase,
    info_set_stats,
)
from solver_reference import support_equilibria

F = Fraction
D6 = 13**6
S5, D5 = PlayerRow.STAND_ON_5, PlayerRow.DRAW_ON_5


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{num:02d}] FAIL {label}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"[{num:02d}] PASS {label} ({elapsed:.2f}s)")


# The five named starred-cell assignments checked entry-by-entry below,
# with their zero-sum row payoffs (units of 16/13^6) and Banker's
# commission-dependent payoffs (units of 8/13^6, affine in alpha).
COLUMNS = ("SSSS", "SSDS", "DSDS", "DSDD", "DDDD")
A_ENTRIES = {
    "SSSS": (-4636, -3585),
    "SSDS": (-4635, -3600),
    "DSDS": (-4564, -3705),
    "DSDD": (-2692, -4121),
    "DDDD": (-2585, -4126),
}
B_ENTRIES = {
    "SSSS": ((9272, 278353), (7170, 276363)),
    "SSDS": ((9270, 278423), (7200, 276433)),
    "DSDS": ((9128, 278423), (7410, 276593)),
    "DSDD": ((5384, 278007), (8242, 278673)),
    "DDDD": ((5170, 277971), (8252, 278733)),
}

PARLOR_VALUE = F(-679568, 11 * D6)
MODERN_VALUE = F(-3705 * 16, D6)


def test_criterion_01_classification_grid():
    with criterion(1, "88-cell classification at alpha 0 and 1/20"):
        start = time.perf_counter()
        for alpha in (0, F(1, 20)):
            cls = classify_info_sets(alpha)
            assert set(cls.starred) == set(STARRED_CELLS)
            assert len(cls.determined) == 84
            for info, action in cls.determined.items():
                assert action is tableau_action(info), (alpha, info)
            assert cls.agrees_with_tableau
        assert time.perf_counter() - start < 1.0


def test_criterion_02_zero_sum_matrix_entries():
    with criterion(2, "10 zero-sum entries = integers x 16/13^6"):
        game = build_reduced_game(CLASSIC)
        for label, (top, bottom) in A_ENTRIES.items():
            j = game.column_labels.index(label)
            assert game.A[0][j] == F(16 * top, D6), label
            assert game.A[1][j] == F(16 * bottom, D6), label


def test_criterion_03_commission_matrix_entries():
    with criterion(3, "10 Banker entries affine in alpha x 8/13^6"):
        for alpha in (0, F(1, 20), F(1, 30)):
            game = build_reduced_game(CLASSIC, alpha)
            for label, rows in B_ENTRIES.items():
                j = game.column_labels.index(label)
                for r, (c0, c1) in enumerate(rows):
                    expected = F(8, D6) * (c0 - c1 * alpha)
                    assert game.B[r][j] == expected, (alpha, label, r)


def test_criterion_04_parlor_solution():
    with criterion(4, "parlor: p=9/11, q=859/2288, value exact and unique"):
        sol = solve_variant(PARLOR)
        assert sol.player_draw_probability == F(9, 11)
        assert sol.banker_draw_probability(InfoSet(6, None)) == F(859, 2288)
        assert sol.player_value == PARLOR_VALUE
        assert abs(float(sol.player_value) - (-0.0127991)) <= 1e-7
        assert sol.report.unique


def test_criterion_05_classic_solution():
    with criterion(5, "classic at 1/20: closed forms, value, nondegenerate"):
        a = F(1, 20)
        sol = solve_variant(CLASSIC, a)
        assert sol.player_draw_probability == (9 - a) / (11 - 6 * a)
        assert sol.player_draw_probability == F(179, 214)
        assert sol.banker_draw_probability(InfoSet(6, None)) == F(859, 2288)
        closed = 8 * (84946 - 3099233 * a + 1668708 * a * a) / ((11 - 6 * a) * D6)
        assert sol.banker_value == closed
        assert sol.banker_value == F(-131687760, 12911714075)
        assert abs(float(sol.banker_value) - (-0.0101991)) <= 1e-7
        assert sol.report.unique
        ok, witness = is_nondegenerate(sol.reduced.A, sol.reduced.B)
        assert ok and witness is None


def test_criterion_06_modern_solution():
    with criterion(6, "modern at 1/20: unique pure equilibrium, values, nondegenerate"):
        a = F(1, 20)
        sol = solve_variant(MODERN, a)
        assert sol.report.kind == "pure"
        assert sol.report.unique
        assert sol.player_draw_probability == 1
        assert sol.banker_draw_probability(InfoSet(3, 9)) == 1
        assert sol.banker_draw_probability(InfoSet(5, 4)) == 1
        assert sol.player_value == MODERN_VALUE
        assert abs(float(sol.player_value) - (-0.0122814)) <= 1e-7
        assert abs(float(sol.banker_value) - (-0.0106400)) <= 1e-7
        assert sol.banker_value == F(8, D6) * (7410 - 276593 * a)
        ok, witness = is_nondegenerate(sol.reduced.A, sol.reduced.B)
        assert ok and witness is None


def test_criterion_07_breakeven_commission_bracket():
    with criterion(7, "break-even commission bracketed to 1e-9"):
        bracket = find_alpha_star(F(1, 10**9))
        width = bracket.hi - bracket.lo
        assert width <= F(1, 10**9)
        # The bracketed root is (34601239 - sqrt(D)) / 36711576 with
        # D = 34601239^2 - 4*18355788*1868812; sandwich sqrt(D) between
        # consecutive scaled integers to compare exactly.
        disc = 34601239**2 - 4 * 18355788 * 1868812
        scale = 10**20
        s = isqrt(disc * scale * scale)
        surd_lo = F(34601239 * scale - (s + 1), 36711576 * scale)
        surd_hi = F(34601239 * scale - s, 36711576 * scale)
        assert bracket.lo <= surd_lo and surd_hi <= bracket.hi
        mid = bracket.midpoint
        assert abs(mid - surd_lo) <= F(1, 10**9)
        assert abs(mid - surd_hi) <= F(1, 10**9)
        # The quoted seven-place decimal is the rounding of that surd.
        assert f"{float(mid):.7f}" == "0.0556531"


def test_criterion_08_improvement_values():
    with criterion(8, "draw improvements at (6,-) and (4,1), alpha=1/20"):
        a = F(1, 20)
        imp6 = info_set_stats(InfoSet(6, None), D5, a).improvement
        assert imp6 == F(7, 104)
        assert abs(float(imp6) - 0.0673077) <= 1e-7
        imp41 = info_set_stats(InfoSet(4, 1), D5, a).improvement
        assert imp41 == F(1, 390)
        assert abs(float(imp41) - 0.0025641) <= 1e-6


def test_criterion_09_punto_banco_report():
    with criterion(9, "punto banco probabilities, edges, identities"):
        rep = punto_report()
        assert rep.P == F(2153464, D6)
        assert rep.B == F(2212744, D6)
        assert rep.T == F(460601, D6)
        assert rep.P + rep.B + rep.T == 1
        assert abs(float(rep.edge_player) - 0.0122814) <= 1e-7
        assert abs(float(rep.edge_banker) - 0.0106400) <= 1e-7
        assert abs(float(rep.edge_chemin) - 0.0229214) <= 1e-7
        assert rep.edge_chemin == rep.edge_player + rep.edge_banker
        a = F(1, 20)
        assert rep.edge_player == -solve_variant(MODERN, a).player_value
        assert rep.edge_banker == -solve_variant(MODERN, a).banker_value


def test_criterion_10_oracle_equivalence():
    label = (
        "brute-force oracle vs decomposition, 32 pairs x 2 alphas, 352 cells, "
        "both ledgers"
    )
    with criterion(10, label):
        start = time.perf_counter()
        for alpha in (0, F(1, 20)):
            game = build_reduced_game(CLASSIC, alpha)
            assert len(game.column_labels) == 16
            for j in range(16):
                strategy = game.banker_strategy(j)
                for r, row in enumerate(game.row_labels):
                    pe, be = oracle_payoff_entry(row, strategy, alpha)
                    assert pe == game.A[r][j], (alpha, r, j)
                    assert be == game.B[r][j], (alpha, r, j)
        # Both routes add up over cells, so equal slots mean equal
        # entries for every Banker strategy, not only the 32 above.
        # A ledger slot counts Player's (loss, tie, win), a triple of the
        # decomposition summed in fractions is Banker's (win, loss, tie).
        checked = 0
        for row, slots in zip(_ROWS, _leaf_ledger()):
            for info, cell_slots in zip(ALL_INFO_SETS, slots):
                occurrence, *triples = fraction_cell_data(info, row)
                for (loss, tie, win), (bw, pw, t) in zip(cell_slots, triples):
                    assert F(loss, D6) == occurrence * bw, (row, info)
                    assert F(win, D6) == occurrence * pw, (row, info)
                    assert F(tie, D6) == occurrence * t, (row, info)
                    checked += 1
            for loss, tie, win in slots[_NO_CELL]:
                assert (F(loss, D6), F(win, D6), F(tie, D6)) == (
                    fraction_natural_phase()
                )
        assert checked == 352
        # The decomposition's own ledger, computed from card counts.
        assert _analytic_ledger() == _leaf_ledger()
        assert time.perf_counter() - start < 60.0


def test_criterion_11_best_responses():
    with criterion(11, "best responses to off-equilibrium mixtures"):
        a = F(1, 20)
        mandated = {
            InfoSet(3, 9): Action.DRAW,
            InfoSet(4, 1): Action.STAND,
            InfoSet(5, 4): Action.DRAW,
            InfoSet(6, None): Action.STAND,
        }
        for mix in ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))):
            br = best_response("banker", mix, CLASSIC, a)
            assert br.actions == mandated, mix
            assert br.ties == ()
        # Player's reply to that strategy: the pure modern column.
        game = build_reduced_game(MODERN, a)
        j = game.column_labels.index("DD")
        weights = tuple(F(int(k == j)) for k in range(len(game.column_labels)))
        br = best_response("player", weights, MODERN, a)
        assert br.row is D5
        assert br.ties == ()


def test_criterion_12_validity_bounds():
    with criterion(12, "classification validity bounds 1/15 and 2/5"):
        assert table_validity_bound(CLASSIC) == F(1, 15)
        assert table_validity_bound(PARLOR) == F(1, 15)
        assert table_validity_bound(MODERN) == F(2, 5)
        # Just above 1/15 the (6,6) cell stops being determined: one row's
        # draw advantage crosses zero there, so the cell turns strategic.
        above = F(1, 15) + F(1, 1000)
        cls = classify_info_sets(above)
        assert not cls.agrees_with_tableau
        assert InfoSet(6, 6) in cls.starred
        assert set(cls.starred) == set(STARRED_CELLS) | {InfoSet(6, 6)}
        assert tableau_action(InfoSet(6, 6)) is Action.DRAW
        below = F(1, 15) - F(1, 1000)
        assert classify_info_sets(below).agrees_with_tableau


def test_criterion_13_monte_carlo():
    with criterion(13, "10^6-hand simulations within 3.5 SE, reproducible"):
        start = time.perf_counter()
        a = F(1, 20)

        sol = solve_variant(MODERN, a)
        row, mix = equilibrium_profile(sol)
        res = simulate(MODERN, row, mix, a, 10**6, seed=20240817)
        assert abs(res.mean_player - float(MODERN_VALUE)) <= 3.5 * res.std_error
        banker_exact = float(sol.banker_value)
        assert abs(res.mean_banker - banker_exact) <= 3.5 * res.std_error_banker

        row, mix = equilibrium_profile(solve_variant(PARLOR))
        res = simulate(PARLOR, row, mix, 0, 10**6, seed=31337)
        assert abs(res.mean_player - float(PARLOR_VALUE)) <= 3.5 * res.std_error
        assert abs(res.mean_banker - float(-PARLOR_VALUE)) <= 3.5 * res.std_error_banker

        again = simulate(PARLOR, row, mix, 0, 10**5, seed=2024)
        assert again == simulate(PARLOR, row, mix, 0, 10**5, seed=2024)
        assert time.perf_counter() - start < 30.0


def test_criterion_14_reference_enumeration():
    label = "reference support enumeration on the unreduced games: one equilibrium"
    with criterion(14, label):
        start = time.perf_counter()
        for variant, alpha in (
            (PARLOR, 0),
            (CLASSIC, F(1, 20)),
            (CLASSIC, F(1, 100)),
            (CLASSIC, F(37, 1234)),
            (MODERN, F(1, 20)),
            (MODERN, F(101, 700)),
        ):
            sol = solve_variant(variant, alpha)
            # Nondegenerate, so the reference's enumeration is complete.
            assert is_nondegenerate(sol.game.A, sol.game.B)[0], (variant.name, alpha)
            rep = sol.report
            assert support_equilibria(sol.game.A, sol.game.B) == {(
                rep.row_strategy.weights, rep.column_strategy.weights,
                rep.row_value, rep.column_value,
            )}, (variant.name, alpha)
        assert time.perf_counter() - start < 2.0

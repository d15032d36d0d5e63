"""Unit tests for the exact 2 x n game machinery.

Toy games with known answers exercise each solver path, and seeded
sweeps of random bimatrix games check the elimination certificates and
cross-check the support enumeration against a direct scan.
"""

import random
from fractions import Fraction

import pytest

from baccarat import CLASSIC, MODERN, build_reduced_game
from baccarat.solver import (
    EquilibriumReport,
    Game,
    MixedStrategy,
    eliminate_strictly_dominated,
    enumerate_nash_2xn,
    is_nondegenerate,
    verify_equilibrium,
)

F = Fraction


def neg(M):
    return [[-x for x in row] for row in M]


class TestMixedStrategy:
    def test_valid(self):
        m = MixedStrategy((F(1, 3), F(2, 3)))
        assert m.support == (0, 1)
        assert m[0] == F(1, 3)
        assert len(m) == 2

    def test_pure(self):
        m = MixedStrategy.pure(1, 3)
        assert m.weights == (0, 1, 0)
        assert m.support == (1,)

    @pytest.mark.parametrize(
        "weights",
        [(F(1, 2), F(1, 3)), (F(3, 2), F(-1, 2)), ()],
    )
    def test_invalid_weights(self, weights):
        with pytest.raises(ValueError):
            MixedStrategy(weights)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            MixedStrategy((0.5, 0.5))


class TestGame:
    def test_zero_sum_default(self):
        g = Game([[1, -2], [0, 3]])
        assert g.B == ((-1, 2), (0, -3))
        assert g.row_labels == ("R0", "R1")
        assert g.column_labels == ("C0", "C1")

    def test_rejects_ragged_matrices(self):
        with pytest.raises(ValueError):
            Game([[1, 2], [3]])
        with pytest.raises(ValueError):
            Game([[1, 2], [3, 4]], B=[[1, 2, 3], [4, 5, 6]])


class TestElimination:
    def test_pure_dominance_iterates_to_a_point(self):
        game, log = eliminate_strictly_dominated(Game([[1, 0], [2, 1]]))
        assert [list(r) for r in game.A] == [[1]]
        assert [s.side for s in log] == ["column", "row"]
        assert game.row_labels == ("R1",)
        assert game.column_labels == ("C1",)

    def test_mixed_dominator_is_found(self):
        # No single column beats C2, but the even mix of C0 and C1 does.
        A = [[0, 0, 0], [0, 0, 0]]  # row side inert
        B = [[0, 3, 1], [3, 0, 1]]
        game, log = eliminate_strictly_dominated(Game(A, B=B))
        assert game.column_labels == ("C0", "C1")
        (step,) = log
        assert step.side == "column" and step.label == "C2"
        assert len(step.dominator_indices) == 2
        # The recorded mixture really does dominate the removed column.
        w = dict(zip(step.dominator_indices, step.dominator_weights))
        for r in range(2):
            mixed = sum(B[r][j] * w[j] for j in w)
            assert mixed > B[r][2]

    def test_nothing_to_remove(self):
        g = Game([[1, -1], [-1, 1]])
        game, log = eliminate_strictly_dominated(g)
        assert log == ()
        assert game.A == g.A

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            eliminate_strictly_dominated(Game([[1, 2], [3, 4], [5, 6]]))

    @pytest.mark.parametrize(
        "variant, log_labels, survivors",
        [
            (
                CLASSIC,
                ["SSSD", "SSDD", "SDSS", "SDSD", "SDDS", "SDDD",
                 "DSSS", "DSSD", "DDSS", "DDSD", "DDDS"],
                ("SSSS", "SSDS", "DSDS", "DSDD", "DDDD"),
            ),
            (MODERN, ["DS", "StandOn5", "SS", "SD"], ("DD",)),
        ],
        ids=["classic", "modern"],
    )
    def test_variant_logs_at_one_twentieth(self, variant, log_labels, survivors):
        game, log = eliminate_strictly_dominated(build_reduced_game(variant, F(1, 20)))
        assert [str(step.label) for step in log] == log_labels
        assert game.column_labels == survivors

    def test_random_games_certificates_and_survivors(self):
        """Every logged dominator strictly beats what it removed on the
        opponent strategies alive at that step, and every survivor is a
        best reply to some mix of the surviving rows."""
        rng = random.Random(20261017)
        for _ in range(300):
            n = rng.randint(2, 6)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
            game, log = eliminate_strictly_dominated(Game(A, B=B))
            rows, cols = [0, 1], list(range(n))
            for step in log:
                mix = dict(zip(step.dominator_indices, step.dominator_weights))
                if step.side == "column":
                    assert set(mix) <= set(cols) - {step.index}
                    for r in rows:
                        beat = sum(w * B[r][k] for k, w in mix.items())
                        assert beat > B[r][step.index], (A, B, step)
                    cols.remove(step.index)
                else:
                    assert set(mix) <= set(rows) - {step.index}
                    for c in cols:
                        beat = sum(w * A[k][c] for k, w in mix.items())
                        assert beat > A[step.index][c], (A, B, step)
                    rows.remove(step.index)
            assert game.column_labels == tuple(f"C{j}" for j in cols)
            assert game.row_labels == tuple(f"R{r}" for r in rows)
            for j in cols:
                assert _best_reply_somewhere(B, j, cols, rows), (A, B, j)


def _best_reply_somewhere(B, j, cols, rows):
    """Whether column j is a best reply among ``cols`` to some row mix
    (1 - p, p) with p in the span of ``rows`` (0 for row 0, 1 for row 1).
    Each rival k cuts the p-interval by the half-line where j >= k."""
    lo, hi = F(rows[0]), F(rows[-1])
    for k in cols:
        gap0 = B[0][j] - B[0][k]
        slope = (B[1][j] - B[1][k]) - gap0
        if slope > 0:
            lo = max(lo, -gap0 / slope)
        elif slope < 0:
            hi = min(hi, -gap0 / slope)
        elif gap0 < 0:
            return False
    return lo <= hi


class TestNondegeneracy:
    def test_clean_game(self):
        ok, witness = is_nondegenerate([[1, -1], [-1, 1]], neg([[1, -1], [-1, 1]]))
        assert ok and witness is None

    def test_tied_best_responses_detected(self):
        A = [[1, 1], [0, 2]]
        ok, witness = is_nondegenerate(A, neg(A))
        assert not ok
        assert witness is not None
        assert len(witness.best_responses) > 1


class TestNashEnumeration:
    def test_matching_pennies_unique(self):
        res = enumerate_nash_2xn([[1, -1], [-1, 1]], neg([[1, -1], [-1, 1]]))
        assert res.complete
        assert len(res.equilibria) == 1
        assert res.equilibria[0].kind == "mixed"
        assert res.equilibria[0].unique

    def test_coordination_has_three(self):
        A = [[2, 0], [0, 1]]
        B = [[1, 0], [0, 2]]
        res = enumerate_nash_2xn(A, B)
        assert res.complete
        kinds = sorted(e.kind for e in res.equilibria)
        assert kinds == ["mixed", "pure", "pure"]
        for e in res.equilibria:
            assert verify_equilibrium(A, B, e)

    def test_continuum_is_flagged_not_enumerated(self):
        res = enumerate_nash_2xn([[1, 1], [0, 0]], [[0, 0], [0, 0]])
        assert not res.complete
        assert any("continuum" in e.note for e in res.equilibria)

    def test_random_games_verify_and_cover_pure_profiles(self):
        rng = random.Random(20240823)
        for _ in range(60):
            n = rng.randint(2, 4)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
            res = enumerate_nash_2xn(A, B)
            for e in res.equilibria:
                assert verify_equilibrium(A, B, e), (A, B, e)
            found_pure = {
                (e.row_support, e.column_support)
                for e in res.equilibria
                if e.kind == "pure"
            }
            for r in range(2):
                for c in range(n):
                    is_eq = A[r][c] == max(A[k][c] for k in range(2)) and B[r][
                        c
                    ] == max(B[r])
                    if is_eq:
                        assert ((r,), (c,)) in found_pure, (A, B, r, c)


def test_verify_rejects_non_equilibrium():
    A = [[1, -1], [-1, 1]]
    bad = EquilibriumReport(
        row_strategy=MixedStrategy((F(2, 3), F(1, 3))),
        column_strategy=MixedStrategy((F(1, 2), F(1, 2))),
        row_value=0,
        column_value=0,
        row_support=(0, 1),
        column_support=(0, 1),
        kind="mixed",
    )
    assert not verify_equilibrium(A, neg(A), bad)

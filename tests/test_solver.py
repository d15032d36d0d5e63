"""Unit tests for the exact 2 x n game machinery.

Toy games with known answers exercise each solver path, and seeded
sweeps of random bimatrix games check the elimination certificates and
cross-check the support enumeration against a direct scan.
"""

import ast
import inspect
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from baccarat import CLASSIC, MODERN, PARLOR, build_reduced_game, solver
from baccarat.solver import (
    EquilibriumReport,
    MixedStrategy,
    NashEnumeration,
    _envelope,
    _integral,
    eliminate_strictly_dominated,
    enumerate_nash_2xn,
    is_nondegenerate,
    verify_equilibrium,
)
from solver_reference import fraction_dominator, fraction_verify, support_equilibria

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

    def test_pure_refuses_a_count_that_is_no_int_by_name(self):
        with pytest.raises(TypeError) as refused:
            MixedStrategy.pure(0, None)
        assert str(refused.value) == "n must be an int, not NoneType"

    @pytest.mark.parametrize("index, n", [(2, 2), (-1, 3), (True, 2), (1.0, 2), ("0", 2)])
    def test_pure_refuses_an_index_outside_its_range(self, index, n):
        with pytest.raises(ValueError) as info:
            MixedStrategy.pure(index, n)
        assert str(info.value) == f"pure strategy {index!r} of {n}: not an int in 0..{n - 1}"

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


def sub(M, rows, cols):
    return tuple(tuple(M[r][j] for j in cols) for r in rows)


class TestGame:
    def test_zero_sum_default(self):
        """A zero-sum game is the pair (A, -A): the column player's value
        is minus the row player's, at the mixes that equalise A's rows
        and columns."""
        A = [[1, -2], [0, 3]]
        (eq,) = enumerate_nash_2xn(A, neg(A)).equilibria
        assert eq.row_strategy.weights == (F(1, 2), F(1, 2))
        assert eq.column_strategy.weights == (F(5, 6), F(1, 6))
        assert (eq.row_value, eq.column_value) == (F(1, 2), F(-1, 2))

    @pytest.mark.parametrize("A", [[], [[]], [[], []]], ids=["no rows", "1x0", "2x0"])
    def test_rejects_empty_matrices(self, A):
        with pytest.raises(ValueError, match="matrix must be nonempty"):
            eliminate_strictly_dominated(A, A)

    def test_rejects_ragged_matrices(self):
        with pytest.raises(ValueError):
            eliminate_strictly_dominated([[1, 2], [3]], [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            eliminate_strictly_dominated([[1, 2], [3, 4]], [[1, 2, 3], [4, 5, 6]])


_REPORT = EquilibriumReport(
    row_strategy=MixedStrategy.pure(0, 2),
    column_strategy=MixedStrategy.pure(0, 2),
    row_value=F(1),
    column_value=F(1),
)


@pytest.mark.parametrize(
    "routine",
    [
        eliminate_strictly_dominated,
        is_nondegenerate,
        enumerate_nash_2xn,
        lambda A, B: verify_equilibrium(A, B, _REPORT),
    ],
    ids=["eliminate", "nondegenerate", "enumerate", "verify"],
)
@pytest.mark.parametrize(
    "B",
    [((1, 2), (3, 4), (5, 6)), ((1, 2, 3), (4, 5, 6)), ((1, 2),)],
    ids=["3x2", "2x3", "1x2"],
)
def test_b_must_have_the_shape_of_a(routine, B):
    """A third row or an extra column of B is refused, not ignored."""
    with pytest.raises(ValueError, match="B must have A's shape, 2 x 2, got"):
        routine(((1, 2), (3, 4)), B)


def test_every_routine_takes_the_game_as_a_and_b():
    """The four public routines take a game as its two matrices, first,
    and the solver reads no caller object's field list and rebuilds none
    (``MixedStrategy`` still names its own equality key ``_fields``)."""
    for routine in (
        eliminate_strictly_dominated, is_nondegenerate, enumerate_nash_2xn,
        verify_equilibrium,
    ):
        assert [*inspect.signature(routine).parameters][:2] == ["A", "B"], routine
    source = inspect.getsource(solver)
    reads = {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    assert not reads & {"_fields", "_replace"}
    assert "getattr(game" not in source


class TestElimination:
    def test_pure_dominance_iterates_to_a_point(self):
        A = [[1, 0], [2, 1]]
        (rows, cols), log = eliminate_strictly_dominated(A, neg(A))
        assert sub(A, rows, cols) == ((1,),)
        assert [s.side for s in log] == ["column", "row"]
        assert rows == (1,)
        assert cols == (1,)

    def test_mixed_dominator_is_found(self):
        # No single column beats C2, but the even mix of C0 and C1 does.
        A = [[0, 0, 0], [0, 0, 0]]  # row side inert
        B = [[0, 3, 1], [3, 0, 1]]
        (rows, cols), log = eliminate_strictly_dominated(A, B)
        assert cols == (0, 1)
        (step,) = log
        assert step.side == "column" and step.index == 2
        assert len(step.dominator_indices) == 2
        # The recorded mixture really does dominate the removed column.
        w = dict(zip(step.dominator_indices, step.dominator_weights))
        for r in range(2):
            mixed = sum(B[r][j] * w[j] for j in w)
            assert mixed > B[r][2]

    def test_nothing_to_remove(self):
        A = [[1, -1], [-1, 1]]
        (rows, cols), log = eliminate_strictly_dominated(A, neg(A))
        assert log == ()
        assert (rows, cols) == ((0, 1), (0, 1))

    def test_requires_two_rows(self):
        A = [[1, 2], [3, 4], [5, 6]]
        with pytest.raises(ValueError):
            eliminate_strictly_dominated(A, neg(A))

    @pytest.mark.parametrize(
        "variant, log_labels, survivors, dominators",
        [
            (
                CLASSIC,
                ["SSSD", "SSDD", "SDSS", "SDSD", "SDDS", "SDDD",
                 "DSSS", "DSSD", "DDSS", "DDSD", "DDDS"],
                ("SSSS", "SSDS", "DSDS", "DSDD", "DDDD"),
                [((10, 11), (F(235, 2782), F(2547, 2782))),
                 ((10, 11), (F(215, 2782), F(2567, 2782))),
                 ((2,), (1,)), ((11,), (1,)), ((10,), (1,)), ((11,), (1,)),
                 ((2, 10), (F(4, 43), F(39, 43))),
                 ((10, 11), (F(10, 1391), F(1381, 1391))),
                 ((10,), (1,)), ((11,), (1,)),
                 ((10, 11), (F(2645, 2782), F(137, 2782)))],
            ),
            (
                MODERN,
                ["DS", "StandOn5", "SS", "SD"],
                ("DD",),
                [((1, 3), (F(4, 43), F(39, 43))),
                 ((1,), (1,)), ((3,), (1,)), ((3,), (1,))],
            ),
        ],
        ids=["classic", "modern"],
    )
    def test_variant_logs_at_one_twentieth(
        self, variant, log_labels, survivors, dominators
    ):
        game = build_reduced_game(variant, F(1, 20))
        (rows, cols), log = eliminate_strictly_dominated(*game.scaled)
        labels = {"column": game.column_labels, "row": game.row_labels}
        assert [str(labels[step.side][step.index]) for step in log] == log_labels
        assert tuple(game.column_labels[j] for j in cols) == survivors
        assert [(s.dominator_indices, s.dominator_weights) for s in log] == dominators

    def test_two_point_certificates_are_parallel_to_the_column(self):
        """A two-point dominator beats the column it removes by the same
        positive margin on both rows: the mix has the column's slope."""
        rng = random.Random(20261019)
        games = [(g.A, g.B) for g in (build_reduced_game(v, a) for v, a in (
            (CLASSIC, F(1, 20)), (CLASSIC, F(37, 1234)), (CLASSIC, F(0)),
            (MODERN, F(1, 20)), (MODERN, F(101, 700)), (PARLOR, F(0)),
        ))]
        for _ in range(300):
            n = rng.randint(3, 8)
            games.append([
                [[_mixed_fraction(rng) for _ in range(n)] for _ in range(2)]
                for _ in range(2)
            ])
        pairs = 0
        for A, B in games:
            _, log = eliminate_strictly_dominated(A, B)
            for step in log:
                if len(step.dominator_indices) == 2:
                    pairs += 1
                    m0, m1 = (
                        sum(w * row[k] for k, w in zip(
                            step.dominator_indices, step.dominator_weights
                        )) - row[step.index]
                        for row in B
                    )
                    assert m0 == m1 > 0, (B, step)
        assert pairs > 50

    def test_random_games_certificates_and_survivors(self):
        """Every logged dominator strictly beats what it removed on the
        opponent strategies alive at that step, and every survivor is a
        best reply to some mix of the surviving rows -- on integer games
        and on games with mixed denominators, which the solver scales to
        integers."""
        rng = random.Random(20261017)
        for _ in range(300):
            n = rng.randint(2, 6)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
            _check_certificates_and_survivors(A, B)
        rng = random.Random(20261018)
        for _ in range(300):
            n = rng.randint(2, 8)
            A, B = (
                [[_mixed_fraction(rng) for _ in range(n)] for _ in range(2)]
                for _ in range(2)
            )
            _check_certificates_and_survivors(A, B)


def _mixed_fraction(rng):
    return F(rng.randint(-12, 12), rng.choice((1, 2, 3, 7, 12)))


def _check_certificates_and_survivors(A, B):
    n = len(A[0])
    survivors, log = eliminate_strictly_dominated(A, B)
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
    assert survivors == (tuple(rows), tuple(cols))
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


def _pairwise_envelope(M, cols, lo=0, hi=1):
    """The envelope before the hull walk: ``lo``, ``hi`` and every
    pairwise crossing between them, each with the columns on top there."""
    lines = {j: (M[0][j], M[1][j] - M[0][j]) for j in cols}
    ps = {F(lo), F(hi)}
    for (a1, s1), (a2, s2) in combinations(lines.values(), 2):
        if s1 != s2:
            p = (a2 - a1) / (s1 - s2)
            if lo < p < hi:
                ps.add(p)
    points = []
    for p in sorted(ps):
        values = {j: a + s * p for j, (a, s) in lines.items()}
        height = max(values.values())
        points.append((p, tuple(j for j in cols if values[j] == height)))
    return points


_entries = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 7, 12)))


@st.composite
def _line_sets(draw):
    """Columns of a 2-row matrix, some free, some copies of earlier ones and
    some through a shared point, so that several lines tie on top; plus a
    subset of them and a p-range."""
    cols = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("free", "copy", "pencil")))
        if kind == "copy" and cols:
            cols.append(draw(st.sampled_from(cols)))
        elif kind == "pencil":
            p, s = draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(1)))), draw(_entries)
            a = F(1, 2) - s * p  # the line through (p, 1/2) with slope s
            cols.append((a, a + s))
        else:
            cols.append((draw(_entries), draw(_entries)))
    M = tuple(tuple(c[r] for c in cols) for r in range(2))
    alive = draw(st.sets(st.integers(0, len(cols) - 1), min_size=1))
    lo, hi = draw(st.sampled_from(((0, 1), (0, 0), (1, 1))))
    return M, sorted(alive), lo, hi


@settings(max_examples=400, deadline=None)
@given(_line_sets())
def test_hull_walk_vertices_are_pairwise_breakpoints(case):
    """Every vertex the walk returns is a pairwise breakpoint with the same
    columns on top, and both find the same best replies overall."""
    M, cols, lo, hi = case
    walked = _envelope(_integral(M)[1], cols, lo, hi)
    reference = dict(_pairwise_envelope(M, cols, lo, hi))
    assert walked[0][0] == lo and walked[-1][0] == hi
    for p, best in walked:
        assert reference[p] == best, (p, best)
    assert {j for _, best in walked for j in best} == {
        j for best in reference.values() for j in best
    }


@st.composite
def _tied_games(draw):
    """A 2 x n game whose Banker lines come from :func:`_line_sets` (ties
    and duplicate columns), with Player's rows sometimes tied in a column."""
    B, _, _, _ = draw(_line_sets())
    n = len(B[0])
    A = [[draw(st.integers(-50, 50)) for _ in range(n)] for _ in range(2)]
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.integers(0, n - 1))
        A[1][c] = A[0][c]
    return A, B


@settings(max_examples=300, deadline=None)
@given(_tied_games())
def test_enumeration_certificate_is_the_nondegeneracy_check(game):
    A, B = game
    res = enumerate_nash_2xn(A, B)
    assert (res.complete, res.witness) == is_nondegenerate(A, B)


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

    def test_no_continuum_point_is_a_pure_profile(self):
        """A report's kind is read off its supports.  A point that stands
        for a continuum always mixes one side: where its midpoint lands
        on an end of [0, 1], the pure profile there is recorded first."""
        rng = random.Random(20261020)
        continua = 0
        for _ in range(3000):
            n = rng.randint(1, 5)
            A, B = ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
                    for _ in range(2))
            for e in enumerate_nash_2xn(A, B).equilibria:
                if "continuum" in e.note:
                    continua += 1
                    supports = len(e.row_support), len(e.column_support)
                    assert supports != (1, 1) and e.kind == "mixed", (A, B, e)
        assert continua > 100


def test_verify_rejects_non_equilibrium():
    A = [[1, -1], [-1, 1]]
    bad = EquilibriumReport(
        row_strategy=MixedStrategy((F(2, 3), F(1, 3))),
        column_strategy=MixedStrategy((F(1, 2), F(1, 2))),
        row_value=0,
        column_value=0,
    )
    assert not verify_equilibrium(A, neg(A), bad)


@pytest.mark.parametrize(
    "change",
    [
        {"row_strategy": MixedStrategy.pure(0, 3)},
        {"column_strategy": MixedStrategy.pure(0, 3)},
    ],
    ids=["three rows", "three columns"],
)
def test_verify_rejects_a_report_of_another_shape_or_support(change):
    """The pure profile (0, 0) is an equilibrium of this game, and the
    report says so, until its shape no longer matches.  Its supports are
    read off its strategies, so no report can state another support."""
    A = [[1, 0], [0, 1]]
    assert verify_equilibrium(A, A, _REPORT)
    assert not verify_equilibrium(A, A, _REPORT._replace(**change))


@pytest.mark.parametrize("field", ["row_strategy", "column_strategy"])
def test_verify_refuses_a_strategy_that_is_no_mix(field):
    """A report's strategies are MixedStrategy objects: a plain tuple of
    weights raises a TypeError that names the field."""
    A = [[1, 0], [0, 1]]
    report = _REPORT._replace(**{field: (F(1), F(0))})
    with pytest.raises(TypeError, match=f"report.{field} must be a MixedStrategy, not tuple"):
        verify_equilibrium(A, A, report)


# --- the integer stages against their fraction references ------------------


@st.composite
def _column_games(draw):
    """Integer 2-row games whose columns are drawn free, as copies of
    earlier ones, or sharing a row entry with one; most often one column
    is put on or just below a mix of two others.  Pure, two-point and no
    dominators all occur."""
    coords = st.integers(-6, 6)
    columns = []
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("free", "copy", "shared")))
        if kind == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
            continue
        v = (draw(coords), draw(coords))
        if kind == "shared" and columns:
            other = draw(st.sampled_from(columns))
            v = tuple(o if draw(st.booleans()) else x for o, x in zip(other, v))
        columns.append(v)
    n = len(columns)
    below = draw(st.sampled_from((1, 0, 2, 1, None)))  # None: leave it
    if below is not None and n >= 3:
        j, k, l = draw(st.permutations(range(n)))[:3]
        w = draw(st.sampled_from((F(1, 2), F(1, 3), F(3, 4))))
        columns[j] = tuple(
            math.floor(w * y + (1 - w) * z) - below
            for y, z in zip(columns[k], columns[l])
        )
    return [list(row) for row in zip(*columns)]


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(_column_games())
def test_elimination_verdicts_are_the_cut_and_midpoint_search(B):
    """In the first pass, a column falls exactly when the pairwise search
    over the survivors finds it a dominator; its certificate is pure
    exactly when that search's is, and then names the same column."""
    n = len(B[0])
    A = [[0] * n, [0] * n]  # row side inert: one pass decides the columns
    (_, cols), log = eliminate_strictly_dominated(A, B)
    steps = {s.index: s for s in log}
    vectors = dict(enumerate(zip(*B)))
    for j in range(n):
        ref = fraction_dominator(vectors, j, cols)
        assert (j in steps) == (ref is not None), (B, j)
        if ref is not None:
            pure = len(ref[0]) == 1
            assert (len(steps[j].dominator_indices) == 1) == pure, (B, j)
            if pure:
                assert steps[j].dominator_indices == ref[0], (B, j)


_mixed_entries = st.builds(
    F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 7, 12, 13**3))
)


@st.composite
def _mixed_games(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    A, B = (
        [[draw(_mixed_entries) for _ in range(n)] for _ in range(2)]
        for _ in range(2)
    )
    return A, B


def _swapped(A, B, report, side, i, k):
    """``report`` with two of one side's weights swapped and its values
    made the ones that profile realizes, so that only a best-reply check
    can reject it."""
    field = f"{side}_strategy"
    w = list(getattr(report, field).weights)
    w[i], w[k] = w[k], w[i]
    mix = MixedStrategy(tuple(w))
    claim = report._replace(**{field: mix})
    row, col = claim.row_strategy, claim.column_strategy

    def value(M):
        return sum(row[r] * col[c] * M[r][c] for r in range(2) for c in range(len(col)))

    return claim._replace(row_value=value(A), column_value=value(B))


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(_mixed_games(), st.data())
def test_integer_verification_is_the_fraction_verification(game, data):
    """On true reports, on ones with a value off by 1/13^6, and on ones
    with two weights swapped (and the values that profile realizes), the
    integer verifier agrees with the fraction one."""
    A, B = game
    shift = F(1, 13**6)
    n = len(A[0])
    for report in enumerate_nash_2xn(A, B).equilibria:
        claims = [
            report,
            report._replace(row_value=report.row_value + shift),
            report._replace(column_value=report.column_value - shift),
            _swapped(A, B, report, "row", 0, 1),
        ]
        if n > 1:
            i, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            claims.append(_swapped(A, B, report, "column", i, k))
        for claim in claims:
            assert verify_equilibrium(A, B, claim) == fraction_verify(A, B, claim), claim


def _as_tuples(equilibria):
    return {
        (e.row_strategy.weights, e.column_strategy.weights, e.row_value, e.column_value)
        for e in equilibria
    }


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(_mixed_games())
def test_enumeration_and_elimination_match_the_reference(game):
    """On a nondegenerate game the enumeration finds exactly the
    reference's equilibria, and so does the reference on the reduction by
    elimination, expanded back to the full game."""
    A, B = game
    assume(is_nondegenerate(A, B)[0])
    res = enumerate_nash_2xn(A, B)
    assert res.complete
    reference = support_equilibria(A, B)
    assert _as_tuples(res.equilibria) == reference
    (rows, cols), _ = eliminate_strictly_dominated(A, B)
    expanded = set()
    for x, y, u, v in support_equilibria(sub(A, rows, cols), sub(B, rows, cols)):
        full_x, full_y = [F(0)] * 2, [F(0)] * len(A[0])
        for r, w in zip(rows, x):
            full_x[r] = w
        for c, w in zip(cols, y):
            full_y[c] = w
        expanded.add((tuple(full_x), tuple(full_y), u, v))
    assert expanded == reference


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(_mixed_games(), _tied_games()))
def test_every_mix_the_solver_builds_is_the_public_constructors(game):
    """The enumeration builds its mixes without the number gate, which
    each weight has passed already; every such mix equals the one the
    public constructor makes of its weights, field for field."""
    for e in enumerate_nash_2xn(*game).equilibria:
        for mix in (e.row_strategy, e.column_strategy):
            public = MixedStrategy(mix.weights)
            assert type(mix) is MixedStrategy
            assert (mix.weights, mix.support, mix._scaled) == (
                public.weights, public.support, public._scaled)


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(_mixed_games(), _tied_games()))
def test_the_eliminations_last_breakpoints_are_the_residuals_envelope(game):
    """When both rows survive, the elimination ran one round over [0, 1]
    and its fallen columns were on top at no breakpoint: its breakpoints
    are the surviving columns' own envelope, which is what solve_variant
    hands the enumeration."""
    (rows, cols), _, points = solver._eliminate(*game)
    assume(len(rows) == 2)
    assert points == _envelope(_integral(game[1])[1], cols)


def _lifted(enum, cols, n):
    """A subgame's enumeration in the indexing of the full game of ``n``
    columns: each column mix zero-padded, each witness index mapped back
    through ``cols``."""
    def pad(mix):
        weights = [F(0)] * n
        for j, w in zip(cols, mix.weights):
            weights[j] = w
        return MixedStrategy(weights)

    witness = enum.witness
    if witness is not None and witness.side == "column":
        witness = witness._replace(strategy=cols[witness.strategy])
    elif witness is not None:
        witness = witness._replace(best_responses=tuple(cols[j] for j in witness.best_responses))
    return NashEnumeration(
        tuple(e._replace(column_strategy=pad(e.column_strategy)) for e in enum.equilibria),
        witness,
    )


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_mixed_games(), _tied_games()), st.data())
def test_enumerating_a_column_subset_is_enumerating_its_submatrix(game, data):
    """The enumeration over some columns of a game, in place, is the one
    of the submatrix those columns span, read in the game's indexing:
    the same equilibria, ``unique`` and notes, and the same degeneracy
    witness.  A column left out, even one that ties both rows, plays no
    part."""
    A, B = game
    n = len(A[0])
    cols = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    alone = enumerate_nash_2xn(sub(A, (0, 1), cols), sub(B, (0, 1), cols))
    in_place = solver._enumerate(A, B, cols)
    assert in_place == _lifted(alone, cols, n)
    assert in_place.complete == alone.complete


# ---------------------------------------------------------------------------
# Metamorphic relations: a game transformed in a way that must not change
# its answers, or must change them in a known way, is solved again and the
# two answers are compared.  Survivors are compared as sets, not through the
# logs, since a tie between dominators breaks by index.
# ---------------------------------------------------------------------------


def _profiles(enum, perm=None, swap=False, values=True):
    """The equilibria of ``enum`` as a set of (row weights, column weights,
    note, unique, values), read back in the indexing of the game before a
    column permutation ``perm`` (column j was column ``perm[j]``) and, with
    ``swap``, a swap of the two rows.  Without ``values`` the payoffs are
    left out."""
    profiles = set()
    for e in enum.equilibria:
        x, y = e.row_strategy.weights, e.column_strategy.weights
        if perm is not None:
            y = tuple(w for _, w in sorted(zip(perm, y)))
        if swap:
            x = x[::-1]
        payoffs = (e.row_value, e.column_value) if values else ()
        profiles.add((x, y, e.note, e.unique, *payoffs))
    return profiles


@seed(20261023)
@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(_mixed_games(), _tied_games()), st.data())
def test_a_column_permutation_permutes_every_answer(game, data):
    """Renumbering the columns renumbers the survivors and the
    equilibria alike, and keeps the nondegeneracy verdict."""
    A, B = game
    perm = data.draw(st.permutations(range(len(A[0]))))
    A2, B2 = ([[row[j] for j in perm] for row in M] for M in (A, B))
    (rows, cols), _ = eliminate_strictly_dominated(A, B)
    (rows2, cols2), _ = eliminate_strictly_dominated(A2, B2)
    assert rows2 == rows and {perm[j] for j in cols2} == set(cols)
    assert is_nondegenerate(A2, B2)[0] == is_nondegenerate(A, B)[0]
    assert _profiles(enumerate_nash_2xn(A2, B2), perm) == _profiles(enumerate_nash_2xn(A, B))


@seed(20261024)
@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(_mixed_games(), _tied_games()))
def test_swapping_the_rows_swaps_every_answer(game):
    """Swapping the two rows swaps the surviving rows and the row
    weights of every equilibrium, and changes nothing else."""
    A, B = game
    A2, B2 = A[::-1], B[::-1]
    (rows, cols), _ = eliminate_strictly_dominated(A, B)
    (rows2, cols2), _ = eliminate_strictly_dominated(A2, B2)
    assert {1 - r for r in rows2} == set(rows) and cols2 == cols
    assert is_nondegenerate(A2, B2)[0] == is_nondegenerate(A, B)[0]
    assert _profiles(enumerate_nash_2xn(A2, B2), swap=True) == _profiles(enumerate_nash_2xn(A, B))


_SCALES = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)
_SHIFTS = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@seed(20261025)
@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(_mixed_games(), _tied_games()), _SCALES, _SHIFTS, st.sampled_from((0, 1)))
def test_a_positive_affine_map_of_one_payoff_matrix_changes_no_strategy(game, a, b, which):
    """Each side's best replies read its own matrix only up to a positive
    scale and a shift, so mapping ``A`` alone, or ``B`` alone, by ``a * x
    + b`` with ``a > 0`` keeps the survivors, the supports, every
    equilibrium strategy and the nondegeneracy verdict."""
    game2 = list(game)
    game2[which] = [[a * x + b for x in row] for row in game[which]]
    assert eliminate_strictly_dominated(*game2)[0] == eliminate_strictly_dominated(*game)[0]
    assert is_nondegenerate(*game2)[0] == is_nondegenerate(*game)[0]
    enum, enum2 = enumerate_nash_2xn(*game), enumerate_nash_2xn(*game2)
    assert [(e.row_support, e.column_support) for e in enum2.equilibria] == [
        (e.row_support, e.column_support) for e in enum.equilibria]
    assert _profiles(enum2, values=False) == _profiles(enum, values=False)

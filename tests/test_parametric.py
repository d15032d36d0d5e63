"""Unit tests for commission sweeps, the break-even rate, and validity bounds."""

import collections
import itertools
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, seed, settings, strategies as st

import baccarat
from baccarat import (
    Action,
    CLASSIC,
    InfoSet,
    MODERN,
    PARLOR,
    PlayerRow,
    STARRED_CELLS,
    Variant,
    equilibrium_curve,
    find_alpha_star,
    build_reduced_game,
    solve_variant,
    table_validity_bound,
)
from baccarat import parametric, solver
from baccarat.parametric import (
    DEFAULT_ALPHA_GRID,
    _validity_bound,
    classic_banker_value,
    classic_draw_probability,
    modern_banker_value,
)
from baccarat.solver import (
    EquilibriumReport,
    MixedStrategy,
    eliminate_strictly_dominated,
    enumerate_nash_2xn,
    verify_equilibrium,
)

F = Fraction


def _fractions_built(call) -> int:
    """How many times ``call()`` enters ``Fraction.__new__``."""
    count = 0
    code = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize(
    "variant, alpha, most",
    [(CLASSIC, F(37, 1234), 25), (MODERN, F(101, 700), 8)],
    ids=["classic", "modern"],
)
def test_a_warm_solve_builds_fractions_only_for_what_it_reports(variant, alpha, most):
    """The game reaches every stage in integers: a warm solve builds the
    envelope's breakpoints, the dominator and equilibrium weights and the
    reported values, and no fraction of the game itself (136 and 35 when
    each stage took the game as fractions, 681 and 135 when the stages
    summed in fractions; 29 and 11 when the envelope built its two ends
    afresh and the modern 1x1 residual skipped the enumeration)."""
    solve_variant(variant, alpha)
    assert _fractions_built(lambda: solve_variant(variant, alpha)) <= most


@pytest.mark.parametrize(
    "variant, alpha",
    [(CLASSIC, F(37, 1234)), (MODERN, F(101, 700))],
    ids=["classic", "modern"],
)
def test_a_warm_solve_runs_each_stage_once_on_one_scaled_game(monkeypatch, variant, alpha):
    """solve_variant reaches its stages through the public names it
    imports, once each, and checks and scales the unreduced matrices at
    most once: the reduced game hands them over in integers.  The modern
    game, whose residual is one column after a Player row falls, runs
    the enumeration too."""
    solve_variant(variant, alpha)
    calls = collections.Counter()

    def count(module, name, counted=lambda *args: True):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += counted(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in ("eliminate_strictly_dominated", "enumerate_nash_2xn", "verify_equilibrium"):
        count(parametric, name)
    count(solver, "_matrix")
    # A matrix has two rows; a mix is scaled as a matrix of one.
    count(solver, "_integral", lambda M: len(M) == 2)
    solve_variant(variant, alpha)
    assert calls["eliminate_strictly_dominated"] == 1
    assert calls["enumerate_nash_2xn"] == 1
    assert calls["verify_equilibrium"] == 1
    assert calls["_matrix"] <= 2 and calls["_integral"] <= 2


def _solve_on_fractions(game):
    """The three public stages run on ``game``'s fraction matrices, with
    a 1x1 residual certified by strictness alone; returns the reduction
    as ``(A, B, column labels)``, both rows against the surviving
    columns, the report and the log."""
    (rows, cols), log = eliminate_strictly_dominated(game.A, game.B)
    A, B = (tuple(tuple(M[r][j] for j in cols) for r in rows) for M in (game.A, game.B))
    if len(rows) == 1 and len(cols) == 1:
        one = MixedStrategy((F(1),))
        sub = EquilibriumReport(one, one, A[0][0], B[0][0], (0,), (0,), "pure", True)
    else:
        enum = enumerate_nash_2xn(A, B)
        assert enum.complete
        (sub,) = enum.equilibria

    def expand(mix, indices, n):
        weights = [F(0)] * n
        for i, w in zip(indices, mix.weights):
            weights[i] = w
        return MixedStrategy(tuple(weights))

    row = expand(sub.row_strategy, rows, 2)
    col = expand(sub.column_strategy, cols, len(game.column_labels))
    report = sub._replace(
        row_strategy=row, column_strategy=col,
        row_support=row.support, column_support=col.support,
    )
    assert verify_equilibrium(game.A, game.B, report)
    A, B = (tuple(tuple(line[j] for j in cols) for line in M) for M in (game.A, game.B))
    return (A, B, tuple(game.column_labels[j] for j in cols)), report, log


@st.composite
def _accepted_rates(draw):
    variant = draw(st.sampled_from([PARLOR, CLASSIC, MODERN]))
    bound = variant.alpha_bound
    if bound == 0:
        return variant, F(0)
    alpha = draw(
        st.fractions(min_value=0, max_value=bound, max_denominator=10**6)
        .filter(lambda a: a < bound)
    )
    return variant, alpha


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(_accepted_rates())
def test_the_integer_game_solves_as_the_fraction_matrices_do(case):
    """The integer form the reduced game carries is its public A and B
    times their scales, and solve_variant's report and log equal those
    of the public routines run on the plain fraction matrices.  Its
    2 x n residual has exactly one equilibrium, certified complete, and
    that equilibrium, placed at the surviving columns, is the report."""
    variant, alpha = case
    game = build_reduced_game(variant, alpha)
    for M, (scale, ints) in zip((game.A, game.B), game.scaled):
        assert scale > 0
        assert ints == tuple(tuple(x * scale for x in row) for row in M)
    sol = solve_variant(variant, alpha)
    reduced, report, log = _solve_on_fractions(game)
    assert (sol.report, sol.elimination_log) == (report, log)
    assert (sol.reduced.A, sol.reduced.B, sol.reduced.column_labels) == reduced
    enum = enumerate_nash_2xn(sol.reduced.A, sol.reduced.B)
    assert enum.complete
    (eq,) = enum.equilibria
    surviving = [game.column_labels.index(c) for c in sol.reduced.column_labels]
    weights = [F(0)] * len(game.column_labels)
    for j, w in zip(surviving, eq.column_strategy.weights):
        weights[j] = w
    assert MixedStrategy(weights) == sol.report.column_strategy
    assert eq.row_strategy == sol.report.row_strategy


class TestSolveVariant:
    def test_parlor_report_spans_all_sixteen_columns(self):
        sol = solve_variant(PARLOR)
        assert len(sol.report.column_strategy) == 16
        assert set(sol.column_mixture) == {"DSDS", "DSDD"}
        assert sum(sol.column_mixture.values()) == 1
        assert sol.banker_value == -sol.player_value

    def test_classic_needs_mixed_dominators(self):
        """Pure-vs-pure dominance alone cannot finish the column cleanup."""
        sol = solve_variant(CLASSIC, F(1, 20))
        assert any(len(s.dominator_indices) == 2 for s in sol.elimination_log)
        assert all(s.side == "column" for s in sol.elimination_log)
        assert len(sol.reduced.column_labels) == 5

    def test_modern_reduces_to_a_point(self):
        sol = solve_variant(MODERN, F(1, 20))
        assert len(sol.reduced.column_labels) == 1
        assert sol.reduced.column_labels == ("DD",)
        assert sol.report.kind == "pure"

    def test_modern_equilibrium_survives_higher_commissions(self):
        sol = solve_variant(MODERN, F(1, 3))
        assert sol.report.kind == "pure"
        assert sol.player_draw_probability == 1
        assert sol.player_value == solve_variant(MODERN, 0).player_value

    def test_alpha_bound_enforced(self):
        with pytest.raises(ValueError):
            solve_variant(CLASSIC, F(1, 10))
        with pytest.raises(ValueError):
            solve_variant(MODERN, F(2, 5))
        with pytest.raises(TypeError):
            solve_variant(CLASSIC, 0.05)
        with pytest.raises(ValueError, match="commission-free"):
            solve_variant(PARLOR, F(1, 20))

    def test_accepted_rate_without_a_unique_equilibrium(self):
        """A wide custom bound admits rates where the game is degenerate:
        that is a ValueError about the input, not an internal assertion."""
        wide = Variant("wide", STARRED_CELLS, {})
        with pytest.raises(
            ValueError, match=r"'wide' at alpha=2/5 has no unique equilibrium"
        ):
            solve_variant(wide, F(2, 5))
        # At 1/6 the 2x5 residual is degenerate: columns DSDD and DDDD tie
        # against row 1, so one equilibrium found is not a certified one.
        w = Variant("w", STARRED_CELLS, {})
        with pytest.raises(
            ValueError, match=r"'w' at alpha=1/6 has no unique equilibrium"
        ):
            solve_variant(w, F(1, 6))

    @pytest.mark.parametrize("alpha", [F(1, 20), F(1, 6), F(2, 5)])
    def test_every_split_is_solved_uniquely_or_refused(self, alpha):
        """Over the 81 ways to make each starred cell optional or fixed to
        one action, a returned solution is certified unique."""
        refused = 0
        for picks in itertools.product((None, Action.STAND, Action.DRAW), repeat=4):
            cells = dict(zip(STARRED_CELLS, picks))
            optional = [c for c, a in cells.items() if a is None]
            fixed = {c: a for c, a in cells.items() if a is not None}
            try:
                sol = solve_variant(Variant("v", optional, fixed), alpha)
            except ValueError:
                refused += 1
                continue
            assert sol.report.unique, picks
        assert refused < 81


class TestClosedForms:
    @pytest.mark.parametrize("alpha", [0, F(1, 100), F(1, 30), F(1, 20), F(1, 16)])
    def test_draw_probability_formula(self, alpha):
        sol = solve_variant(CLASSIC, alpha)
        a = F(alpha)
        assert sol.player_draw_probability == classic_draw_probability(alpha)
        assert classic_draw_probability(alpha) == (9 - a) / (11 - 6 * a)

    @pytest.mark.parametrize("alpha", [0, F(1, 30), F(1, 20)])
    def test_banker_value_formulas(self, alpha):
        sol = solve_variant(CLASSIC, alpha)
        assert sol.banker_value == classic_banker_value(alpha)
        solm = solve_variant(MODERN, alpha)
        assert solm.banker_value == modern_banker_value(alpha)

    def test_player_value_does_not_depend_on_commission(self):
        values = {
            solve_variant(CLASSIC, a).player_value
            for a in (0, F(1, 30), F(1, 20))
        }
        assert values == {solve_variant(PARLOR).player_value}

    def test_commission_transfers_from_banker_only(self):
        # Raising the commission hurts Banker and leaves Player alone.
        v_low = classic_banker_value(F(1, 100))
        v_high = classic_banker_value(F(1, 20))
        assert v_high < v_low


class TestEquilibriumCurve:
    def test_default_grid_passes_internal_checks(self):
        sweep = equilibrium_curve(CLASSIC)
        assert sweep.validity_bound == F(1, 15)
        assert len(sweep.samples) == len(DEFAULT_ALPHA_GRID)
        alphas = [a for a, _ in sweep.samples]
        assert alphas == sorted(alphas)

    def test_modern_sweep(self):
        sweep = equilibrium_curve(MODERN, (0, F(1, 20), F(1, 5), F(39, 100)))
        assert sweep.validity_bound == F(2, 5)
        for _, sol in sweep.samples:
            assert sol.report.kind == "pure"

    def test_grid_outside_bound_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_curve(CLASSIC, (0, F(1, 14)))

    def test_parlor_sweeps_zero_only(self):
        sweep = equilibrium_curve(PARLOR)
        assert [a for a, _ in sweep.samples] == [0]
        assert sweep.validity_bound == F(1, 15)
        with pytest.raises(ValueError):
            equilibrium_curve(PARLOR, (0, F(1, 20)))


@pytest.mark.parametrize(
    "variant, alpha", [(PARLOR, 0), (CLASSIC, F(74, 2623)), (MODERN, F(1, 20))],
    ids=["parlor", "classic", "modern"],
)
def test_banker_draw_probability_is_a_fraction_at_every_optional_cell(variant, alpha):
    """A cell where no support column draws is the Fraction 0, not the int
    0 of an empty sum, so the command line renders it twice as well."""
    sol = solve_variant(variant, alpha)
    probabilities = [sol.banker_draw_probability(c) for c in variant.optional_cells]
    assert [type(q) for q in probabilities] == [Fraction] * len(probabilities)


def _summary(sweep):
    return [
        (
            a,
            sol.player_value,
            sol.banker_value,
            sol.player_draw_probability,
            {c: sol.banker_draw_probability(c) for c in sol.variant.optional_cells},
        )
        for a, sol in sweep.samples
    ]


class TestVariantsByStructure:
    def test_classic_shape_under_another_name(self, monkeypatch):
        mine = Variant("mine", tuple(reversed(STARRED_CELLS)), {})
        sweep = equilibrium_curve(mine)
        assert sweep.validity_bound == F(1, 15)
        assert _summary(sweep) == _summary(equilibrium_curve(CLASSIC))
        # The closed forms are asserted: a wrong one makes the sweep raise.
        monkeypatch.setattr(baccarat.parametric, "BANKER_STAND_CELL_DRAW_Q", F(1, 2))
        with pytest.raises(AssertionError, match="banker mix"):
            equilibrium_curve(mine)

    def test_modern_shape_under_another_name(self, monkeypatch):
        mine = Variant(
            "mine", tuple(reversed(MODERN.optional_cells)), MODERN.fixed_actions
        )
        assert table_validity_bound(mine) == F(2, 5)
        sweep = equilibrium_curve(mine, (0, F(1, 20), F(1, 2)))
        assert sweep.validity_bound == F(2, 5)
        monkeypatch.setattr(baccarat.parametric, "MODERN_PLAYER_VALUE", F(0))
        with pytest.raises(AssertionError, match="modern player value"):
            equilibrium_curve(mine, (F(1, 20),))

    def test_closed_forms_checked_only_below_the_validity_bound(self):
        wide = Variant("wide", STARRED_CELLS, {}, alpha_bound=1)
        sweep = equilibrium_curve(wide, (0, F(1, 10), F(1, 5)))
        assert sweep.validity_bound == F(1, 15)
        assert [a for a, _ in sweep.samples] == [0, F(1, 10), F(1, 5)]

    def test_other_shapes_report_their_alpha_bound(self):
        house = Variant(
            "house", (InfoSet(6, None),),
            {InfoSet(3, 9): Action.DRAW, InfoSet(4, 1): Action.STAND,
             InfoSet(5, 4): Action.DRAW},
            alpha_bound=F(1, 10),
        )
        with pytest.raises(ValueError, match="shaped like classic or modern"):
            table_validity_bound(house)
        sweep = equilibrium_curve(house, (0,))
        assert sweep.validity_bound == F(1, 10)


class TestAlphaStar:
    def test_default_bracket(self):
        br = find_alpha_star()
        assert br.hi - br.lo <= F(1, 10**9)
        assert 0 < br.lo < br.hi < F(33, 500)
        assert br.iterations > 20
        # Below the break-even rate banking is strictly the better seat;
        # above it the order flips.
        parlor = solve_variant(PARLOR).player_value
        assert classic_banker_value(br.lo) > parlor
        assert classic_banker_value(br.hi) < parlor

    def test_coarse_tolerance(self):
        br = find_alpha_star(F(1, 10**4))
        assert br.hi - br.lo <= F(1, 10**4)
        assert abs(float(br.midpoint) - 0.0556531) < 1e-4
        assert br.tolerance == F(1, 10**4)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            find_alpha_star(0)
        with pytest.raises(TypeError):
            find_alpha_star(1e-9)

    @pytest.mark.parametrize(
        "tol, lo, hi, iterations",
        [
            (F(1, 10**9), F(1867406673, 33554432000), F(933703353, 16777216000), 26),
            (F(1, 10**4), F(28479, 512000), F(891, 16000), 10),
            (F(1, 2), F(0), F(33, 500), 0),
            (
                F(1, 10**15),
                F(1958117835267, 35184372088832),
                F(1958117835267033, 35184372088832000),
                46,
            ),
        ],
    )
    def test_bracket_is_the_bisection_cell(self, tol, lo, hi, iterations):
        """The same cell of the halved [0, 33/500] grid that bisection
        on the solved values returns."""
        br = find_alpha_star(tol)
        assert (br.lo, br.hi, br.iterations) == (lo, hi, iterations)

    def test_fine_bracket_takes_two_solves(self, monkeypatch):
        solve = baccarat.parametric.solve_variant
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(baccarat.parametric, "solve_variant", counting)
        tol = F(1, 10**60)
        br = find_alpha_star(tol)
        assert [args[1] for args in calls] == [br.lo, br.hi]
        assert 0 < br.hi - br.lo <= tol
        # The root (34601239 - sqrt(D)) / 36711576, sandwiched between
        # consecutive scaled integers as in acceptance criterion 7.
        disc = 34601239**2 - 4 * 18355788 * 1868812
        scale = 10**80
        s = isqrt(disc * scale * scale)
        surd_lo = F(34601239 * scale - (s + 1), 36711576 * scale)
        surd_hi = F(34601239 * scale - s, 36711576 * scale)
        assert br.lo < surd_lo and surd_hi < br.hi


class TestValidityBounds:
    def test_known_bounds(self):
        assert table_validity_bound(CLASSIC) == F(1, 15)
        assert table_validity_bound(PARLOR) == F(1, 15)
        assert table_validity_bound(MODERN) == F(2, 5)

    def test_scan_runs_once_per_shape(self):
        """Names, bounds and cell order do not key the cached scan."""
        _validity_bound.cache_clear()
        variants = (
            CLASSIC,
            PARLOR,
            Variant("mine", tuple(reversed(STARRED_CELLS)), {}),
            MODERN,
            Variant(
                "mine", tuple(reversed(MODERN.optional_cells)), MODERN.fixed_actions
            ),
        )
        bounds = [table_validity_bound(v) for v in variants]
        assert bounds == [F(1, 15)] * 3 + [F(2, 5)] * 2
        info = _validity_bound.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 3, 2)

    def test_modern_bound_is_where_a_mandate_stops_binding(self):
        # At the modern bound the forced stand at (6,-) ceases to be a
        # restriction: drawing there stops being strictly better for
        # Banker against Player's drawing row.
        from fraction_reference import info_set_stats

        bound = table_validity_bound(MODERN)
        below = info_set_stats(
            InfoSet(6, None), PlayerRow.DRAW_ON_5, bound - F(1, 100)
        ).improvement
        at = info_set_stats(InfoSet(6, None), PlayerRow.DRAW_ON_5, bound).improvement
        assert below > 0
        assert at == 0

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
    [(CLASSIC, F(37, 1234), 21), (MODERN, F(101, 700), 8)],
    ids=["classic", "modern"],
)
def test_a_warm_solve_builds_fractions_only_for_what_it_reports(variant, alpha, most):
    """The game reaches every stage in integers: a warm solve builds the
    envelope's breakpoints, the dominator and equilibrium weights and the
    reported values, and no fraction of the game itself (136 and 35 when
    each stage took the game as fractions, 681 and 135 when the stages
    summed in fractions; 29 and 11 when the envelope built its two ends
    afresh and the modern 1x1 residual skipped the enumeration; 25 for
    classic when the enumeration walked the residual's hull again)."""
    solve_variant(variant, alpha)
    assert _fractions_built(lambda: solve_variant(variant, alpha)) <= most


@pytest.mark.parametrize(
    "variant, alpha, walks",
    [(CLASSIC, F(37, 1234), 1), (MODERN, F(101, 700), 3)],
    ids=["classic", "modern"],
)
def test_a_warm_solve_runs_each_stage_once_on_one_scaled_game(monkeypatch, variant, alpha, walks):
    """solve_variant walks the hull once when both rows survive: the
    enumeration reads the elimination's breakpoints.  The modern game,
    whose residual is one column after a Player row falls, walks it in
    both elimination rounds and in the enumeration.  The solve verifies
    once, and checks and scales the unreduced matrices at most once: the
    reduced game hands them over in integers."""
    solve_variant(variant, alpha)
    calls = collections.Counter()

    def count(module, name, counted=lambda *args: True):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += counted(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(parametric, "verify_equilibrium")
    count(solver, "_envelope")
    count(solver, "_matrix")
    # A matrix has two rows; a mix is scaled as a matrix of one.
    count(solver, "_integral", lambda M: len(M) == 2)
    solve_variant(variant, alpha)
    assert calls["_envelope"] == walks
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
        sub = EquilibriumReport(one, one, A[0][0], B[0][0], True)
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
    report = sub._replace(row_strategy=row, column_strategy=col)
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


def _pure(*steps):
    return [(side, j, (k,), (F(1),)) for side, j, k in steps]


def _pair(j, k, l, w_k, w_l):
    return [("column", j, (k, l), (F(w_k), F(w_l)))]


#: The classic logs differ only in the five two-point weights, listed as
#: those of columns 1, 3, 8, 9 and 14.
_CLASSIC_PAIRS = {
    F(0): ("12/143", "131/143", "1/13", "12/13", "1/11", "10/11",
           "1/143", "142/143", "136/143", "7/143"),
    F(37, 1234): ("14623/173576", "158953/173576", "13389/173576", "160187/173576",
                  "1234/13389", "12155/13389", "617/86788", "86171/86788",
                  "165049/173576", "8527/173576"),
    F(1, 16): ("11/130", "119/130", "171/2210", "2039/2210", "16/171", "155/171",
               "8/1105", "1097/1105", "2101/2210", "109/2210"),
}


def _classic_log(w):
    return [
        *_pair(1, 10, 11, w[0], w[1]), *_pair(3, 10, 11, w[2], w[3]),
        *_pure(("column", 4, 2), ("column", 5, 11), ("column", 6, 10), ("column", 7, 11)),
        *_pair(8, 2, 10, w[4], w[5]), *_pair(9, 10, 11, w[6], w[7]),
        *_pure(("column", 12, 10), ("column", 13, 11)), *_pair(14, 10, 11, w[8], w[9]),
    ]


@pytest.mark.parametrize(
    "variant, alpha, log",
    [*((CLASSIC, a, _classic_log(w)) for a, w in _CLASSIC_PAIRS.items()),
     (PARLOR, F(0), _classic_log(_CLASSIC_PAIRS[F(0)])),
     (MODERN, F(101, 700), [*_pair(2, 1, 3, "140/1439", "1299/1439"),
                            *_pure(("row", 0, 1), ("column", 0, 3), ("column", 1, 3))])],
    ids=["classic-0", "classic-37/1234", "classic-1/16", "parlor", "modern-101/700"],
)
def test_the_elimination_log_is_pinned(variant, alpha, log):
    """Every removal, its dominators and their exact weights, entry for
    entry, as the solver has always logged them."""
    assert [tuple(s) for s in solve_variant(variant, alpha).elimination_log] == log


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

    def test_a_repeated_rate_is_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a grid that repeats a rate")

        monkeypatch.setattr(parametric, "solve_variant", no_solve)
        with pytest.raises(ValueError, match="rate 1/20 more than once"):
            equilibrium_curve(CLASSIC, (0, F(1, 20), "0.05"))

    @pytest.mark.parametrize(
        "grid, error, message",
        [("0", TypeError, "alpha_grid must be a sequence, not str"),
         ("0,1/20", TypeError, "alpha_grid must be a sequence, not str"),
         (b"0", TypeError, "alpha_grid must be a sequence, not bytes"),
         (5, TypeError, "alpha_grid must be a sequence, not int"),
         ([], ValueError, "alpha_grid must list at least one rate")],
        ids=["str", "comma-separated", "bytes", "int", "empty"],
    )
    def test_a_misused_grid_is_refused_before_any_solve(self, monkeypatch, grid, error, message):
        """As ``sweep --grid`` refuses an empty list, so does the library;
        and a string is no list of rates, whatever it spells."""
        def no_solve(*args):
            raise AssertionError("solved a misused grid")

        monkeypatch.setattr(parametric, "solve_variant", no_solve)
        with pytest.raises(error) as refused:
            equilibrium_curve(CLASSIC, grid)
        assert str(refused.value) == message

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


@pytest.mark.parametrize(
    "cell, shown",
    [((6, None), "(6, None)"), ((0, 0), "(0, 0)"), ("x", "'x'")],
    ids=["mandated", "tableau", "not a cell"],
)
def test_banker_draw_probability_refuses_a_cell_that_is_not_optional(cell, shown):
    sol = solve_variant(MODERN, F(1, 20))
    with pytest.raises(ValueError) as info:
        sol.banker_draw_probability(cell)
    assert str(info.value) == (
        f"not an optional cell of modern: {shown} "
        "(its optional cells are (3,9), (5,4))"
    )


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


def _skewed_solve(variant, alpha):
    """A solve whose report has Player mix evenly on 5, so that its
    profile is no longer pure; its values stay the solved ones."""
    sol = solve_variant(variant, alpha)
    half = MixedStrategy((F(1, 2), F(1, 2)))
    return sol._replace(report=sol.report._replace(row_strategy=half))


#: Each figure a sweep checks against its closed form: the variant
#: swept, and the module name patched to make that one figure wrong.
_WRONG_FIGURES = [
    ("draw probability", CLASSIC, "classic_draw_probability", lambda a: F(0)),
    ("banker mix", CLASSIC, "BANKER_STAND_CELL_DRAW_Q", F(1, 2)),
    ("player value", CLASSIC, "PARLOR_PLAYER_VALUE", F(0)),
    ("banker value", CLASSIC, "classic_banker_value", lambda a: F(0)),
    ("modern equilibrium", MODERN, "solve_variant", _skewed_solve),
    ("modern player value", MODERN, "MODERN_PLAYER_VALUE", F(0)),
    ("modern banker value", MODERN, "modern_banker_value", lambda a: F(0)),
]


@pytest.mark.parametrize(
    "figure, variant, name, wrong", _WRONG_FIGURES,
    ids=[figure.replace(" ", "-") for figure, *_ in _WRONG_FIGURES],
)
def test_a_sweep_raises_on_each_figure_off_its_closed_form(monkeypatch, figure, variant, name, wrong):
    """Each of the seven closed forms a sweep checks is checked: with that
    one figure made wrong, by its closed form or by the solved report,
    the sweep raises and names it."""
    equilibrium_curve(variant, (F(1, 20),))
    monkeypatch.setattr(parametric, name, wrong)
    with pytest.raises(AssertionError) as raised:
        equilibrium_curve(variant, (F(1, 20),))
    assert str(raised.value) == f"{figure} off its closed form at alpha=1/20"


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

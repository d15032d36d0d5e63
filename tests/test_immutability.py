"""Every cached value, every value the package hands out again on each
call, every public module-level constant and every public record type of
the package is deeply immutable, so no caller can change what later
calls return.

The walk finds each ``lru_cache``d function in ``src/baccarat/`` by
itself; a cache that :data:`CALLS` does not list fails the test, so a
new cache cannot slip past it.  Likewise a public record type that no
call of :data:`RECORDS` returns fails the test.
"""

import enum
import importlib
import inspect
import pkgutil
from fractions import Fraction
from math import sqrt
from types import MappingProxyType

import pytest

import baccarat
from baccarat import (
    ALL_INFO_SETS,
    CLASSIC,
    MODERN,
    PARLOR,
    InfoSet,
    PlayerRow,
    STARRED_CELLS,
    Variant,
    best_response,
    classify_info_sets,
    enumerate_nash_2xn,
    equilibrium_curve,
    find_alpha_star,
    mandated_banker_strategy,
    play_coup,
    punto_report,
    simulate,
    solve_variant,
)
from baccarat.payoff import (
    natural_probability,
    two_card_total_distribution,
    value_distribution,
)
from baccarat.rules import _TABLEAU_ACTIONS, _Frozen

MODULES = [baccarat] + [
    importlib.import_module(f"baccarat.{info.name}")
    for info in pkgutil.iter_modules(baccarat.__path__)
    if not info.name.startswith("_")
]

#: The argument tuples each cached function is called with.
CALLS = {
    "payoff._analytic_ledger": [()],
    "payoff._gain_table": [()],
    "payoff._column_counts": [
        (v.optional_cells, frozenset(v.fixed_actions.items()))
        for v in (PARLOR, MODERN, Variant("mine", tuple(reversed(STARRED_CELLS)), {}))
    ],
    "payoff._outcome_table": [()],
    "payoff._leaf_ledger": [()],
    "payoff._leaf_sums": [()],
    "parametric._validity_bound": [("classic",), ("modern",)],
}

#: Values that are built, or held, without a cache and handed out alike
#: on every call.
SHARED = {
    "payoff.value_distribution": value_distribution,
    "payoff.two_card_total_distribution": two_card_total_distribution,
    "payoff.natural_probability": natural_probability,
    "punto.punto_report": punto_report,
    "rules._TABLEAU_ACTIONS": lambda: _TABLEAU_ACTIONS,
}

def _cached_functions() -> dict:
    found = {}
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                name = module.__name__.removeprefix("baccarat.")
                found[f"{name}.{value.__name__}"] = value
    return found


CONSTANTS = {
    f"{module.__name__}.{name}": value
    for module in MODULES
    for name, value in vars(module).items()
    if not name.startswith("_")
    and name != "annotations"  # the ``from __future__`` feature
    and not (inspect.ismodule(value) or inspect.isclass(value) or callable(value))
}


def assert_deeply_immutable(value, where: str, seen: set | None = None) -> None:
    """Fail unless ``value`` is built only of immutable parts: tuples
    (named ones among them), frozensets, read-only mappings and
    memoryviews, the package's slotted value types, enums, numbers and
    strings.  The type of every part walked is added to ``seen``."""
    if seen is not None:
        seen.add(type(value))
    leaves = (bool, int, float, str, bytes, Fraction, enum.Enum)
    if value is None or isinstance(value, leaves):
        return
    if isinstance(value, memoryview):
        assert value.readonly, f"{where} is a writable memoryview"
    elif isinstance(value, (tuple, frozenset)):
        assert not hasattr(value, "__dict__"), f"{where} takes new attributes"
        for name in getattr(value, "_fields", ()):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        for i, item in enumerate(value):
            assert_deeply_immutable(item, f"{where}[{i}]", seen)
    elif isinstance(value, MappingProxyType):
        for key, item in value.items():
            assert_deeply_immutable(key, f"{where} key {key!r}", seen)
            assert_deeply_immutable(item, f"{where}[{key!r}]", seen)
    elif isinstance(value, _Frozen):
        assert not hasattr(value, "__dict__"), f"{where} takes new attributes"
        for cls in type(value).__mro__:
            for name in getattr(cls, "__slots__", ()):
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
                assert_deeply_immutable(getattr(value, name), f"{where}.{name}", seen)
    else:
        raise AssertionError(f"{where} is a mutable {type(value).__name__}")


_HALF = (Fraction(1, 2), Fraction(1, 2))

#: One returned instance of every public record type, by the call that
#: returns it.
RECORDS = {
    "solve": lambda: solve_variant(CLASSIC, Fraction(1, 20)),
    "sweep": lambda: equilibrium_curve(MODERN),
    "alpha-star": lambda: find_alpha_star(Fraction(1, 1000)),
    # Column 0 ties both rows, so the game is degenerate and has a witness.
    "enumeration": lambda: enumerate_nash_2xn(((1, 0), (1, 2)), ((1, 0), (0, 1))),
    "best response, player": lambda: best_response("player", (1,) + (0,) * 15, CLASSIC),
    "best response, banker": lambda: best_response("banker", _HALF, CLASSIC),
    "classification": lambda: classify_info_sets(Fraction(1, 20)),
    "punto": punto_report,
    "punto strategy": mandated_banker_strategy,
    "coup": lambda: play_coup(
        (0, 5), (0, 3), (9, 9), PlayerRow.DRAW_ON_5, mandated_banker_strategy()
    ),
    "simulate": lambda: simulate(
        MODERN, PlayerRow.DRAW_ON_5, {InfoSet(3, 9): 1, InfoSet(5, 4): 1}, 0, 100, 1
    ),
}


def test_every_cache_is_listed():
    assert set(_cached_functions()) == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cached_values_are_deeply_immutable(name):
    cached = _cached_functions()[name]
    for args in CALLS[name]:
        assert_deeply_immutable(cached(*args), f"{name}{args}")


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_values_are_deeply_immutable(name):
    assert_deeply_immutable(SHARED[name](), name)


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_public_constants_are_deeply_immutable(name):
    assert_deeply_immutable(CONSTANTS[name], name)


@pytest.mark.parametrize(
    "value",
    [{1: 2}, [1], {1}, bytearray(b"x"), memoryview(bytearray(b"x")), (1, [2])],
    ids=["dict", "list", "set", "bytearray", "memoryview", "tuple of a list"],
)
def test_the_walk_refuses_mutable_values(value):
    with pytest.raises(AssertionError):
        assert_deeply_immutable(value, "value")


@pytest.mark.parametrize("name", RECORDS)
def test_returned_records_are_deeply_immutable(name):
    assert_deeply_immutable(RECORDS[name](), name)


def test_every_public_record_type_is_returned_by_a_record_call():
    seen: set = set()
    for name, make in RECORDS.items():
        assert_deeply_immutable(make(), name, seen)
    public = {
        value
        for module in MODULES
        for value in map(vars(module).get, getattr(module, "__all__", ()))
        if inspect.isclass(value) and issubclass(value, (tuple, _Frozen))
    }
    assert public, "no public record type found"
    assert public <= seen, sorted(cls.__name__ for cls in public - seen)


def _mean_and_error(payoffs):
    """The mean of ``payoffs``, and its standard error from their
    centred plug-in variance."""
    n = len(payoffs)
    mean = sum(payoffs, Fraction(0)) / n
    return float(mean), sqrt(sum((x - mean) ** 2 for x in payoffs) / n / n)


def _derived(name):
    """A record that reads ``name`` off its other fields, and the value
    read from them by hand."""
    sol = RECORDS["solve"]()
    report, game = sol.report, sol.game
    weights = {*report.row_strategy.weights, *report.column_strategy.weights}
    enum = RECORDS["enumeration"]()
    cls = RECORDS["classification"]()
    sim = simulate(
        MODERN, PlayerRow.DRAW_ON_5, {InfoSet(3, 9): 1, InfoSet(5, 4): 1},
        Fraction(1, 20), 100, 1,
    )
    player = [1] * sim.wins + [-1] * sim.losses + [0] * sim.ties
    # Banker pays Player's win in full and keeps 19/20 of Player's loss.
    banker = [-x if x > 0 else -x * Fraction(19, 20) for x in player]
    rep = RECORDS["punto"]()
    bracket = find_alpha_star(Fraction(1, 1000))
    # 33/500 halved 7 times is 33/64000, the first width below 1/1000.
    return {
        "n_hands": (sim, 100),
        "rng": (sim, "python-random-mt19937"),
        "mean_player": (sim, _mean_and_error(player)[0]),
        "std_error": (sim, _mean_and_error(player)[1]),
        "mean_banker": (sim, _mean_and_error(banker)[0]),
        "std_error_banker": (sim, _mean_and_error(banker)[1]),
        # The house's gain per unit on a Player bet, a Banker bet at
        # 19:20, and five percent of the bank's wins.
        "edge_player": (rep, rep.B - rep.P),
        "edge_banker": (rep, rep.P - rep.B * Fraction(19, 20)),
        "edge_chemin": (rep, rep.B * Fraction(5, 100)),
        "iterations": (bracket, 7),
        "hi": (bracket, bracket.lo + Fraction(33, 64000)),
        "player_value": (bracket, Fraction(-679568, 11 * 13**6)),
        "validity_bound": (RECORDS["sweep"](), Fraction(2, 5)),
        "row_support": (report, report.row_strategy.support),
        "column_support": (report, report.column_strategy.support),
        "kind": (report, "pure" if weights <= {0, 1} else "mixed"),
        "complete": (enum, enum.witness is None),
        "starred": (cls, tuple(i for i in ALL_INFO_SETS if i not in cls.determined)),
        "variant": (sol, game.variant),
        "alpha": (sol, game.alpha),
        "row_labels": (game, (PlayerRow.STAND_ON_5, PlayerRow.DRAW_ON_5)),
    }[name]


@pytest.mark.parametrize(
    "name",
    ["row_support", "column_support", "kind", "complete", "starred", "variant",
     "alpha", "row_labels", "n_hands", "rng", "mean_player", "std_error",
     "mean_banker", "std_error_banker", "edge_player", "edge_banker",
     "edge_chemin", "iterations", "hi", "player_value", "validity_bound"],
)
def test_a_derived_name_is_not_stored_and_cannot_be_replaced(name):
    """A record cannot state a value that contradicts the fields it is
    read off: the name is no field, and ``_replace`` refuses it."""
    record, source = _derived(name)
    assert name not in record._fields
    with pytest.raises(ValueError):
        record._replace(**{name: source})
    assert getattr(record, name) == source

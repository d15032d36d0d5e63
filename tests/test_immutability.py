"""Every cached value, every public module-level constant and every
public record type of the package is deeply immutable, so no caller can
change what later calls return.

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
from types import MappingProxyType

import pytest

import baccarat
from baccarat import (
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
from baccarat.rules import _Frozen

MODULES = [baccarat] + [
    importlib.import_module(f"baccarat.{info.name}")
    for info in pkgutil.iter_modules(baccarat.__path__)
    if not info.name.startswith("_")
]

#: The argument tuples each cached function is called with.
CALLS = {
    "payoff.value_distribution": [()],
    "payoff.two_card_total_distribution": [()],
    "payoff.natural_probability": [()],
    "payoff._card_counts": [()],
    "payoff._analytic_ledger": [()],
    "payoff._gain_table": [()],
    "payoff._column_counts": [
        (v.optional_cells, frozenset(v.fixed_actions.items()))
        for v in (PARLOR, MODERN, Variant("mine", tuple(reversed(STARRED_CELLS)), {}))
    ],
    "payoff._outcome_table": [()],
    "payoff._leaf_ledger": [()],
    "rules._tableau_actions": [()],
    "parametric._validity_bound": [("classic",), ("modern",)],
    "punto.punto_report": [()],
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

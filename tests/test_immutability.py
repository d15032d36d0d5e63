"""Every cached value and every public module-level constant of the
package is deeply immutable, so no caller can change what later calls
return.

The walk finds each ``lru_cache``d function in ``src/baccarat/`` by
itself; a cache that :data:`CALLS` does not list fails the test, so a
new cache cannot slip past it.
"""

import dataclasses
import enum
import importlib
import inspect
import pkgutil
from fractions import Fraction
from types import MappingProxyType

import pytest

import baccarat
from baccarat import CLASSIC, MODERN, PARLOR, STARRED_CELLS, Variant

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
        (PARLOR,),
        (CLASSIC,),
        (MODERN,),
        (Variant("mine", tuple(reversed(STARRED_CELLS)), {}),),
    ],
    "payoff._outcome_table": [()],
    "payoff._leaf_ledger": [()],
    "rules._tableau_actions": [()],
    "parametric._validity_bound": [("classic",), ("modern",)],
    "punto.punto_report": [()],
}

#: Caches of objects that are not values, each with the reason it is exempt.
EXEMPT = {
    "cli._build_parser": "the argument parser, built once per process; only run() reads it",
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


def assert_deeply_immutable(value, where: str) -> None:
    """Fail unless ``value`` is built only of immutable parts: tuples,
    frozensets, read-only mappings and memoryviews, frozen dataclasses,
    enums, numbers and strings."""
    if value is None or isinstance(value, (bool, int, str, bytes, Fraction, enum.Enum)):
        return
    if isinstance(value, memoryview):
        assert value.readonly, f"{where} is a writable memoryview"
    elif isinstance(value, (tuple, frozenset)):
        assert not hasattr(value, "__dict__"), f"{where} takes new attributes"
        for i, item in enumerate(value):
            assert_deeply_immutable(item, f"{where}[{i}]")
    elif isinstance(value, MappingProxyType):
        for key, item in value.items():
            assert_deeply_immutable(key, f"{where} key {key!r}")
            assert_deeply_immutable(item, f"{where}[{key!r}]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        assert type(value).__dataclass_params__.frozen, f"{where} is not frozen"
        for field in dataclasses.fields(value):
            assert_deeply_immutable(getattr(value, field.name), f"{where}.{field.name}")
    else:
        raise AssertionError(f"{where} is a mutable {type(value).__name__}")


def test_every_cache_is_listed():
    assert set(_cached_functions()) == set(CALLS) | set(EXEMPT)


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

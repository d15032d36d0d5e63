"""Outside-in tracing of the ``baccarat`` layers, and the per-layer metrics.

:func:`install` wraps every public function of the layer modules and
rebinds the wrapper in every ``baccarat`` module that holds the original,
so calls made through ``parametric.build_reduced_game``,
``montecarlo.solve_variant``, ``payoff.play_coup`` or
``punto.oracle_outcome_distribution`` are all seen.  Nothing inside the
program is edited.  Each call of an ordinary function becomes a span
(name, parent, start, end, self time).  Calls of the hot leaves in
:data:`HOT` are only counted and timed, not kept one by one.  A layer's
self time is its duration minus the time of the wrapped calls it made.

The card and total primitives of ``rules`` (``hand_total``,
``is_natural``, ``mandated_player_action``, ``tableau_action``) stay
unwrapped: they take well under a microsecond and run several times
inside every ``play_coup`` call and every step of the oracle's inner
loop, so a wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("cli", "parametric", "solver", "payoff", "rules", "punto", "montecarlo")
UNWRAPPED = {"rules.hand_total", "rules.is_natural", "rules.mandated_player_action",
             "rules.tableau_action"}
HOT = {"rules.play_coup", "payoff.info_set_stats", "payoff.value_distribution",
       "payoff.two_card_total_distribution", "payoff.natural_probability"}


def _columns_eliminated(args, kwargs, result):
    return {"columns_eliminated": sum(s.side == "column" for s in result[1])}


def _hands(args, kwargs, result):
    return {"hands": args[4] if len(args) > 4 else kwargs["n_hands"]}


def _argv(args, kwargs, result):
    return {"argv": list(args[0] if args else kwargs["argv"])}


#: Attributes read from a call's arguments or result into its span.
ATTRS = {
    "solver.eliminate_strictly_dominated": _columns_eliminated,
    "montecarlo.simulate": _hands,
    "cli.run": _argv,
}


class Tracer:
    """Spans and per-function totals, kept in memory until :meth:`report`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []       # open calls: [child time, span id]
        self._caches: dict[str, object] = {}

    def wrap(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter
        if name in HOT:
            def leaf(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    totals[0] += 1
                    totals[1] += dt
                    totals[2] += dt - frame[0]
            return leaf

        spans, attrs = self.spans, ATTRS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is not None:
            self._caches[name] = cache_info

        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1][1] if stack else None,
                    "name": name}
            spans.append(span)
            frame = [0.0, span["id"]]
            stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - frame[0]
                span.update(start=start, end=start + dt, self=dt - frame[0])
            if cache_info:
                span["cache_miss"] = cache_info().misses > misses
            if attrs:
                span.update(attrs(args, kwargs, result))
            return result
        return traced

    def report(self) -> dict:
        caches = {name: {"hits": info().hits, "misses": info().misses}
                  for name, info in self._caches.items()}
        return {"spans": self.spans, "totals": self.totals, "caches": caches}


def install() -> Tracer:
    """Wrap the public functions of every layer module; return the tracer."""
    tracer = Tracer()
    mods = [importlib.import_module(f"baccarat.{layer}") for layer in LAYERS]
    holders = [m for key, m in sys.modules.items()
               if key == "baccarat" or key.startswith("baccarat.")]
    for layer, mod in zip(LAYERS, mods):
        for fname in mod.__all__:
            obj = getattr(mod, fname)
            name = f"{layer}.{fname}"
            if name in UNWRAPPED or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            wrapper = tracer.wrap(name, obj)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is obj:
                        setattr(holder, attr, wrapper)
    return tracer


# --- per-layer metrics -------------------------------------------------------

_ELIMINATION = "solve_classic_ms, alpha_star_s, sweep_s on analysis; no change on oracle"
_SOLVE = "alpha_star_s on analysis; wall_s on simulate (duplicate solve)"
_SWEEP = "sweep_s on analysis"
_BUILD = "wall_s on every workload (paid once per process)"
_ORACLE = "oracle_entry_ms, wall_s on oracle; no change on analysis, simulate"
_COUP = "hands_per_s on simulate, a little of wall_s on oracle; no change on analysis"
_RENDER = "wall_s on analysis, which runs the most commands (parse and render)"

#: Each per-layer metric: (unit, better, the end-to-end metric and workload
#: it should move).  Layers a workload never reaches read 0.
LAYER_METRICS = {
    "solver.eliminate_strictly_dominated.calls": ("count", "lower", _ELIMINATION),
    "solver.eliminate_strictly_dominated.self_s": ("s", "lower", _ELIMINATION),
    "solver.eliminate_strictly_dominated.ms_per_call": ("ms", "lower", _ELIMINATION),
    "solver.eliminate_strictly_dominated.columns_eliminated": ("count", "higher", _ELIMINATION),
    "solver.enumerate_nash_2xn.self_s": ("s", "lower", "solve_classic_ms on analysis"),
    "solver.is_nondegenerate.self_s": ("s", "lower", "solve_classic_ms on analysis"),
    "solver.verify_equilibrium.self_s": ("s", "lower", "solve_classic_ms on analysis"),
    "parametric.solve_variant.calls": ("count", "lower", _SOLVE),
    "parametric.solve_variant.self_s": ("s", "lower", _SOLVE),
    "parametric.solve_variant.ms_per_call": ("ms", "lower", _SOLVE),
    "parametric.find_alpha_star.total_s": ("s", "lower", "alpha_star_s on analysis"),
    "parametric.find_alpha_star.solves": ("count", "lower", "alpha_star_s on analysis"),
    "parametric.equilibrium_curve.total_s": ("s", "lower", _SWEEP),
    "parametric.table_validity_bound.total_s": ("s", "lower", _SWEEP),
    "payoff.info_set_stats.calls": ("count", "lower", _SWEEP),
    "payoff.info_set_stats.total_s": ("s", "lower", _SWEEP),
    "payoff.classify_info_sets.calls": ("count", "lower", _SWEEP),
    "payoff.classify_info_sets.total_s": ("s", "lower", _SWEEP),
    "payoff.build_reduced_game.calls": ("count", "lower", _BUILD),
    "payoff.build_reduced_game.first_ms": ("ms", "lower", _BUILD),
    "payoff.build_reduced_game.warm_ms": ("ms", "lower", _BUILD),
    "payoff.oracle_outcome_distribution.hits": ("count", "higher", _ORACLE),
    "payoff.oracle_outcome_distribution.misses": ("count", "lower", _ORACLE),
    "payoff.oracle_outcome_distribution.ms_per_miss": ("ms", "lower", _ORACLE),
    "payoff.oracle_payoff_entry.calls": ("count", "lower", _ORACLE),
    "rules.play_coup.calls": ("count", "lower", _COUP),
    "rules.play_coup.us_per_call": ("us", "lower", _COUP),
    "rules.play_coup.total_s": ("s", "lower", _COUP),
    "montecarlo.simulate.us_per_hand": ("us", "lower", "hands_per_s on simulate; no change on analysis"),
    "montecarlo.simulate.self_us_per_hand": ("us", "lower", "hands_per_s on simulate; no change on analysis"),
    "punto.punto_report.total_ms": ("ms", "lower", _RENDER),
    "montecarlo.equilibrium_profile.total_s": ("s", "lower", _RENDER),
    "cli.run.self_ms": ("ms", "lower", _RENDER),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced script, from its :meth:`Tracer.report`."""
    spans, caches = rep["spans"], rep["caches"]

    def tot(name):
        return rep["totals"].get(name, [0, 0.0, 0.0])

    def named(name):
        return [s for s in spans if s["name"] == name]

    by_id = {s["id"]: s for s in spans}

    def under(span, ancestor):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == ancestor:
                return True
        return False

    out: dict[str, float] = {}
    for fn in ("solver.eliminate_strictly_dominated", "parametric.solve_variant"):
        calls, total, own = tot(fn)
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = own
        out[f"{fn}.ms_per_call"] = 1e3 * _ratio(total, calls)
    out["solver.eliminate_strictly_dominated.columns_eliminated"] = sum(
        s.get("columns_eliminated", 0) for s in named("solver.eliminate_strictly_dominated"))
    for fn in ("enumerate_nash_2xn", "is_nondegenerate", "verify_equilibrium"):
        out[f"solver.{fn}.self_s"] = tot(f"solver.{fn}")[2]
    out["parametric.find_alpha_star.total_s"] = tot("parametric.find_alpha_star")[1]
    out["parametric.find_alpha_star.solves"] = sum(
        under(s, "parametric.find_alpha_star") for s in named("parametric.solve_variant"))
    for fn in ("parametric.equilibrium_curve", "parametric.table_validity_bound"):
        out[f"{fn}.total_s"] = tot(fn)[1]
    for fn in ("payoff.info_set_stats", "payoff.classify_info_sets"):
        out[f"{fn}.calls"] = tot(fn)[0]
        out[f"{fn}.total_s"] = tot(fn)[1]
    builds = [s["end"] - s["start"] for s in named("payoff.build_reduced_game")]
    out["payoff.build_reduced_game.calls"] = len(builds)
    out["payoff.build_reduced_game.first_ms"] = 1e3 * builds[0] if builds else 0.0
    out["payoff.build_reduced_game.warm_ms"] = (
        1e3 * statistics.median(builds[1:]) if len(builds) > 1 else 0.0)
    oracle = "payoff.oracle_outcome_distribution"
    cache = caches.get(oracle, {"hits": 0, "misses": 0})
    miss_s = sum(s["end"] - s["start"] for s in named(oracle) if s.get("cache_miss"))
    out[f"{oracle}.hits"] = cache["hits"]
    out[f"{oracle}.misses"] = cache["misses"]
    out[f"{oracle}.ms_per_miss"] = 1e3 * _ratio(miss_s, cache["misses"])
    out["payoff.oracle_payoff_entry.calls"] = tot("payoff.oracle_payoff_entry")[0]
    calls, total, _ = tot("rules.play_coup")
    out["rules.play_coup.calls"] = calls
    out["rules.play_coup.us_per_call"] = 1e6 * _ratio(total, calls)
    out["rules.play_coup.total_s"] = total
    hands = sum(s.get("hands", 0) for s in named("montecarlo.simulate"))
    _, total, own = tot("montecarlo.simulate")
    out["montecarlo.simulate.us_per_hand"] = 1e6 * _ratio(total, hands)
    out["montecarlo.simulate.self_us_per_hand"] = 1e6 * _ratio(own, hands)
    out["punto.punto_report.total_ms"] = 1e3 * tot("punto.punto_report")[1]
    out["montecarlo.equilibrium_profile.total_s"] = tot("montecarlo.equilibrium_profile")[1]
    out["cli.run.self_ms"] = 1e3 * tot("cli.run")[2]
    return out

"""Exact game-theoretic engine for the drawing games of baccarat.

The package solves three variants of baccarat chemin de fer -- the
commission-free parlor game, the classic game with a commission on
Banker wins, and the modern game with two mandated Banker stands -- and
prices the fixed-rule casino game, all in exact rational arithmetic.
Every solved value is cross-checked by an independent brute-force
enumeration oracle and can be spot-checked by Monte Carlo simulation.

Module map:

* :mod:`baccarat.rules` -- cards, totals, the drawing table, variants,
  strategies, coup resolution.
* :mod:`baccarat.payoff` -- occurrence/conditional decomposition,
  reduced games and best responses read off them, the enumeration
  oracle.
* :mod:`baccarat.solver` -- exact 2 x n game solvers: dominance,
  Nash enumeration, verification.
* :mod:`baccarat.parametric` -- commission sweeps, the break-even rate,
  validity bounds of the fixed rules.
* :mod:`baccarat.punto` -- fixed-rule probabilities, house edges,
  demand matching.
* :mod:`baccarat.montecarlo` -- seeded simulation against the solved
  values.
* :mod:`baccarat.cli` -- the ``baccarat`` command.
"""

from .rules import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    CLASSIC,
    CoupOutcome,
    InfoSet,
    MODERN,
    PARLOR,
    PlayerRow,
    STARRED_CELLS,
    Variant,
    hand_total,
    is_natural,
    mandated_player_action,
    play_coup,
    tableau_action,
)
from .payoff import (
    best_response,
    build_reduced_game,
    classify_info_sets,
    oracle_payoff_entry,
)
from .solver import (
    EquilibriumReport,
    MixedStrategy,
    eliminate_strictly_dominated,
    enumerate_nash_2xn,
    is_nondegenerate,
    verify_equilibrium,
)
from .parametric import (
    equilibrium_curve,
    find_alpha_star,
    solve_variant,
    table_validity_bound,
)
from .punto import (
    PuntoReport,
    mandated_banker_strategy,
    punto_report,
    unfulfilled_demand,
)
from .montecarlo import SimResult, equilibrium_profile, simulate

__version__ = "0.1.0"

__all__ = [
    "ALL_INFO_SETS",
    "Action",
    "BankerStrategy",
    "CLASSIC",
    "CoupOutcome",
    "EquilibriumReport",
    "InfoSet",
    "MODERN",
    "MixedStrategy",
    "PARLOR",
    "PlayerRow",
    "PuntoReport",
    "STARRED_CELLS",
    "SimResult",
    "Variant",
    "best_response",
    "build_reduced_game",
    "classify_info_sets",
    "eliminate_strictly_dominated",
    "enumerate_nash_2xn",
    "equilibrium_curve",
    "equilibrium_profile",
    "find_alpha_star",
    "hand_total",
    "is_natural",
    "is_nondegenerate",
    "mandated_banker_strategy",
    "mandated_player_action",
    "oracle_payoff_entry",
    "play_coup",
    "punto_report",
    "simulate",
    "solve_variant",
    "tableau_action",
    "table_validity_bound",
    "unfulfilled_demand",
    "verify_equilibrium",
]

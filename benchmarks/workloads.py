"""Seeded command scripts, one per workload.

A script is a list of ``baccarat`` argv lists (without ``--format``).
Every rate is generated as an exact fraction string, never a float, and
stays strictly inside its variant's commission interval: classic
0 < alpha < 1/15, modern 0 < alpha < 2/5.  Parlor runs only at its
default alpha = 0.  Hand counts are fixed and far below 10**6.  The same
workload and seed always give the same script.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("analysis", "oracle", "simulate")

CLASSIC_BOUND = Fraction(1, 15)
MODERN_BOUND = Fraction(2, 5)

#: Hands per ``simulate`` command.
HANDS = {"full": 200_000, "tiny": 2_000}


def _rate(rng: random.Random, bound: Fraction) -> str:
    """A random exact rate in (0, bound), as a reduced fraction string."""
    den = rng.randrange(20, 5000)
    top = -(-bound.numerator * den // bound.denominator)  # ceil(bound * den)
    return str(Fraction(rng.randrange(1, top), den))


def _rates(rng: random.Random, bound: Fraction, count: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        a = _rate(rng, bound)
        if a not in out:
            out.append(a)
    return out


def _sim_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def script(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The command script of one workload for one seed.

    ``size="tiny"`` gives the benchmark's self-test a short script that
    still runs every layer the full one does.
    """
    rng = random.Random(f"{workload}:{seed}")
    tiny = size == "tiny"
    if workload == "analysis":
        cmds = [["table"]]
        cmds += [["solve", "classic", "--alpha", a]
                 for a in _rates(rng, CLASSIC_BOUND, 2 if tiny else 10)]
        cmds.append(["solve", "parlor"])
        cmds += [["solve", "modern", "--alpha", a]
                 for a in _rates(rng, MODERN_BOUND, 1 if tiny else 3)]
        cmds.append(["sweep", "--variant", "classic"])
        grid = sorted(_rates(rng, MODERN_BOUND, 2 if tiny else 5), key=Fraction)
        cmds.append(["sweep", "--variant", "modern", "--grid", ",".join(grid)])
        cmds.append(["alpha-star", "--tol", "1/1000" if tiny else "1e-9"])
        return cmds
    if workload == "oracle":
        if tiny:
            # The cold pass runs on the modern game's 8 profiles; the
            # other two commands reuse them.
            return [
                ["oracle", "--variant", "modern", "--alpha", _rate(rng, MODERN_BOUND)],
                ["oracle", "--variant", "modern", "--alpha", "0"],
                ["punto"],
            ]
        return [
            ["oracle", "--variant", "classic", "--alpha", _rate(rng, CLASSIC_BOUND)],
            ["oracle", "--variant", "classic", "--alpha", "0"],
            ["oracle", "--variant", "modern", "--alpha", _rate(rng, MODERN_BOUND)],
            ["punto"],
        ]
    if workload == "simulate":
        hands = str(HANDS[size])
        return [
            ["simulate", "--variant", "modern", "--alpha", _rate(rng, MODERN_BOUND),
             "--hands", hands, "--seed", _sim_seed(rng)],
            ["simulate", "--variant", "parlor",
             "--hands", hands, "--seed", _sim_seed(rng)],
            ["simulate", "--variant", "classic", "--alpha", _rate(rng, CLASSIC_BOUND),
             "--hands", hands, "--seed", _sim_seed(rng)],
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

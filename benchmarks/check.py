"""Checks of every command's JSON report against seed-independent truths.

Nothing here imports ``baccarat``: the expected values are the paper's
closed forms, a table of exact outcome counts for the 32 classic pure
profiles, and pinned simulation tallies.  :func:`problems` returns a list
of what is wrong with one report; an empty list means it is correct.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

D6 = 13**6
PARLOR_PLAYER = Fraction(-679568, 11 * D6)
CLASSIC_MIX = {"DSDS": Fraction(1429, 2288), "DSDD": Fraction(859, 2288)}
Q = Fraction(859, 2288)
#: Banker's equilibrium draw probability per optional cell.
SIM_CLASSIC_MIX = {"(3,9)": Fraction(1), "(4,1)": Fraction(0),
                   "(5,4)": Fraction(1), "(6,-)": Q}
SIM_MODERN_MIX = {"(3,9)": Fraction(1), "(5,4)": Fraction(1)}
MODERN_PLAYER = Fraction(-59280, D6)
PUNTO = {"P": Fraction(2153464, D6), "B": Fraction(2212744, D6),
         "T": Fraction(460601, D6)}
BOUNDS = {"parlor": Fraction(1, 15), "classic": Fraction(1, 15),
          "modern": Fraction(2, 5)}
DEFAULT_CLASSIC_GRID = ["0", "1/100", "1/30", "1/20", "1/16", "33/500"]
#: Break-even rate: the smaller root of 18355788 a^2 - 34601239 a + 1868812,
#: i.e. classic Banker value == parlor Player value.
SURD = (18355788, -34601239, 1868812)
TABLE_GRID = {"0": "DDDDDDDDDDD", "1": "DDDDDDDDDDD", "2": "DDDDDDDDDDD",
              "3": "DDDDDDDDS*D", "4": "S*DDDDDDSSD", "5": "SSSS*DDDSSD",
              "6": "SSSSSSDDSS*", "7": "SSSSSSSSSSS"}
STARRED = ["(3,9)", "(4,1)", "(5,4)", "(6,-)"]

#: (Player wins, Banker wins) out of 13^6 for each classic pure profile,
#: keyed "row:column" with column actions at (3,9), (4,1), (5,4), (6,-).
#: A modern column "xy" is the classic column "xSyS".
ORACLE_COUNTS = {
    "StandOn5:SSSS": (2152648, 2226824), "StandOn5:SSSD": (2179272, 2223496),
    "StandOn5:SSDS": (2153224, 2227384), "StandOn5:SSDD": (2179848, 2224056),
    "StandOn5:SDSS": (2154072, 2226536), "StandOn5:SDSD": (2180696, 2223208),
    "StandOn5:SDDS": (2154648, 2227096), "StandOn5:SDDD": (2181272, 2223768),
    "StandOn5:DSSS": (2153784, 2226824), "StandOn5:DSSD": (2180408, 2223496),
    "StandOn5:DSDS": (2154360, 2227384), "StandOn5:DSDD": (2180984, 2224056),
    "StandOn5:DDSS": (2155208, 2226536), "StandOn5:DDSD": (2181832, 2223208),
    "StandOn5:DDDS": (2155784, 2227096), "StandOn5:DDDD": (2182408, 2223768),
    "DrawOn5:SSSS": (2153544, 2210904), "DrawOn5:SSSD": (2163528, 2227544),
    "DrawOn5:SSDS": (2153864, 2211464), "DrawOn5:SSDD": (2163848, 2228104),
    "DrawOn5:SDSS": (2153944, 2211384), "DrawOn5:SDSD": (2163928, 2228024),
    "DrawOn5:SDDS": (2154264, 2211944), "DrawOn5:SDDD": (2164248, 2228584),
    "DrawOn5:DSSS": (2153144, 2212184), "DrawOn5:DSSD": (2163128, 2228824),
    "DrawOn5:DSDS": (2153464, 2212744), "DrawOn5:DSDD": (2163448, 2229384),
    "DrawOn5:DDSS": (2153544, 2212664), "DrawOn5:DDSD": (2163528, 2229304),
    "DrawOn5:DDDS": (2153864, 2213224), "DrawOn5:DDDD": (2163848, 2229864),
}

#: Exact (wins, losses, ties) of the simulate commands of seeds 0 and 1,
#: keyed by (variant, alpha, hands, seed).  A seeded stream is frozen, so
#: these must never move.
SIM_TALLIES = {
    ("modern", "1489/4747", 200000, 1238733488): (89418, 91522, 19060),
    ("parlor", "0", 200000, 1332217461): (89048, 92274, 18678),
    ("classic", "74/2623", 200000, 495895151): (89054, 92322, 18624),
    ("modern", "491/4059", 200000, 194371467): (88992, 91834, 19174),
    ("parlor", "0", 200000, 405444571): (89582, 92030, 18388),
    ("classic", "75/1144", 200000, 3286978396): (89119, 92165, 18716),
}

#: Simulated means must lie within this many standard errors of the
#: solved values; a false alarm has probability about 2e-9 per check.
SIM_TOLERANCE_SE = 6.0


def classic_p(a: Fraction) -> Fraction:
    return (9 - a) / (11 - 6 * a)


def classic_banker(a: Fraction) -> Fraction:
    return Fraction(8, D6) * (84946 - 3099233 * a + 1668708 * a * a) / (11 - 6 * a)


def modern_banker(a: Fraction) -> Fraction:
    return Fraction(8, D6) * (7410 - 276593 * a)


def surd_bracket(digits: int) -> tuple[Fraction, Fraction]:
    """Exact rationals sandwiching the break-even rate, 10**-digits apart.

    The rate is (-b - sqrt(disc)) / (2a); ``math.isqrt`` bounds the
    square root between consecutive integers at scale 10**digits.
    """
    a, b, c = SURD
    disc = b * b - 4 * a * c
    scale = 10**digits
    s = math.isqrt(disc * scale * scale)  # s <= sqrt(disc)*scale < s + 1
    den = 2 * a * scale
    return Fraction(-b * scale - (s + 1), den), Fraction(-b * scale - s, den)


def _expect(node, key, want, out, where):
    got = Fraction(node[key])
    if got != want:
        out.append(f"{where}.{key}: {got} != {want}")


def _fractions(mapping) -> dict[str, Fraction]:
    """A rendered mapping of exact values, without its '_decimal' twins."""
    return {k: Fraction(v) for k, v in mapping.items() if not k.endswith("_decimal")}


def _decimals(node, out, where="") -> None:
    """Every 'x_decimal' must be x rounded half-even to ten places."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("_decimal") and key[:-8] in node:
                with localcontext() as ctx:
                    ctx.prec = 60
                    x = Fraction(node[key[:-8]])
                    want = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
                        Decimal("1e-10"))
                if value != format(want, "f"):
                    out.append(f"{where}.{key}: {value} != {want}")
            else:
                _decimals(value, out, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _decimals(value, out, f"{where}[{i}]")


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _equilibrium(variant: str, a: Fraction, res: dict, out: list, where: str) -> None:
    """Closed forms of a solved variant at rate ``a``."""
    if variant == "modern":
        _expect(res, "player_draw_on_5", Fraction(1), out, where)
        _expect(res, "player_value", MODERN_PLAYER, out, where)
        _expect(res, "banker_value", modern_banker(a), out, where)
        mix = {"DD": Fraction(1)}
        if res.get("kind") != "pure":
            out.append(f"{where}.kind: {res.get('kind')!r} != 'pure'")
    else:
        _expect(res, "player_draw_on_5", classic_p(a), out, where)
        _expect(res, "player_value", PARLOR_PLAYER, out, where)
        _expect(res, "banker_value", classic_banker(a), out, where)
        _expect(res, "banker_draw_at_6_stand", Q, out, where)
        mix = CLASSIC_MIX
    got = _fractions(res["banker_columns"])
    if got != mix:
        out.append(f"{where}.banker_columns: {got} != {mix}")
    if res.get("unique") is not True:
        out.append(f"{where}.unique is not true")


def _check_solve(argv, rep, out):
    variant = argv[1]
    a = Fraction(_option(argv, "--alpha", "0"))
    _expect(rep["inputs"], "alpha", a, out, "inputs")
    res = rep["results"]
    _equilibrium(variant, a, res, out, "results")
    _expect(res, "p", classic_p(a) if variant != "modern" else Fraction(1), out, "results")
    if variant != "modern":
        _expect(res, "q", Q, out, "results")
    kept, gone = res["surviving_columns"], res["eliminated_columns"]
    if len(kept) + len(gone) != (4 if variant == "modern" else 16) or set(kept) & set(gone):
        out.append("results: surviving and eliminated columns do not partition")
    if not set(_fractions(res["banker_columns"])) <= set(kept):
        out.append("results: equilibrium support not among surviving columns")


def _check_sweep(argv, rep, out):
    variant = _option(argv, "--variant", "classic")
    grid = _option(argv, "--grid")
    want_grid = ([str(Fraction(x)) for x in grid.split(",")] if grid
                 else DEFAULT_CLASSIC_GRID if variant == "classic" else None)
    res = rep["results"]
    samples = res["samples"]
    if [s["alpha"] for s in samples] != want_grid:
        out.append(f"results.samples: alphas {[s['alpha'] for s in samples]} != {want_grid}")
    for i, sample in enumerate(samples):
        _equilibrium(variant, Fraction(sample["alpha"]), sample, out, f"samples[{i}]")
    _expect(res, "validity_bound", BOUNDS[variant], out, "results")


def _check_alpha_star(argv, rep, out):
    tol = Fraction(_option(argv, "--tol"))
    res = rep["results"]
    lo, hi = Fraction(res["lo"]), Fraction(res["hi"])
    _expect(res, "width", hi - lo, out, "results")
    _expect(res, "midpoint", (lo + hi) / 2, out, "results")
    _expect(res, "player_value", PARLOR_PLAYER, out, "results")
    _expect(rep["inputs"], "tolerance", tol, out, "inputs")
    if not 0 < hi - lo <= tol:
        out.append(f"results: bracket width {hi - lo} not in (0, {tol}]")
    digits = 12
    while True:  # refine until the sandwich is clear of both ends
        s_lo, s_hi = surd_bracket(digits)
        if (lo < s_lo and s_hi < hi) or s_hi <= lo or hi <= s_lo or digits > 200:
            break
        digits *= 2
    if not (lo < s_lo and s_hi < hi):
        out.append(f"results: [{lo}, {hi}] does not contain the break-even rate")


def _check_oracle(argv, rep, out):
    variant = _option(argv, "--variant")
    a = Fraction(_option(argv, "--alpha"))
    _expect(rep["inputs"], "alpha", a, out, "inputs")
    res = rep["results"]
    if res.get("all_match") is not True:
        out.append("results.all_match is not true")
    entries = res["entries"]
    if len(entries) != (8 if variant == "modern" else 32):
        out.append(f"results.entries: {len(entries)} entries")
    for i, e in enumerate(entries):
        col = e["column"]
        if variant == "modern" and len(col) == 2:
            col = f"{col[0]}S{col[1]}S"
        counts = ORACLE_COUNTS.get(f"{e['row']}:{col}")
        if counts is None:
            out.append(f"entries[{i}]: unknown profile {e['row']}:{e['column']}")
            continue
        win, loss = (Fraction(n, D6) for n in counts)
        _expect(e, "player_value", win - loss, out, f"entries[{i}]")
        _expect(e, "banker_value", (1 - a) * loss - win, out, f"entries[{i}]")
        if e.get("matches_decomposition") is not True:
            out.append(f"entries[{i}].matches_decomposition is not true")


def _check_punto(argv, rep, out):
    res = rep["results"]
    for key, want in PUNTO.items():
        _expect(res, key, want, out, "results")
    P, B = PUNTO["P"], PUNTO["B"]
    _expect(res, "edge_player", B - P, out, "results")
    _expect(res, "edge_banker", P - Fraction(19, 20) * B, out, "results")
    _expect(res, "edge_chemin", B / 20, out, "results")


def _check_table(argv, rep, out):
    res = rep["results"]
    if res.get("grid") != TABLE_GRID:
        out.append("results.grid differs from the tableau at alpha 0")
    if res.get("starred") != STARRED or res.get("agrees_with_tableau") is not True:
        out.append("results: starred cells or tableau agreement wrong")


def _check_simulate(argv, rep, out):
    variant = _option(argv, "--variant")
    a = Fraction(_option(argv, "--alpha", "0"))
    hands, seed = int(_option(argv, "--hands")), int(_option(argv, "--seed"))
    inputs, res = rep["inputs"], rep["results"]
    if (inputs.get("variant"), inputs.get("hands"), inputs.get("seed")) != (variant, hands, seed):
        out.append("inputs do not echo the command")
    _expect(inputs, "alpha", a, out, "inputs")
    player = MODERN_PLAYER if variant == "modern" else PARLOR_PLAYER
    banker = modern_banker(a) if variant == "modern" else classic_banker(a)
    _expect(inputs, "player_draw_on_5",
            Fraction(1) if variant == "modern" else classic_p(a), out, "inputs")
    mix = _fractions(inputs["banker_mix"])
    want_mix = SIM_MODERN_MIX if variant == "modern" else SIM_CLASSIC_MIX
    if mix != want_mix:
        out.append(f"inputs.banker_mix: {mix} != {want_mix}")
    _expect(res, "solved_player_value", player, out, "results")
    _expect(res, "solved_banker_value", banker, out, "results")
    w, l, t = res["wins"], res["losses"], res["ties"]
    if w + l + t != hands or min(w, l, t) < 0:
        out.append(f"results: tallies {w}/{l}/{t} do not sum to {hands}")
        return
    pinned = SIM_TALLIES.get((variant, str(a), hands, seed))
    if pinned is not None and (w, l, t) != pinned:
        out.append(f"results: tallies {(w, l, t)} != pinned {pinned}")
    if (res["mean_player"], res["mean_banker"]) != (
            (w - l) / hands, float(((1 - a) * l - w) / Fraction(hands))):
        out.append("results: means disagree with the tallies")
    for mean, se, solved in (("mean_player", "std_error", player),
                             ("mean_banker", "std_error_banker", banker)):
        gap = abs(res[mean] - float(solved))
        if not gap <= SIM_TOLERANCE_SE * res[se]:
            out.append(f"results.{mean}: {res[mean]} is {gap / res[se]:.1f} SE "
                       f"from {float(solved)}")


_CHECKS = {
    "table": _check_table, "solve": _check_solve, "sweep": _check_sweep,
    "alpha-star": _check_alpha_star, "oracle": _check_oracle,
    "punto": _check_punto, "simulate": _check_simulate,
}


def problems(argv: list[str], code: int, stdout: str) -> list[str]:
    """What is wrong with one command's exit code and JSON report."""
    if code != 0:
        return [f"exit code {code}"]
    if not stdout.strip():
        return ["empty report"]
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(rep, dict) or rep.get("command") != argv[0]:
        return [f"report is not a {argv[0]!r} report"]
    out: list[str] = []
    try:
        _CHECKS[argv[0]](argv, rep, out)
        _decimals(rep, out, "report")
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        out.append(f"malformed report: {type(exc).__name__}: {exc}")
    return out


def tamper(stdout: str) -> str:
    """The same report with one fraction in its results made wrong."""
    rep = json.loads(stdout)

    def bump(node) -> bool:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, str) and "/" in value:
                x = Fraction(value)
                node[key] = str(Fraction(x.numerator + 1, x.denominator))
                return True
            if isinstance(value, (dict, list)) and bump(value):
                return True
        return False

    if not bump(rep["results"]):
        raise ValueError("report has no fraction to tamper with")
    return json.dumps(rep)

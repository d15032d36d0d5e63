"""Monte Carlo validation of the solved games.

Simulation exists here to check the exact results, not to replace them:
hands are sampled from the card-value law and looked up in the outcome
table of :mod:`baccarat.payoff`, built once per process by the coup
rules behind :func:`baccarat.rules.play_coup` on every pair of two-card
totals -- the table whose folded counts are the brute-force oracle --
so a simulated mean drifting from a solved value by more than a few
standard errors indicts the engine, not the dice.

Sampling notes:

* The RNG is Python's Mersenne Twister (``random.Random``), far beyond
  64 bits of state; every result names the generator.

* Every hand consumes exactly eight variates -- one uniform for
  Player's row, one for Banker's behavioral decision, and six card
  values -- whether or not the hand uses them all.  Results for a given
  seed are therefore bit-for-bit reproducible and stay stable under
  strategy changes that alter how many cards a hand needs.

* Banker mixes are sampled *behaviorally*, one uniform against the
  per-cell draw probability.  A coup reaches at most one Banker
  information set, so a behavioral sample with the right per-cell
  marginals has exactly the outcome law of the corresponding mixture of
  pure strategies.

* A run of at least ``_SPLIT_MIN_HANDS`` hands, in a process that may
  use two CPUs and runs no other thread, plays its back half in one
  forked child, with the same result to the last bit.  Each hand reads
  exactly 10 + r words of the generator's stream (two for each uniform,
  one for each 4-bit draw, r of them rejected), so the parent knows the
  exact word where its front half ends.  The child starts parsing hands
  a little before that word's expected place; two parses of one stream
  that start at different words soon land on the same hand start and
  agree from then on (the Kruskal count).  The parent takes the child's
  counts only from the hand that starts at that very word; if none
  does, or the child fails, it plays the back half itself.
"""

from __future__ import annotations

import marshal
import os
import random
from fractions import Fraction
from math import ceil, isqrt, sqrt
from typing import Mapping, NamedTuple

from .parametric import VariantSolution
from .payoff import _outcome_table
from .rules import (
    ALL_INFO_SETS,
    Action,
    BankerStrategy,
    InfoSet,
    PlayerRow,
    Variant,
    _coerce_rational,
    _info_set,
    _of_type,
)
from .solver import MixedStrategy, _as_weights

__all__ = [
    "SimResult",
    "simulate",
    "equilibrium_profile",
]

#: Largest run accepted: 10^7 hands take 2.7 to 3.5 s shared with a forked
#: child, against 4.6 to 5.1 s in one process (2-vCPU Xeon, Python 3.11).
_MAX_HANDS = 10**7


class SimResult(NamedTuple):
    """Outcome of one simulation run; equal seeds give equal results.

    It stores the tallies of Player's wins, losses and ties and reads off
    the rest: ``n_hands`` is their sum, ``rng`` names the generator, and
    ``mean_player``, ``mean_banker``, ``std_error`` and
    ``std_error_banker`` are each seat's mean payoff per coup and its
    standard error (from the plug-in variance), as floats of exact sums
    over the tallies.
    """

    variant: str
    alpha: Fraction
    seed: int
    player_draw_probability: Fraction
    wins: int
    losses: int
    ties: int
    rng = "python-random-mt19937"
    n_hands = property(lambda self: self.wins + self.losses + self.ties)
    mean_player = property(lambda self: self._summary(1, -1)[0])
    std_error = property(lambda self: self._summary(1, -1)[1])
    mean_banker = property(lambda self: self._summary(-1, 1 - self.alpha)[0])
    std_error_banker = property(lambda self: self._summary(-1, 1 - self.alpha)[1])

    def _summary(self, on_win, on_loss) -> tuple[float, float]:
        """Mean and standard error of a payoff per coup that is ``on_win``
        when Player wins, ``on_loss`` when Player loses and 0 on a tie."""
        n = self.n_hands
        mean = Fraction(on_win * self.wins + on_loss * self.losses, n)
        second = Fraction(on_win**2 * self.wins + on_loss**2 * self.losses, n)
        return float(mean), sqrt((second - mean * mean) / n)


def _draw_probabilities(
    banker, variant: Variant
) -> dict[InfoSet, Fraction]:
    """Normalize a strategy-or-mix argument to per-cell draw chances.

    Cells the caller leaves unspecified default to the tableau (and the
    variant's mandates); cells the caller does specify may deviate from
    the tableau -- that is what deviation experiments are for -- but
    never from a mandate the variant writes into law.
    """
    table = {
        info: Fraction(int(action is Action.DRAW))
        for info, action in variant.fixed_cell_actions()
    }
    if isinstance(banker, BankerStrategy):
        specified = banker.items()
    else:
        specified = [(_info_set(key), p) for key, p in dict(banker).items()]
    for info, given in specified:
        if isinstance(given, Action):
            prob = Fraction(int(given is Action.DRAW))
        else:
            prob = _coerce_rational(given, f"draw probability at {info}")
        if not 0 <= prob <= 1:
            raise ValueError(
                f"draw probability at {info} must be in [0,1], got {prob}"
            )
        if info in variant.fixed_actions and prob != table[info]:
            raise ValueError(
                f"{variant.name} rules mandate "
                f"{variant.fixed_actions[info]} at {info}"
            )
        table[info] = prob
    missing = [i for i in ALL_INFO_SETS if i not in table]
    if missing:
        raise ValueError(f"no action or mix for cells: {missing}")
    return table


# random() yields m / 2**53 with m an integer, and ceil(p * 2**53) / 2**53
# is an exact float for exact rational p in [0, 1], so "u < p" is
# equivalent to the pure-float comparison "u < ceil(p * 2**53) / 2**53":
# both sides are integers over 2**53 -- no per-hand Fraction arithmetic.
_TWO53 = 1 << 53


def _exact_threshold(p: Fraction) -> float:
    return ceil(p * _TWO53) / _TWO53


#: Card value of each accepted 4-bit draw 0..12: four ranks count 0.
_CARD_VALUE = (0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)


#: Shares of the key ``row * 10000 + pt * 1000 + bt * 100 + c4 * 10 + c5``
#: of :func:`baccarat.payoff._outcome_table`, indexed by two accepted
#: draws: Player's two-card total, Banker's, and the two third cards.
_PLAYER_KEY = tuple(
    tuple((x + y) % 10 * 1000 for y in _CARD_VALUE) for x in _CARD_VALUE
)
_BANKER_KEY = tuple(
    tuple((x + y) % 10 * 100 for y in _CARD_VALUE) for x in _CARD_VALUE
)
_THIRD_KEY = tuple(tuple(x * 10 + y for y in _CARD_VALUE) for x in _CARD_VALUE)


def _play(rng, n_hands, counts, row_threshold, thresholds) -> int:
    """Play ``n_hands`` hands from ``rng``, adding each to ``counts``.

    Returns the number of rejected card draws ``r``: the hands read
    exactly ``10 * n_hands + r`` words of the generator's stream, 2 for
    each of the two uniforms and 1 for each 4-bit draw.
    """
    cells, stand_signs, draw_signs = _outcome_table()
    rand = rng.random
    getrandbits = rng.getrandbits
    player_key, banker_key, third_key = _PLAYER_KEY, _BANKER_KEY, _THIRD_KEY
    rejected = 0
    for _ in range(n_hands):
        row = 10000 if rand() < row_threshold else 0
        u_banker = rand()
        # Each card is randrange(13) spelled out as its underlying 4-bit
        # rejection loop; the bit stream consumed is identical, but this
        # form does not depend on randrange internals staying stable.
        # The six cards are dealt Player, Player, Banker, Banker, then
        # the two third cards; written out, not looped, as this is the
        # hot path.
        p1 = getrandbits(4)
        while p1 >= 13:
            rejected += 1
            p1 = getrandbits(4)
        p2 = getrandbits(4)
        while p2 >= 13:
            rejected += 1
            p2 = getrandbits(4)
        b1 = getrandbits(4)
        while b1 >= 13:
            rejected += 1
            b1 = getrandbits(4)
        b2 = getrandbits(4)
        while b2 >= 13:
            rejected += 1
            b2 = getrandbits(4)
        t1 = getrandbits(4)
        while t1 >= 13:
            rejected += 1
            t1 = getrandbits(4)
        t2 = getrandbits(4)
        while t2 >= 13:
            rejected += 1
            t2 = getrandbits(4)
        key = row + player_key[p1][p2] + banker_key[b1][b2] + third_key[t1][t2]
        if u_banker < thresholds[cells[key]]:
            counts[draw_signs[key]] += 1
        else:
            counts[stand_signs[key]] += 1
    return rejected


#: Runs from this many hands up may play their back half in a forked
#: child.  The fork, the child's seek and its records cost a few ms, so
#: the split breaks even between 15 000 and 30 000 hands; from 40 000 it
#: won 15 of 15 interleaved runs (2-vCPU Xeon, Python 3.11).
_SPLIT_MIN_HANDS = 40_000


def _split_plan(n_hands: int) -> tuple[int, int, int] | None:
    """How to share a run with a forked child, or None to play it here.

    A run is shared only when it is large enough, ``os.fork`` exists,
    the process may run on two CPUs, and no other thread runs (forking
    a threaded process is unsafe).  The plan is ``(n1, start, window)``:
    this process plays hands 0 to n1 - 1, and the child parses the
    stream from word ``start``, a margin before hand n1's expected
    start, recording ``window`` hand starts in which the parses may meet.
    """
    if n_hands < _SPLIT_MIN_HANDS or not hasattr(os, "fork"):
        return None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    import threading  # loaded here, as a small run never needs it

    if cpus < 2 or threading.active_count() > 1:
        return None
    # The child also seeks and records, so it plays a little less.
    n1 = n_hands // 2 + n_hands // 20
    # A hand reads 148/13 words on average (4 for the two uniforms, 16/13
    # for each of six cards), and hand n1's start deviates from its mean
    # by 1.3 isqrt(n1) words (one standard deviation).  The child starts
    # 10 isqrt(n1) words early, about 8 deviations, and 2 000 words (176
    # hands) more for the parses to meet: they take 17 hands on average,
    # and more than 83 in 1% of trials.  Its window of 300 + 2 isqrt(n1)
    # hands spans about 3 400 + 23 isqrt(n1) words, so it ends about 10
    # deviations past the expected start.
    root = isqrt(n1)
    start = 148 * n1 // 13 - 2000 - 10 * root
    return n1, max(0, start), 300 + 2 * root


def _tally(rng, n_hands, plan, row_threshold, thresholds) -> list[int]:
    """Losses, ties and wins of ``n_hands`` hands played from ``rng``.

    With a ``plan``, this process plays hands 0 to n1 - 1 while a forked
    child plays the back half.  Each hand read exactly ``10 + r`` words
    (see :func:`_play`), so this process knows the word where hand n1
    starts, and takes the child's counts from the hand that starts
    there.  It plays the back half itself if the fork or the child
    failed, or if no hand the child recorded starts there.  The child is
    always reaped, and killed first if the loop here raises.
    """
    counts = [0, 0, 0]  # losses, ties, wins: Player's payoff + 1
    if plan is None:
        _play(rng, n_hands, counts, row_threshold, thresholds)
        return counts
    n1, start, window = plan
    _outcome_table()  # built before the fork, so the child inherits it
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return _tally(rng, n_hands, None, row_threshold, thresholds)
    if pid == 0:
        _back_half(rng, write_end, start, window, n_hands - n1,
                   row_threshold, thresholds)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        try:
            end = 10 * n1 + _play(rng, n1, counts, row_threshold, thresholds)
            records = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # reaped already: SIGCHLD is ignored
                status = None
    if status == 0:
        offsets, deltas = marshal.loads(records)
        if end in offsets:
            back = deltas[offsets.index(end)]
            return [c + b for c, b in zip(counts, back)]
    _play(rng, n_hands - n1, counts, row_threshold, thresholds)
    return counts


def _back_half(rng, write_end, start, window, n_back, row_threshold, thresholds):
    """The forked child: it leaves by ``os._exit`` and never returns.

    It seeks ``rng`` to word ``start`` of its stream, then for each of
    its first ``window`` hands j sends the word where hand j starts and
    the counts of its hands j to j + n_back - 1, the back half of the
    run if hand j is hand n1.
    """
    code = 1
    try:
        for skipped in range(0, start, 8192):  # a 32 KB int per step
            rng.getrandbits(32 * min(8192, start - skipped))
        window = min(window, n_back)
        counts = [0, 0, 0]
        offsets, heads = [], []
        word = start
        for _ in range(window):
            offsets.append(word)
            heads.append(counts[:])
            word += 10 + _play(rng, 1, counts, row_threshold, thresholds)
        _play(rng, n_back - window, counts, row_threshold, thresholds)
        deltas = []
        for head in heads:
            deltas.append([c - h for c, h in zip(counts, head)])
            _play(rng, 1, counts, row_threshold, thresholds)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(marshal.dumps((offsets, deltas)))
        code = 0
    finally:
        os._exit(code)


def _check_hands(n_hands) -> None:
    """Reject a hand count outside 1 to ``_MAX_HANDS``."""
    if (
        not isinstance(n_hands, int)
        or isinstance(n_hands, bool)
        or not 0 < n_hands <= _MAX_HANDS
    ):
        raise ValueError(
            f"n_hands must be an integer from 1 to {_MAX_HANDS}, got {n_hands!r}"
        )


def _check_seed(seed) -> None:
    """Reject a seed that is not an integer >= 0.

    ``random.Random`` seeds with the absolute value of an int, so a
    negative seed would silently repeat the run of its absolute value.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _row_mix_weight(row_mix) -> Fraction:
    """Weight on drawing-on-5, from a row, weights, or MixedStrategy."""
    if isinstance(row_mix, PlayerRow):
        return Fraction(int(row_mix is PlayerRow.DRAW_ON_5))
    return _as_weights(row_mix, 2)[1]


def simulate(
    variant: Variant,
    row_mix,
    banker_strategy_or_mix,
    alpha,
    n_hands: int,
    seed: int,
) -> SimResult:
    """Sample ``n_hands`` independent coups and summarize both payoffs.

    ``row_mix`` is Player's strategy (a PlayerRow, or weights over
    stand-on-5 / draw-on-5); ``banker_strategy_or_mix`` is a pure
    BankerStrategy or a mapping from optional cells to exact draw
    probabilities.
    """
    a = variant.check_alpha(alpha)
    _check_hands(n_hands)
    _check_seed(seed)
    p_draw = _row_mix_weight(row_mix)
    table = _draw_probabilities(banker_strategy_or_mix, variant)
    # A natural reaches no cell, so its extra threshold never draws.
    thresholds = [_exact_threshold(table[info]) for info in ALL_INFO_SETS]
    thresholds.append(0.0)
    row_threshold = _exact_threshold(p_draw)

    rng = random.Random(seed)
    losses, ties, wins = _tally(
        rng, n_hands, _split_plan(n_hands), row_threshold, thresholds
    )
    return SimResult(variant.name, a, seed, p_draw, wins, losses, ties)


def equilibrium_profile(
    sol: VariantSolution,
) -> tuple[MixedStrategy, Mapping[InfoSet, Fraction]]:
    """The equilibrium of ``sol`` in the form :func:`simulate` consumes.

    Returns Player's row mix (stand-on-5 weight first) and Banker's
    per-cell draw probabilities at the variant's optional cells.
    """
    _of_type(sol, VariantSolution, "sol")
    mix = {
        cell: sol.banker_draw_probability(cell)
        for cell in sol.variant.optional_cells
    }
    return sol.report.row_strategy, mix

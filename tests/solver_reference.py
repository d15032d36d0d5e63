"""The 2 x n solver's stages worked in fractions: references for its integers.

Nothing here imports from ``baccarat.solver``.  ``fraction_dominator``
and ``fraction_verify`` are the fraction forms of the solver's dominator
search and verifier that its integer versions replaced; the tests
compare the two quantity by quantity.  ``support_equilibria`` is an
independent support enumeration (von Stengel 2007; Avis, Rosenberg,
Savani & von Stengel 2010): for a nondegenerate game it finds every
equilibrium.
"""

from fractions import Fraction
from itertools import combinations

F = Fraction


def fraction_dominator(vectors, j, alive):
    """A pure or two-point strict dominator of ``vectors[j]``, as
    (indices, weights) or None: every cut ``(x - z) / (y - z)`` of a pair
    (k, l) inside (0, 1), and the midpoints between cuts, are probed in
    increasing order."""
    vj = vectors[j]
    others = [k for k in alive if k != j]
    for k in others:
        if all(a > b for a, b in zip(vectors[k], vj)):
            return (k,), (F(1),)
    for k, l in combinations(others, 2):
        vk, vl = vectors[k], vectors[l]
        cuts = {F(0), F(1)}
        for x, y, z in zip(vj, vk, vl):
            if y != z:
                t = F(x - z, y - z)
                if 0 < t < 1:
                    cuts.add(t)
        pts = sorted(cuts)
        for t in pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]:
            if all(t * y + (1 - t) * z > x for x, y, z in zip(vj, vk, vl)):
                return (k, l), (t, 1 - t)
    return None


def _support(weights):
    return tuple(i for i, w in enumerate(weights) if w > 0)


def fraction_verify(A, B, report) -> bool:
    """Whether ``report`` is an equilibrium of (A, B) with the stated
    supports and values, every payoff summed in fractions."""
    n = len(A[0])
    row = [F(w) for w in report.row_strategy.weights]
    col = [F(w) for w in report.column_strategy.weights]
    if len(row) != 2 or len(col) != n:
        return False
    if (_support(row), _support(col)) != (report.row_support, report.column_support):
        return False
    row_payoffs = [sum(col[j] * F(A[r][j]) for j in range(n)) for r in range(2)]
    if any(row_payoffs[r] != max(row_payoffs) for r in _support(row)):
        return False
    col_payoffs = [sum(row[r] * F(B[r][j]) for r in range(2)) for j in range(n)]
    if any(col_payoffs[j] != max(col_payoffs) for j in _support(col)):
        return False
    rv = sum(row[r] * row_payoffs[r] for r in range(2))
    cv = sum(col[j] * col_payoffs[j] for j in range(n))
    return rv == report.row_value and cv == report.column_value


def _solve(rows):
    """The unique solution of a square augmented system, or None."""
    rows = [list(r) for r in rows]
    size = len(rows)
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(size):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][-1] / rows[i][i] for i in range(size)]


def _indifferent_mix(M, support, rivals, width):
    """Weights on ``support`` (over ``width`` strategies) that make every
    payoff ``M[i]`` for i in ``rivals`` equal, plus that payoff."""
    k = len(support)
    system = [[M[i][s] for s in support] + [F(-1), F(0)] for i in rivals]
    system.append([F(1)] * k + [F(0), F(1)])
    solution = _solve(system)
    if solution is None or any(w <= 0 for w in solution[:k]):
        return None
    mix = [F(0)] * width
    for s, w in zip(support, solution):
        mix[s] = w
    return tuple(mix), solution[k]


def support_equilibria(A, B):
    """Every equilibrium of (A, B) with supports of equal size, as a set of
    (row weights, column weights, row value, column value)."""
    A = [[F(x) for x in row] for row in A]
    B = [[F(x) for x in row] for row in B]
    m, n = len(A), len(A[0])
    Bt = [[B[i][j] for i in range(m)] for j in range(n)]
    found = set()
    for k in range(1, min(m, n) + 1):
        for I in combinations(range(m), k):
            for J in combinations(range(n), k):
                cols = _indifferent_mix(A, J, I, n)
                rows = _indifferent_mix(Bt, I, J, m)
                if cols is None or rows is None:
                    continue
                (y, u), (x, v) = cols, rows
                if all(sum(a * w for a, w in zip(A[i], y)) <= u for i in range(m)) and all(
                    sum(b * w for b, w in zip(Bt[j], x)) <= v for j in range(n)
                ):
                    found.add((x, y, u, v))
    return found

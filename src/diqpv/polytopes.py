"""Polytopes of behaviors and the LP machinery used against them.

Two-party behaviors are arrays sigma[ma, mp, oa, op] (settings first,
outcomes last); the flattened variable order of every constraint matrix is
the C order of that shape.  Three-party adversary behaviors are arrays
mu[ma, b, bp, oa, za, zb] over verifier setting ma and the challenge bits
b, bp held by the two adversary stations.

The polytopes are kept in H-form (equalities, inequalities, box bounds) and
queried through linear programming; no vertex catalogs are enumerated at
runtime.  A certificate is a vector of row duals, which _dual_bound turns
into an exact weak-duality upper bound on the maximum of an objective
(floats, or exact integers over a common denominator), so a float solver
error can loosen a bound but never make it too small.  Each solve is one
linprog call that returns its duals as such a certificate: max_linear for
a maximum, max_shift_within for the largest admissible shift of an
objective.

linprog is the package's own dense tableau simplex (numpy only; the
solver affects how close a solve gets to optimal, never soundness).  Phase
I depends on the polytope alone, so it runs once per polytope and is
cached (HPolytope.simplex_start): it brings the rows to standard form,
adds a row x_j <= 1 only where no nonnegative normalization row implies it,
drops redundant equality rows (ns3 keeps 38 of its 56) and raises
LpStructureError on an infeasible program.  Each solve is phase II from
that tableau by Bland's rule, capped at _PIVOT_CAP pivots (LpStructureError
past it).  Row duals solve the final basis's transposed system; the rows
phase I dropped get dual 0, and _dual_bound repairs the box duals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import count, product

import numpy as np

from .errors import CertificationError, LpStructureError

TSIRELSON = 2.0 * np.sqrt(2.0)

# The eight facet sign patterns of the correlator combinations: all
# (s00, s01, s10, s11) in {+-1}^4 whose product is -1.
CHSH_SIGNS = np.array(
    [s for s in product((1, -1), repeat=4) if s[0] * s[1] * s[2] * s[3] == -1],
    dtype=np.float64,
)


@dataclass(frozen=True)
class HPolytope:
    """A polytope {x : A_eq x = b_eq, A_ub x <= b_ub, 0 <= x <= 1}."""

    name: str
    dim: int
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} variables, got {x.shape}")
        if (x < -tol).any() or (x > 1 + tol).any():
            return False
        if self.a_eq.size and np.abs(self.a_eq @ x - self.b_eq).max() > tol:
            return False
        if self.a_ub.size and (self.a_ub @ x - self.b_ub).max() > tol:
            return False
        return True

    @cached_property
    def exact_rows(self) -> tuple[list[int], list[int], list[int], list[int], int]:
        """The rows (equalities, then inequalities) as exact integers.

        Returns (columns, rows, entries, rhs, den): the nonzero entries of
        A in column order with their positions, and b, all as integer
        numerators over one common denominator den.
        """
        cols = np.vstack([self.a_eq, self.a_ub]).T
        col, row = np.nonzero(cols)
        values, den = _common_denominator(
            np.concatenate([cols[col, row], self.b_eq, self.b_ub]).tolist()
        )
        return col.tolist(), row.tolist(), values[: col.size], values[col.size :], den

    @cached_property
    def simplex_start(self):
        """Phase I of every simplex solve over this polytope (_simplex_start)."""
        return _simplex_start(self)


def correlator_rows() -> np.ndarray:
    """Rows E[ma, mp] . sigma giving the four correlators, shape (4, 16)."""
    rows = np.zeros((4, 2, 2, 2, 2), dtype=np.float64)
    for ma, mp, oa, op in product(range(2), repeat=4):
        rows[2 * ma + mp, ma, mp, oa, op] = 1.0 if oa == op else -1.0
    return rows.reshape(4, 16)


def chsh_values(sigma) -> np.ndarray:
    """All eight signed correlator combinations evaluated at sigma."""
    e = correlator_rows() @ np.asarray(sigma, dtype=np.float64).reshape(16)
    return CHSH_SIGNS @ e


def quantum_set() -> HPolytope:
    """Outer approximation of the two-party quantum behaviors.

    No-signaling equalities plus the eight correlator-cap inequalities at
    2*sqrt(2).  Contains every quantum behavior; excludes the PR box.
    """
    eqs, rhs = [], []
    for ma, mp in product(range(2), repeat=2):
        row = np.zeros((2, 2, 2, 2))
        row[ma, mp] = 1.0
        eqs.append(row)
        rhs.append(1.0)
    # Marginal of oa independent of mp, and of op independent of ma.
    for ma, oa in product(range(2), repeat=2):
        row = np.zeros((2, 2, 2, 2))
        row[ma, 0, oa, :] = 1.0
        row[ma, 1, oa, :] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    for mp, op in product(range(2), repeat=2):
        row = np.zeros((2, 2, 2, 2))
        row[0, mp, :, op] = 1.0
        row[1, mp, :, op] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    a_eq = np.array([r.reshape(16) for r in eqs])
    a_ub = CHSH_SIGNS @ correlator_rows()
    return HPolytope(
        name="quantum-outer",
        dim=16,
        a_eq=a_eq,
        b_eq=np.array(rhs),
        a_ub=a_ub,
        b_ub=np.full(8, TSIRELSON),
    )


def ns3_polytope() -> HPolytope:
    """Three-party no-signaling polytope over mu[ma, b, bp, oa, za, zb].

    Normalization per input triple plus, for each party, independence of
    the other two parties' joint conditional from that party's input.  The
    64 variables satisfy 56 equalities of rank 38 (the polytope dimension
    is 3^3 - 1 = 26).
    """
    shape = (2, 2, 2, 2, 2, 2)
    eqs, rhs = [], []
    for ma, b, bp in product(range(2), repeat=3):
        row = np.zeros(shape)
        row[ma, b, bp] = 1.0
        eqs.append(row)
        rhs.append(1.0)
    for b, bp, za, zb in product(range(2), repeat=4):
        row = np.zeros(shape)
        row[0, b, bp, :, za, zb] = 1.0
        row[1, b, bp, :, za, zb] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    for ma, bp, oa, zb in product(range(2), repeat=4):
        row = np.zeros(shape)
        row[ma, 0, bp, oa, :, zb] = 1.0
        row[ma, 1, bp, oa, :, zb] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    for ma, b, oa, za in product(range(2), repeat=4):
        row = np.zeros(shape)
        row[ma, b, 0, oa, za, :] = 1.0
        row[ma, b, 1, oa, za, :] = -1.0
        eqs.append(row)
        rhs.append(0.0)
    return HPolytope(
        name="ns3",
        dim=64,
        a_eq=np.array([r.reshape(64) for r in eqs]),
        b_eq=np.array(rhs),
        a_ub=np.zeros((0, 64)),
        b_ub=np.zeros(0),
    )


def lr_vertices() -> np.ndarray:
    """The 16 deterministic two-party strategies, shape (16, 2, 2, 2, 2).

    Vertex 4*a + p assigns verifier outputs (a // 2 + 1, a % 2 + 1) to the
    two settings and prover outputs (p // 2 + 1, p % 2 + 1); vertex 0 is
    the constant-1 strategy.
    """
    out = np.zeros((16, 2, 2, 2, 2), dtype=np.float64)
    for a in range(4):
        fa = (a // 2, a % 2)
        for p in range(4):
            fp = (p // 2, p % 2)
            for ma, mp in product(range(2), repeat=2):
                out[4 * a + p, ma, mp, fa[ma], fp[mp]] = 1.0
    return out


def max_linear(c, poly: HPolytope, den: int = 1) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize (c / den) . x over poly; returns (bound, maximizer, duals).

    One simplex solve (linprog) on the objective rounded to floats.  bound
    is _dual_bound at its row duals: a proven upper bound on the maximum,
    above the simplex optimum by at most the duals' float error.
    Infeasible programs, and solves past the pivot cap, raise
    LpStructureError.
    """
    values = _exact_values(c)
    if len(values) != poly.dim:
        raise ValueError(f"objective has {len(values)} entries, polytope has {poly.dim}")
    _, x, duals = linprog(poly, np.array([v / den for v in values], dtype=np.float64))
    return _dual_bound(values, poly, duals, den), x, duals


def _exact_values(c) -> list:
    """c flattened to a list of its values as they are.  The object dtype
    keeps Python ints exact: numpy would read a list of ints at or past
    2^63 as float64."""
    return np.asarray(c, dtype=object).reshape(-1).tolist()


def _common_denominator(values) -> tuple[list[int], int]:
    """Exact values (floats, ints or Fractions) as integer numerators over
    their least common denominator; OverflowError or ValueError on a value
    that is not finite."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _dual_bound(c, poly: HPolytope, duals, den: int = 1) -> float:
    """Exact weak-duality bound on max (c / den) . x over poly from any row duals.

    c holds floats, ints or Fractions and den is a positive integer; duals
    holds y (equality rows) then z (inequality rows).  With z clipped to
    z >= 0 and the box duals repaired to u = max(0, c / den - A_eq^T y -
    A_ub^T z), (y, z, u) is dual feasible, so b_eq . y + b_ub . z + sum u
    >= (c / den) . x on poly (Neumaier & Shcherbina, Math. Prog. 99, 2004).
    Every value (c, duals, and the nonzero entries of A and b) is brought
    to integers over one common denominator, each column's repair term is
    summed over its nonzero rows in Python ints, and the exact total is
    rounded up to a float once (to inf past the float range).  ValueError
    on a wrong dual or column count; CertificationError when a dual or
    entry of c is not finite.
    """
    duals = np.array(duals, dtype=np.float64)
    n_eq = poly.b_eq.size
    if duals.shape != (n_eq + poly.b_ub.size,):
        raise ValueError("need one dual per equality row and per inequality row")
    values = _exact_values(c)
    if len(values) != poly.dim:
        raise ValueError(f"objective has {len(values)} entries, polytope has {poly.dim}")
    if not np.isfinite(duals).all():
        raise CertificationError("certificate duals must be finite")
    try:
        c_num, c_den = _common_denominator(values)
    except (OverflowError, ValueError):
        raise CertificationError("objective entries must be finite") from None
    duals[n_eq:] = np.maximum(duals[n_eq:], 0.0)
    y, y_den = _common_denominator(duals.tolist())
    col, row, a, b, a_den = poly.exact_rows
    # Over den_all, c / den scales by k_c and every A or b times y by k_y.
    den_all = math.lcm(c_den * den, a_den * y_den)
    k_c, k_y = den_all // (c_den * den), den_all // (a_den * y_den)
    shift = [0] * poly.dim
    for j, i, aij in zip(col, row, a):
        shift[j] += aij * y[i]
    total = k_y * sum(bi * yi for bi, yi in zip(b, y) if bi)
    total += sum(max(0, k_c * cj - k_y * sj) for cj, sj in zip(c_num, shift))
    try:
        bound = total / den_all  # int true division rounds to nearest
    except OverflowError:  # past the float range: round up to inf or -max
        return math.inf if total > 0 else -sys.float_info.max
    p, q = bound.as_integer_ratio()
    return bound if p * den_all >= total * q else math.nextafter(bound, math.inf)


def max_shift_within(c0, c1, poly: HPolytope, bound: float, t_max: float):
    """Largest t in [0, t_max] with max over poly of (c0 + t c1) . x <= bound.

    c1 must be nonnegative, so that the maximum grows with t.  One simplex
    solve (linprog).  Returns (t, row duals (y, z)), a certificate for
    c0 + t c1, or None when no t in range is admissible.
    """
    c0 = np.asarray(c0, dtype=np.float64).reshape(-1)
    c1 = np.asarray(c1, dtype=np.float64).reshape(-1)
    if c0.shape != (poly.dim,) or c1.shape != (poly.dim,):
        raise ValueError(f"objectives must have {poly.dim} entries")
    if (c1 < 0).any():
        raise ValueError("the shift direction c1 must be nonnegative")
    found = linprog(poly, c0, c1, bound, t_max)
    return None if found is None else (found[0], found[2])


# The simplex.  Pivot elements and phase-I residuals up to _PIVOT_TOL count
# as zero, reduced costs up to _COST_TOL as not improving.
_PIVOT_TOL = 1e-9
_COST_TOL = 1e-12
_PIVOT_CAP = 1000


def linprog(poly: HPolytope, c0, c1=None, bound: float = math.inf, t_max: float = 0.0):
    """The package's own simplex: every LP solve of the package is one call.

    Finds the largest t in [0, t_max] with max over poly of (c0 + t c1) . x
    <= bound, for c1 >= 0, by Newton (Dinkelbach) steps on that convex,
    nondecreasing, piecewise-linear maximum f(t).  It starts at t =
    min(1, t_max), or at t_max when that start is admissible; each step
    moves t down to where the current maximizer's line reaches bound and
    re-solves from the previous basis, since only the objective changed.
    With the defaults it is one maximization of c0 . x.  Returns (t,
    maximizer x, row duals (y, z)) or None when no t in range is
    admissible; the duals solve the final basis's transposed system, and
    rows that phase I dropped get 0.  LpStructureError past _PIVOT_CAP
    pivots in one call.
    """
    tab, basis, rows, a, signs = poly.simplex_start
    tab, basis = tab.copy(), basis.copy()
    n = a.shape[1]
    c1 = np.zeros(poly.dim) if c1 is None else c1
    t, budget = min(1.0, t_max), _PIVOT_CAP
    for step in count():
        c = np.zeros(n)
        c[: poly.dim] = c0 + t * c1
        tab[-1, :-1] = c - c[basis] @ tab[:-1, :-1]
        tab[-1, -1] = -(c[basis] @ tab[:-1, -1])
        budget -= _simplex(tab, basis, n, budget)
        x = np.zeros(n)
        x[basis] = tab[:-1, -1]
        x = x[: poly.dim]
        height, slope = float(c0 @ x), float(c1 @ x)
        if height + t * slope <= bound:
            if step == 0 and t < t_max:
                t = t_max
                continue
            break
        if slope <= 0.0 or bound < height:
            return None  # the line, a lower bound on f, exceeds bound on [0, t]
        t_next = (bound - height) / slope
        if t_next >= t:
            break  # f(t) exceeds bound by rounding only
        t = t_next
    duals = np.zeros(signs.size)
    duals[rows] = np.linalg.solve(a[rows][:, basis].T, c[basis])
    duals *= signs
    return t, x, duals[: poly.b_eq.size + poly.b_ub.size]


def _simplex_start(poly: HPolytope):
    """Phase I over poly in standard form {v >= 0 : a v = b}.

    v is x, one slack per inequality row, and one slack per row x_j <= 1
    that no nonnegative equality row already implies.  Rows are signed so
    that b >= 0, and an artificial per row starts the basis.  After phase I
    the artificials still basic are pivoted out; a row where that fails is
    redundant and dropped.  Returns (tableau over the kept rows with an
    objective row, basis, kept rows, a, signs).
    """
    dim, n_eq, n_ub = poly.dim, poly.b_eq.size, poly.b_ub.size
    implied = np.zeros(dim, dtype=bool)
    for row, rhs in zip(poly.a_eq, poly.b_eq):
        if (row >= 0).all() and rhs >= 0:
            implied |= (row > 0) & (row >= rhs)
    box = np.flatnonzero(~implied)
    m, n = n_eq + n_ub + box.size, dim + n_ub + box.size
    a = np.zeros((m, n))
    a[:n_eq, :dim] = poly.a_eq
    a[n_eq : n_eq + n_ub, :dim] = poly.a_ub
    a[n_eq + n_ub + np.arange(box.size), box] = 1.0
    a[n_eq:, dim:] = np.eye(m - n_eq)
    b = np.concatenate([poly.b_eq, poly.b_ub, np.ones(box.size)])
    signs = np.where(b < 0, -1.0, 1.0)
    a, b = a * signs[:, None], b * signs
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n], tab[:m, n:-1], tab[:m, -1] = a, np.eye(m), b
    tab[m, :n], tab[m, -1] = a.sum(axis=0), b.sum()
    basis = np.arange(n, n + m)
    _simplex(tab, basis, n, _PIVOT_CAP)
    if tab[m, -1] > _PIVOT_TOL:
        raise LpStructureError(f"{poly.name}: infeasible (phase I residual {tab[m, -1]:.3g})")
    for r in np.flatnonzero(basis >= n):
        cols = np.flatnonzero(np.abs(tab[r, :n]) > _PIVOT_TOL)
        if cols.size:
            _pivot(tab, basis, r, cols[0])
    rows = np.setdiff1d(np.arange(m), basis[basis >= n] - n)
    keep = np.append(np.flatnonzero(basis < n), m)  # and the objective row
    tab = np.delete(tab, np.s_[n:-1], axis=1)  # the artificial columns
    return tab[keep], basis[keep[:-1]], rows, a, signs


def _simplex(tab, basis, n, budget) -> int:
    """Maximize over tab's objective row by Bland's rule; returns the pivots made."""
    used = 0
    while True:
        j = int(np.argmax(tab[-1, :n] > _COST_TOL))  # Bland: the first improving column
        if tab[-1, j] <= _COST_TOL:
            return used
        if used == budget:
            raise LpStructureError(f"simplex passed its cap of {_PIVOT_CAP} pivots")
        col = tab[:-1, j]
        ok = np.flatnonzero(col > _PIVOT_TOL)
        if ok.size == 0:
            raise LpStructureError("simplex found no pivot row: the program is unbounded")
        ratios = tab[:-1, -1][ok] / col[ok]
        ties = ok[ratios <= ratios.min() + _COST_TOL]
        _pivot(tab, basis, ties[np.argmin(basis[ties])], j)
        used += 1


def _pivot(tab, basis, r, j) -> None:
    tab[r] /= tab[r, j]
    col = tab[:, j].copy()
    col[r] = 0.0
    tab -= col[:, None] * tab[r]
    basis[r] = j

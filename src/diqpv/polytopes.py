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
dual simplex run that returns its duals as such a certificate: max_linear
for a maximum, max_shift_within for the largest admissible shift of an
objective.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.optimize import linprog

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


_TIGHT = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def max_linear(c, poly: HPolytope, den: int = 1) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize (c / den) . x over poly; returns (bound, maximizer, duals).

    One dual simplex solve on the objective rounded to floats.  bound is
    _dual_bound at its row duals: a proven upper bound on the maximum,
    above the simplex optimum by at most the duals' float error.
    Infeasible or unbounded programs raise LpStructureError.
    """
    values = _exact_values(c)
    if len(values) != poly.dim:
        raise ValueError(f"objective has {len(values)} entries, polytope has {poly.dim}")
    res = linprog(
        -np.array([v / den for v in values], dtype=np.float64),
        A_ub=poly.a_ub, b_ub=poly.b_ub, A_eq=poly.a_eq, b_eq=poly.b_eq,
        bounds=(0.0, 1.0), method="highs-ds", options=_TIGHT,
    )
    if res.status != 0:
        raise LpStructureError(f"{poly.name}: LP status {res.status} ({res.message})")
    # linprog minimizes -c . x, so its marginals are the negated duals.
    duals = -np.concatenate([res.eqlin.marginals, res.ineqlin.marginals])
    return _dual_bound(values, poly, duals, den), res.x, duals


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

    One LP over the dual of max_linear's program.  A dual point (y, z, u)
    with A_eq^T y + A_ub^T z + u >= c0 + t c1, z >= 0, u >= 0 bounds the
    primal maximum by b_eq . y + b_ub . z + sum u (weak duality), and
    strong duality makes that bound tight; so t is admissible exactly when
    some dual point keeps the bound <= bound, and the LP maximizes t over
    (t, y, z, u) jointly.  Returns (t, row duals (y, z)), a certificate for
    c0 + t c1, or None when no t in range is admissible.
    """
    c0 = np.asarray(c0, dtype=np.float64).reshape(-1)
    c1 = np.asarray(c1, dtype=np.float64).reshape(-1)
    if c0.shape != (poly.dim,) or c1.shape != (poly.dim,):
        raise ValueError(f"objectives must have {poly.dim} entries")
    rows = np.vstack([poly.a_eq, poly.a_ub])
    m, n_eq, dim = rows.shape[0], poly.a_eq.shape[0], poly.dim
    # Variables: row duals (y free, z >= 0), box duals u >= 0, then t.
    a_ub = np.zeros((dim + 1, m + dim + 1))
    a_ub[:dim, :m] = -rows.T
    a_ub[:dim, m : m + dim] = -np.eye(dim)
    a_ub[:dim, -1] = c1
    a_ub[dim, :m] = np.concatenate([poly.b_eq, poly.b_ub])
    a_ub[dim, m : m + dim] = 1.0
    b_ub = np.concatenate([-c0, [bound]])
    objective = np.zeros(m + dim + 1)
    objective[-1] = -1.0
    bounds = [(None, None)] * n_eq + [(0.0, None)] * (m - n_eq + dim) + [(0.0, t_max)]
    res = linprog(
        objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs-ds",
        options=_TIGHT,
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise LpStructureError(f"{poly.name}: dual LP status {res.status} ({res.message})")
    return float(res.x[-1]), res.x[:m]

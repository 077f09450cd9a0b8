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
(floats or exact Fractions), so a float solver error can loosen a bound
but never make it too small.  Each solve is one dual simplex run that
returns its duals as such a certificate: max_linear for a maximum,
max_shift_within for the largest admissible shift of an objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.optimize import linprog

from .errors import LpStructureError

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


def max_linear(c, poly: HPolytope) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize c . x over poly; returns (bound, maximizer, duals).

    One dual simplex solve.  bound is _dual_bound at its row duals: a
    proven upper bound on the maximum, above the simplex optimum by at most
    the duals' float error.  Infeasible or unbounded programs raise
    LpStructureError.
    """
    c_float = np.asarray(c, dtype=np.float64).reshape(-1)
    if c_float.shape != (poly.dim,):
        raise ValueError(f"objective has {c_float.size} entries, polytope has {poly.dim}")
    res = linprog(
        -c_float, A_ub=poly.a_ub, b_ub=poly.b_ub, A_eq=poly.a_eq, b_eq=poly.b_eq,
        bounds=(0.0, 1.0), method="highs-ds", options=_TIGHT,
    )
    if res.status != 0:
        raise LpStructureError(f"{poly.name}: LP status {res.status} ({res.message})")
    # linprog minimizes -c . x, so its marginals are the negated duals.
    duals = -np.concatenate([res.eqlin.marginals, res.ineqlin.marginals])
    return _dual_bound(c, poly, duals), res.x, duals


def _dual_bound(c, poly: HPolytope, duals) -> float:
    """Exact weak-duality bound on max c . x over poly from any row duals.

    duals holds y (equality rows) then z (inequality rows).  With z clipped
    to z >= 0 and the box duals repaired to u = max(0, c - A_eq^T y -
    A_ub^T z), (y, z, u) is dual feasible, so b_eq . y + b_ub . z + sum u
    >= c . x on poly (Neumaier & Shcherbina, Math. Prog. 99, 2004).  The
    sum is formed exactly in fractions.Fraction and rounded up.
    """
    duals = np.array(duals, dtype=np.float64)
    if duals.shape != (poly.b_eq.size + poly.b_ub.size,):
        raise ValueError("need one dual per equality row and per inequality row")
    duals[poly.b_eq.size:] = np.maximum(duals[poly.b_eq.size:], 0.0)
    duals = [Fraction(v) for v in duals.tolist()]
    rhs = np.concatenate([poly.b_eq, poly.b_ub]).tolist()
    total = sum((Fraction(b) * d for b, d in zip(rhs, duals) if b), Fraction(0))
    cols = np.vstack([poly.a_eq, poly.a_ub]).T.tolist()
    for cj, col in zip(np.asarray(c).reshape(-1).tolist(), cols, strict=True):
        u = Fraction(cj) - sum((Fraction(a) * d for a, d in zip(col, duals) if a), Fraction(0))
        total += max(u, 0)
    bound = float(total)
    return bound if Fraction(bound) >= total else math.nextafter(bound, math.inf)


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

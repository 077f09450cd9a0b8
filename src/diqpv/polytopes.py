"""Polytopes of behaviors and the LP machinery used against them.

Two-party behaviors are arrays sigma[ma, mp, oa, op] (settings first,
outcomes last); the flattened variable order of every constraint matrix is
the C order of that shape.  Three-party adversary behaviors are arrays
mu[ma, b, bp, oa, za, zb] over verifier setting ma and the challenge bits
b, bp held by the two adversary stations.

The polytopes are kept in H-form (equalities, inequalities, box bounds) and
queried through linear programming; no vertex catalogs are enumerated at
runtime.  Every optimization is solved twice, by dual simplex and by
interior point, and the two optima must agree to 1e-9 relative; this is the
weak-duality cross-check for each reported value.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def residual(self, x) -> float:
        """Largest constraint violation at x (0 means inside)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        parts = [0.0, float((-x).max(initial=0.0)), float((x - 1).max(initial=0.0))]
        if self.a_eq.size:
            parts.append(float(np.abs(self.a_eq @ x - self.b_eq).max()))
        if self.a_ub.size:
            parts.append(float((self.a_ub @ x - self.b_ub).max(initial=0.0)))
        return max(parts)


def _unit(shape, *index) -> np.ndarray:
    row = np.zeros(shape, dtype=np.float64)
    row[index] = 1.0
    return row


def correlator_rows() -> np.ndarray:
    """Rows E[ma, mp] . sigma giving the four correlators, shape (4, 16)."""
    rows = np.zeros((4, 2, 2, 2, 2), dtype=np.float64)
    for ma, mp, oa, op in product(range(2), repeat=4):
        rows[2 * ma + mp, ma, mp, oa, op] = 1.0 if oa == op else -1.0
    return rows.reshape(4, 16)


def chsh_row(signs) -> np.ndarray:
    """One signed correlator combination as a length-16 objective row."""
    return np.asarray(signs, dtype=np.float64) @ correlator_rows()


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


def ns_polytope2() -> HPolytope:
    """Two-party no-signaling polytope (quantum_set without the caps)."""
    q = quantum_set()
    return HPolytope(
        name="ns2",
        dim=16,
        a_eq=q.a_eq,
        b_eq=q.b_eq,
        a_ub=np.zeros((0, 16)),
        b_ub=np.zeros(0),
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


def pr_box(alpha: int = 0, beta: int = 0, gamma: int = 0) -> np.ndarray:
    """A Popescu-Rohrlich box variant, shape (2, 2, 2, 2).

    Outcomes satisfy (oa - 1) xor (op - 1) = ma' mp' xor alpha ma' xor
    beta mp' xor gamma (primes denoting 0-based settings), each side
    locally uniform.  The default saturates the correlator combination
    E00 + E01 + E10 - E11 at 4.
    """
    out = np.zeros((2, 2, 2, 2))
    for ma, mp, oa, op in product(range(2), repeat=4):
        target = (ma * mp) ^ (alpha * ma) ^ (beta * mp) ^ gamma
        if (oa ^ op) == target:
            out[ma, mp, oa, op] = 0.5
    return out


def max_linear(c, poly: HPolytope, verify: bool = True) -> tuple[float, np.ndarray]:
    """Maximize c . x over poly; returns (optimum, maximizer).

    Solved by dual simplex; with verify=True an interior-point resolve must
    reproduce the optimum to 1e-9 relative or LpStructureError is raised.
    Infeasible or unbounded programs also raise LpStructureError.
    """
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    if c.shape != (poly.dim,):
        raise ValueError(f"objective has {c.size} entries, polytope has {poly.dim}")
    kwargs = dict(
        c=-c,
        A_eq=poly.a_eq if poly.a_eq.size else None,
        b_eq=poly.b_eq if poly.a_eq.size else None,
        A_ub=poly.a_ub if poly.a_ub.size else None,
        b_ub=poly.b_ub if poly.a_ub.size else None,
        bounds=(0.0, 1.0),
    )
    tight = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    res = linprog(method="highs-ds", options=tight, **kwargs)
    if res.status != 0:
        raise LpStructureError(f"{poly.name}: LP status {res.status} ({res.message})")
    value = -res.fun
    if verify:
        res2 = linprog(
            method="highs-ipm",
            options={**tight, "ipm_optimality_tolerance": 1e-12},
            **kwargs,
        )
        if res2.status != 0:
            raise LpStructureError(
                f"{poly.name}: verification resolve status {res2.status}"
            )
        if abs(-res2.fun - value) > 1e-9 * max(1.0, abs(value)):
            raise LpStructureError(
                f"{poly.name}: optima disagree ({value!r} vs {-res2.fun!r})"
            )
    return float(value), res.x


def lr_distance(sigma) -> float:
    """Sup-norm distance from sigma to the local deterministic hull."""
    target = np.asarray(sigma, dtype=np.float64).reshape(16)
    verts = lr_vertices().reshape(16, 16)
    # Variables: 16 mixture weights and the distance t.
    n = 17
    a_ub = np.zeros((32, n))
    b_ub = np.zeros(32)
    a_ub[:16, :16] = verts.T
    a_ub[:16, 16] = -1.0
    b_ub[:16] = target
    a_ub[16:, :16] = -verts.T
    a_ub[16:, 16] = -1.0
    b_ub[16:] = -target
    a_eq = np.zeros((1, n))
    a_eq[0, :16] = 1.0
    c = np.zeros(n)
    c[16] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * 16 + [(0, None)], method="highs-ds",
    )
    if res.status != 0:
        raise LpStructureError(f"lr membership LP status {res.status} ({res.message})")
    return float(res.fun)


def prover_swap(mu) -> np.ndarray:
    """Exchange the two adversary stations of mu[ma, b, bp, oa, za, zb]."""
    m = np.asarray(mu, dtype=np.float64).reshape(2, 2, 2, 2, 2, 2)
    return m.transpose(0, 2, 1, 3, 5, 4)


def two_party_marginal(mu, bp: int = 0) -> np.ndarray:
    """Marginal behavior of (verifier, first station), shape (2, 2, 2, 2).

    Sums out the second station's outcome at its input bp; for a point of
    the no-signaling polytope the choice of bp is immaterial.  Axes of the
    result are (ma, b, oa, za).
    """
    m = np.asarray(mu, dtype=np.float64).reshape(2, 2, 2, 2, 2, 2)
    return m[:, :, bp].sum(axis=-1)


def uniform_ns3() -> np.ndarray:
    """The maximally mixed three-party behavior (every cell 1/8)."""
    return np.full((2, 2, 2, 2, 2, 2), 1.0 / 8.0)

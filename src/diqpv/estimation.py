"""Maximum-likelihood calibration fits and mismatch regularization.

The calibration estimate is the behavior sigma_tilde maximizing the
multinomial log-likelihood of the matched counts over the outer quantum
approximation (no-signaling equalities plus correlator caps).  The
equalities are eliminated by an orthonormal nullspace parametrization, so
the concave program runs in 8 free coordinates with only inequality
constraints left for the barrier.  The fit depends on counts only through
their normalized frequencies, hence is invariant under count rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._smooth import maximize_log_affine
from .errors import DegenerateDataError
from .polytopes import TSIRELSON, CHSH_SIGNS, correlator_rows, quantum_set
from .trialdata import CountsTable, settings_weights


@dataclass(frozen=True)
class ConditionalDistribution2:
    """Matched-sector behavior sigma[ma, mp, oa, op].

    Each 2x2 outcome block sums to 1 (tolerance 1e-12) and the behavior
    satisfies the quantum-set constraints to 1e-8.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (2, 2, 2, 2):
            raise ValueError("behavior must have shape (2, 2, 2, 2)")
        if (t < -1e-12).any():
            raise ValueError("probabilities must be nonnegative")
        sums = t.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > 1e-12:
            raise ValueError("each settings block must sum to 1")
        if not quantum_set().contains(t, tol=1e-8):
            raise ValueError("behavior violates the quantum-set constraints")
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class ConditionalDistribution3:
    """Full trial behavior sigma[ma, mp, oa, za, zb] including mismatches.

    Per-settings blocks sum to 1 (tolerance 1e-12).  When built by
    regularize, the mass on the za != zb cells equals the mismatch
    parameter d for every settings pair.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (2, 2, 2, 2, 2):
            raise ValueError("behavior must have shape (2, 2, 2, 2, 2)")
        if (t < -1e-15).any():
            raise ValueError("probabilities must be nonnegative")
        sums = t.sum(axis=(2, 3, 4))
        if np.abs(sums - 1.0).max() > 1e-12:
            raise ValueError("each settings block must sum to 1")
        object.__setattr__(self, "table", t)


def _matched_counts(counts) -> np.ndarray:
    if isinstance(counts, CountsTable):
        m = counts.matched().astype(np.float64)
    else:
        m = np.asarray(counts, dtype=np.float64)
        if m.shape != (2, 2, 2, 2):
            raise ValueError("matched counts must have shape (2, 2, 2, 2)")
        if (m < 0).any():
            raise ValueError("counts must be nonnegative")
    if (m.sum(axis=(2, 3)) <= 0).any():
        raise DegenerateDataError("a settings pair has no matched counts")
    return m


def _nullspace_parametrization():
    """Uniform behavior plus an orthonormal basis of the equality nullspace."""
    q = quantum_set()
    _, sv, vt = np.linalg.svd(q.a_eq)
    rank = int((sv > 1e-12 * sv[0]).sum())
    basis = vt[rank:].T  # (16, 8)
    mu0 = np.full(16, 0.25)
    return mu0, basis


def ml_fit_quantum(counts) -> ConditionalDistribution2:
    """Maximum-likelihood behavior for matched counts over the quantum set.

    Accepts a CountsTable (its matched sector is used) or a raw (2,2,2,2)
    matched-counts array N[ma, mp, oa, op].  Returns the maximizer of
    sum N log sigma subject to the no-signaling equalities, nonnegativity,
    and the correlator caps.
    """
    m = _matched_counts(counts)
    weights = (m / m.sum()).reshape(16)
    mu0, basis = _nullspace_parametrization()

    # Rows: 16 cell values (objective weight = frequency, also the
    # nonnegativity constraints) and 8 correlator-cap slacks (weight 0).
    cap_rows = CHSH_SIGNS @ correlator_rows()
    a = np.vstack([basis, -cap_rows @ basis])
    b = np.concatenate([mu0, TSIRELSON - cap_rows @ mu0])
    w = np.concatenate([weights, np.zeros(8)])

    theta = maximize_log_affine(w, a, b, np.zeros(basis.shape[1]))
    mu = mu0 + basis @ theta
    mu = np.clip(mu, 0.0, None)
    mu = mu.reshape(2, 2, 2, 2)
    mu = mu / mu.sum(axis=(2, 3))[:, :, None, None]
    return ConditionalDistribution2(mu)


def regularize(sigma: ConditionalDistribution2, d: float) -> ConditionalDistribution3:
    """Spread mismatch mass d uniformly over the za != zb cells.

    Matched cells are scaled by (1 - d); each of the four mismatch cells
    per settings pair receives d / 4.  d = 0 is the identity embedding.
    """
    if not 0.0 <= d < 1.0:
        raise ValueError("mismatch parameter must satisfy 0 <= d < 1")
    s2 = sigma.table
    out = np.zeros((2, 2, 2, 2, 2))
    for z in range(2):
        out[:, :, :, z, z] = (1.0 - d) * s2[:, :, :, z]
    out[:, :, :, 0, 1] = d / 4.0
    out[:, :, :, 1, 0] = d / 4.0
    return ConditionalDistribution3(out)


def cell_probabilities(sigma3: ConditionalDistribution3, nu) -> np.ndarray:
    """Joint cell probabilities in counts-table axis order.

    Returns P[mqa, oqa, mqp, zqa, zqb] = nu[mqa, mqp] sigma3[...], summing
    to 1; the flat order matches the packed trial-byte codes.
    """
    weights = settings_weights(nu)
    joint = sigma3.table * weights[:, :, None, None, None]
    return joint.transpose(0, 2, 1, 3, 4)

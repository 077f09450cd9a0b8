"""Test-factor construction and certification against three-party attacks.

A test factor assigns a nonnegative value w to every reduced-record cell
such that any allowed adversary strategy has expected value at most 1 per
trial; products of factors across trials then form an e-value.  The
allowed strategies here are the three-party no-signaling behaviors, and a
factor is certified by exactly checked duals of the LP maximum of the
expected factor over that polytope (challenge bits agree on the objective
slices; constraints span all input combinations).  Factors are symmetric
under exchange of the two reported prover outcomes by construction:
matched cells depend on the common outcome only, and all mismatch cells
share one constant.

Construction pipeline: a matched-sector factor is fitted against the
local-deterministic strategies by maximizing the expected log factor
(prediction-based-ratio form), the mismatch constant is the largest
certifiable value, read from one LP over the dual of the certification
LP (the expected factor is affine in the constant) whose duals certify
the factor, which can then be mixed toward unity, the mix mapping the
duals along.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ._smooth import maximize_log_affine
from .errors import CertificationError, DegenerateDataError
from .estimation import (
    ConditionalDistribution2,
    ConditionalDistribution3,
    cell_probabilities,
)
from .polytopes import (
    _common_denominator,
    _dual_bound,
    chsh_values,
    lr_vertices,
    max_linear,
    max_shift_within,
    ns3_polytope,
)
from .trialdata import settings_weights

_NS3 = ns3_polytope()

# Fine (PRL 48, 291 (1982)): a no-signaling behavior here is local iff all
# CHSH values are <= 2; an excess e is within sup-norm e/2 of the local hull.
LOCAL_CHSH_TOL = 2e-9

# A certificate's exact bound may exceed 1 by the float error of its duals
# (about 1e-15); up to this excess it is divided out, beyond it is an error.
ROUNDING_EXCESS = 1e-9


@dataclass(frozen=True)
class MatchedFactor:
    """Matched-sector factor table against local-deterministic strategies.

    table[ma, mp, oa, op] is the factor value for outcome pair (oa, op)
    at settings (ma, mp); gain is the expected log factor (natural log)
    under the calibration behavior.  lr_violating is False when the
    calibration behavior sits inside the local hull, in which case the
    table is identically 1 and the gain 0.
    """

    table: np.ndarray
    gain: float
    lr_violating: bool

    def __post_init__(self):  # lambda_max and certified_factor check the values
        object.__setattr__(self, "table", np.asarray(self.table, dtype=np.float64))


@dataclass(frozen=True)
class TestFactor:
    """Certified per-trial factor: matched table plus mismatch constant.

    matched[ma, mp, oa, z] applies to cells with zqa = zqb = z; every
    za != zb cell takes the mismatch constant.  nu is the settings
    distribution the certification was run against.  Construction only
    checks (certified_factor finds a certificate): CertificationError
    unless the NS3 row duals y and scale s give _dual_bound(s c, y) <= s
    for the exact objective c, with every value finite; cert_margin =
    1 - bound / s >= 0.
    """

    matched: np.ndarray
    mismatch: float
    nu: np.ndarray
    duals: np.ndarray
    cert_margin: float = field(init=False)
    scale: float = 1.0
    meta: dict | None = None

    def __post_init__(self):
        m = np.asarray(self.matched, dtype=np.float64)
        nu = settings_weights(self.nu)
        num, den = _expected_factor_objective(m, self.mismatch, nu)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise CertificationError(f"certificate scale {self.scale!r} is not a positive number")
        p, q = float(self.scale).as_integer_ratio()
        bound = _dual_bound([p * v for v in num], _NS3, self.duals, den * q)
        if bound > self.scale:
            raise CertificationError(f"certified bound {bound!r} / scale {self.scale!r} exceeds 1")
        object.__setattr__(self, "matched", m)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "duals", np.array(self.duals, dtype=np.float64))
        object.__setattr__(self, "cert_margin", 1.0 - bound / self.scale)

    def full_table(self) -> np.ndarray:
        """Factor over all 32 cells, axes (mqa, oqa, mqp, zqa, zqb)."""
        out = np.full((2, 2, 2, 2, 2), self.mismatch, dtype=np.float64)
        for z in range(2):
            out[:, :, :, z, z] = self.matched[:, :, :, z].transpose(0, 2, 1)
        return out

    def global_min(self) -> float:
        return float(min(self.matched.min(), self.mismatch))


def certify(matched, mismatch: float, nu):
    """Proven bound on the expected factor over the no-signaling adversaries.

    Returns (bound, maximizing behavior, duals): one LP (max_linear), whose
    bound is exact at its duals, at or just above the LP maximum.
    """
    num, den = _expected_factor_objective(matched, mismatch, settings_weights(nu))
    bound, mu, duals = max_linear(num, _NS3, den)
    return bound, mu.reshape(2, 2, 2, 2, 2, 2), duals


def _expected_factor_objective(matched, mismatch: float, nu) -> tuple[list[int], int]:
    """Expected factor as an exact linear objective over the 64 NS3 variables.

    Returns integer numerators and their one common denominator.  The
    entries are the exact products nu * w / sum(nu), so weights whose float
    sum is not exactly 1 are normalized exactly (solvers see the entries'
    float rounding).  Only the slices where the two challenge bits agree
    carry weight; the objective is linear in (matched, mismatch).
    ValueError unless matched has shape (2, 2, 2, 2) and no value is
    negative; CertificationError if a value is not finite.
    """
    matched = np.asarray(matched, dtype=np.float64)
    if matched.shape != (2, 2, 2, 2):
        raise ValueError("matched table must have shape (2, 2, 2, 2)")
    if not (np.isfinite(matched).all() and math.isfinite(mismatch)):
        raise CertificationError("factor values must be finite")
    if (matched < 0).any() or mismatch < 0:
        raise ValueError("factor values must be nonnegative")
    # Over their common power of two the weights are integers n, and
    # nu / sum(nu) = n / sum(n) exactly.
    weights, _ = _common_denominator(np.asarray(nu, dtype=np.float64).reshape(4).tolist())
    w, w_den = _common_denominator(matched.reshape(16).tolist() + [float(mismatch)])
    num = [0] * 64
    for ma, b, oa, za, zb in product(range(2), repeat=5):
        cell = 8 * ma + 4 * b + 2 * oa + za if za == zb else 16
        # The flat index of mu[ma, b, b, oa, za, zb].
        num[32 * ma + 24 * b + 4 * oa + 2 * za + zb] = weights[2 * ma + b] * w[cell]
    return num, sum(weights) * w_den


def _float_objective(matched, mismatch: float, nu) -> np.ndarray:
    """The exact objective rounded entrywise to floats, as solvers see it."""
    num, den = _expected_factor_objective(matched, mismatch, nu)
    return np.array([v / den for v in num])


def certified_factor(matched, mismatch: float, nu, duals=None, meta=None) -> TestFactor:
    """The factor certified by NS3 row duals (one certify LP finds them if None).

    An exact bound b in (1, 1 + ROUNDING_EXCESS] is divided out, rounded
    toward 0, so (duals, scale b) holds exactly; a larger b is an error.
    """
    nu = settings_weights(nu)
    if duals is None:
        duals = certify(matched, mismatch, nu)[2]
    num, den = _expected_factor_objective(matched, mismatch, nu)
    bound = _dual_bound(num, _NS3, duals, den)
    if bound > 1.0 + ROUNDING_EXCESS:
        raise CertificationError(f"certified bound {bound!r} exceeds 1")
    if bound > 1.0:
        matched = np.nextafter(np.asarray(matched) / bound, 0.0)
        mismatch = math.nextafter(mismatch / bound, 0.0)
    return TestFactor(matched, mismatch, nu, duals, scale=max(bound, 1.0), meta=meta)


def _vertex_constraint_rows(nu) -> np.ndarray:
    """Expected-factor rows per deterministic strategy, shape (16, 16).

    Row v dotted with a flattened matched table gives the strategy's
    expected factor; certifiability against the local hull is rows <= 1.
    """
    return (lr_vertices() * nu[:, :, None, None]).reshape(16, 16)


def build_wlr(sigma_match: ConditionalDistribution2, nu) -> MatchedFactor:
    """Fit the matched-sector factor maximizing the expected log factor.

    Maximizes sum nu sigma log W subject to W >= 0 and expected factor at
    most 1 under every deterministic strategy.  A calibration behavior
    inside the local hull (by Fine's criterion, see LOCAL_CHSH_TOL) yields
    the unity factor flagged non-violating.
    Cells carrying no calibration weight are pinned to 0, the choice that
    maximizes the achievable mismatch constant, unless raising them to 1
    is feasible and leaves the constant unchanged (ties go to 1).
    """
    nu = settings_weights(nu)
    sig = sigma_match.table
    if chsh_values(sig).max() <= 2.0 + LOCAL_CHSH_TOL:
        return MatchedFactor(np.ones((2, 2, 2, 2)), 0.0, False)

    p = (nu[:, :, None, None] * sig).reshape(16)
    rows = _vertex_constraint_rows(nu)
    support = p > 0
    ns = int(support.sum())
    idx = np.nonzero(support)[0]

    # Variables: factor values on support cells.  Rows: the cell values
    # themselves (objective weight p, also nonnegativity) and the 16
    # strategy slacks 1 - row . W.
    a = np.vstack([np.eye(ns), -rows[:, idx]])
    b = np.concatenate([np.zeros(ns), np.ones(16)])
    w = np.concatenate([p[idx], np.zeros(16)])
    x = maximize_log_affine(w, a, b, np.full(ns, 0.9))

    table = np.zeros(16)
    table[idx] = np.clip(x, 0.0, None)
    if (~support).any():
        table = _pin_free_cells(table, support, rows, nu)
    gain = float(p[idx] @ np.log(table[idx]))
    return MatchedFactor(table.reshape(2, 2, 2, 2), gain, True)


def _pin_free_cells(table, support, rows, nu) -> np.ndarray:
    """Resolve factor cells with zero calibration weight.

    Zero maximizes the certifiable mismatch constant; if setting the free
    cells to 1 keeps every strategy constraint satisfied and the constant
    unchanged (within 1e-9), prefer 1.  Each constant is one dual LP.
    """
    raised = table.copy()
    raised[~support] = 1.0
    if (rows @ raised <= 1.0 + 1e-12).all():
        base, _ = lambda_max(table.reshape(2, 2, 2, 2), nu)
        alt, _ = lambda_max(raised.reshape(2, 2, 2, 2), nu)
        if alt >= base - 1e-9:
            return raised
    return table


def lambda_max(table: np.ndarray, nu) -> tuple[float, np.ndarray]:
    """Largest mismatch constant lambda for a matched table, from one LP.

    The expected factor is c0 + lambda c1 (c0 the matched part, c1 the
    mismatch part), so the largest certifiable lambda is one shift search
    (polytopes.max_shift_within).  The expectation is at least lambda
    itself (an all-mismatch behavior is allowed), so no constant above 1
    is certifiable and the search stops at 1.  Returns (lambda, the LP's
    NS3 row duals, a certificate for certified_factor); raises
    CertificationError when the matched table alone is not certifiable.
    """
    nu = settings_weights(nu)
    c0 = _float_objective(table, 0.0, nu)
    c1 = _float_objective(np.zeros((2, 2, 2, 2)), 1.0, nu)
    found = max_shift_within(c0, c1, _NS3, bound=1.0, t_max=1.0)
    if found is None:
        raise CertificationError(
            "matched factor alone is not certifiable; no valid mismatch constant"
        )
    return found


def wbar_min(tf: TestFactor) -> float:
    """Settings-averaged minimum factor value sum nu min_cells w.

    The minimum per settings pair ranges over all outcome cells including
    the mismatch constant, and nu is tf.nu, the weights the factor was
    certified for.
    """
    per_settings = np.minimum(tf.matched.min(axis=(2, 3)), tf.mismatch)
    return float((tf.nu * per_settings).sum())


def mixing_cap(tf: TestFactor) -> float:
    """Largest unity-mixing weight keeping the factor nonnegative."""
    wmin = tf.global_min()
    return math.inf if wmin >= 1.0 else 1.0 / (1.0 - wmin)


def mix_with_unity(tf: TestFactor, lam_mix: float) -> TestFactor:
    """Convex (or certified super-unity) mix lam W + (1 - lam).

    lam_mix ranges over [0, 1/(1 - min w)]: 1 returns the factor, 0 the
    unity factor, the cap drives the smallest cell to 0.  Expectations
    are affine in lam, so the duals lam y + (1 - lam) y1 certify the whole
    range, y1 (nu on the normalization rows) covering the unity factor.
    """
    cap = mixing_cap(tf)
    if not 0.0 <= lam_mix <= cap + 1e-12:
        raise ValueError(f"mixing weight must lie in [0, {cap}]")
    if lam_mix == 1.0:
        return tf
    matched = np.clip(lam_mix * tf.matched + (1.0 - lam_mix), 0.0, None)
    mismatch = max(lam_mix * tf.mismatch + (1.0 - lam_mix), 0.0)
    # y1 gives each normalization row its block's unity objective (nu or 0).
    c1 = _float_objective(np.ones((2, 2, 2, 2)), 1.0, tf.nu)
    unity = np.where(_NS3.b_eq == 1.0, (_NS3.a_eq * c1).max(axis=1), 0.0)
    duals = lam_mix * tf.duals / tf.scale + (1.0 - lam_mix) * unity
    return certified_factor(matched, float(mismatch), tf.nu, duals, tf.meta)


def gain_variance(tf: TestFactor, sigma3: ConditionalDistribution3):
    """Per-trial gain and variance of log2 w under a behavior.

    Returns (g, v) in bits: g = E[log2 w], v = Var[log2 w] under the cell
    distribution induced by sigma3 and the factor's settings weights tf.nu.
    A zero factor value on a support cell is an error.
    """
    probs = cell_probabilities(sigma3, tf.nu)
    w = tf.full_table()
    mask = probs > 0
    if (w[mask] <= 0).any():
        raise DegenerateDataError("factor is zero on a cell with positive probability")
    logs = np.zeros_like(w)
    logs[mask] = np.log2(w[mask])
    g = float((probs * logs).sum())
    v = float((probs * logs**2).sum() - g**2)
    return g, max(v, 0.0)


def testfactor_to_json(tf: TestFactor) -> str:
    """Serialize with full-precision floats, the certificate and its margin."""
    payload = {
        "format": "diqpv-test-factor",
        "version": 2,
        "matched": tf.matched.tolist(),
        "mismatch": tf.mismatch,
        "nu": tf.nu.tolist(),
        "certificate": {"duals": tf.duals.tolist(), "scale": tf.scale},
        "cert_margin": tf.cert_margin,
        "meta": tf.meta or {},
    }
    return json.dumps(payload, indent=2)

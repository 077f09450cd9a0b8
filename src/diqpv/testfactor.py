"""Test-factor construction and certification against three-party attacks.

A test factor assigns a nonnegative value w to every reduced-record cell
such that any allowed adversary strategy has expected value at most 1 per
trial; products of factors across trials then form an e-value.  The
allowed strategies here are the three-party no-signaling behaviors, and
certification is the LP maximum of the expected factor over that polytope
(challenge bits agree on the objective slices; constraints span all input
combinations).  Factors are symmetric under exchange of the two reported
prover outcomes by construction: matched cells depend on the common
outcome only, and all mismatch cells share one constant.

Construction pipeline: a matched-sector factor is fitted against the
local-deterministic strategies by maximizing the expected log factor
(prediction-based-ratio form), the mismatch constant is the largest
certifiable value, read from one LP over the dual of the certification
LP (the expected factor is affine in the constant), and the assembled
factor can then be rescaled, mixed toward unity, or discounted for
entanglement accounting, each transform preserving certification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ._smooth import maximize_log_affine
from .errors import CertificationError, DegenerateDataError, UselessFactorError
from .estimation import (
    ConditionalDistribution2,
    ConditionalDistribution3,
    cell_probabilities,
)
from .polytopes import (
    lr_distance,
    lr_vertices,
    max_linear,
    max_shift_within,
    ns3_polytope,
)
from .trialdata import settings_weights

_NS3 = ns3_polytope()

LR_MEMBERSHIP_TOL = 1e-9
CERT_SLACK = 1e-8


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

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != (2, 2, 2, 2):
            raise ValueError("factor table must have shape (2, 2, 2, 2)")
        if (t < 0).any():
            raise ValueError("factor values must be nonnegative")
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class TestFactor:
    """Certified per-trial factor: matched table plus mismatch constant.

    matched[ma, mp, oa, z] applies to cells with zqa = zqb = z; every
    za != zb cell takes the mismatch constant.  nu is the settings
    distribution the certification was run against.  cert_margin stores
    1 - (exact dual bound on the expected factor, see certify); a factor
    on the NS3 facet reads a few ulp negative.  Construction fails unless
    cert_margin >= -CERT_SLACK.
    """

    matched: np.ndarray
    mismatch: float
    nu: np.ndarray
    cert_margin: float = field(init=False)
    meta: dict | None = None

    def __post_init__(self):
        m = np.asarray(self.matched, dtype=np.float64)
        if m.shape != (2, 2, 2, 2):
            raise ValueError("matched table must have shape (2, 2, 2, 2)")
        if (m < 0).any() or self.mismatch < 0:
            raise ValueError("factor values must be nonnegative")
        nu = settings_weights(self.nu)
        object.__setattr__(self, "matched", m)
        object.__setattr__(self, "nu", nu)
        worst, _ = certify(m, self.mismatch, nu)
        if worst > 1.0 + CERT_SLACK:
            raise CertificationError(
                f"adversarial expectation bound {worst!r} exceeds 1 + {CERT_SLACK}"
            )
        object.__setattr__(self, "cert_margin", 1.0 - worst)

    def full_table(self) -> np.ndarray:
        """Factor over all 32 cells, axes (mqa, oqa, mqp, zqa, zqb)."""
        out = np.full((2, 2, 2, 2, 2), self.mismatch, dtype=np.float64)
        for z in range(2):
            out[:, :, :, z, z] = self.matched[:, :, :, z].transpose(0, 2, 1)
        return out

    def value(self, mqa, oqa, mqp, zqa, zqb) -> float:
        if zqa == zqb:
            return float(self.matched[mqa - 1, mqp - 1, oqa - 1, zqa - 1])
        return float(self.mismatch)

    def global_min(self) -> float:
        return float(min(self.matched.min(), self.mismatch))


def certify(matched, mismatch: float, nu):
    """Proven bound on the expected factor over the no-signaling adversaries.

    Returns (bound, maximizing behavior): one LP (max_linear), whose bound
    is an exact weak-duality bound, at or just above the LP maximum.  The
    objective weights only the slices where the two challenge bits agree;
    the polytope constraints cover all input combinations.
    """
    c = _expected_factor_objective(matched, mismatch, settings_weights(nu))
    bound, mu = max_linear(c, _NS3)
    return bound, mu.reshape(2, 2, 2, 2, 2, 2)


def _expected_factor_objective(matched, mismatch: float, nu) -> np.ndarray:
    """Expected factor as a linear objective over the 64 NS3 variables.

    Only the slices where the two challenge bits agree carry weight; the
    objective is linear in (matched, mismatch).
    """
    matched = np.asarray(matched, dtype=np.float64)
    c = np.zeros((2, 2, 2, 2, 2, 2))
    for ma, b, oa, za, zb in product(range(2), repeat=5):
        w = matched[ma, b, oa, za] if za == zb else mismatch
        c[ma, b, b, oa, za, zb] = nu[ma, b] * w
    return c.reshape(64)


def _vertex_constraint_rows(nu) -> np.ndarray:
    """Expected-factor rows per deterministic strategy, shape (16, 16).

    Row v dotted with a flattened matched table gives the strategy's
    expected factor; certifiability against the local hull is rows <= 1.
    """
    verts = lr_vertices()
    nu4 = nu[:, :, None, None]
    return (verts * nu4).reshape(16, 16)


def build_wlr(sigma_match: ConditionalDistribution2, nu) -> MatchedFactor:
    """Fit the matched-sector factor maximizing the expected log factor.

    Maximizes sum nu sigma log W subject to W >= 0 and expected factor at
    most 1 under every deterministic strategy.  A calibration behavior
    inside the local hull yields the unity factor flagged non-violating.
    Cells carrying no calibration weight are pinned to 0, the choice that
    maximizes the achievable mismatch constant, unless raising them to 1
    is feasible and leaves the constant unchanged (ties go to 1).
    """
    nu = settings_weights(nu)
    sig = sigma_match.table
    if lr_distance(sig) <= LR_MEMBERSHIP_TOL:
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
        base = lambda_max_table(table.reshape(2, 2, 2, 2), nu)
        alt = lambda_max_table(raised.reshape(2, 2, 2, 2), nu)
        if alt >= base - 1e-9:
            return raised
    return table


def lambda_max(wlr: MatchedFactor, nu) -> float:
    """Largest certifiable mismatch constant for a matched factor."""
    return lambda_max_table(wlr.table, nu)


def lambda_max_table(table: np.ndarray, nu) -> float:
    """Largest lambda with adversarial expectation <= 1, from one dual LP.

    The expected factor is c0 + lambda c1 (c0 the matched part, c1 the
    mismatch part), so the largest certifiable lambda in [0, 10] is one LP
    over the dual of certify's program (polytopes.max_shift_within).  The
    expectation is at least lambda itself (an all-mismatch behavior is
    allowed), so 10 never binds.  Raises CertificationError when the
    matched table alone is not certifiable.
    """
    nu = settings_weights(nu)
    lam = max_shift_within(
        _expected_factor_objective(table, 0.0, nu),
        _expected_factor_objective(np.zeros((2, 2, 2, 2)), 1.0, nu),
        _NS3,
        bound=1.0,
        t_max=10.0,
    )
    if lam is None:
        raise CertificationError(
            "matched factor alone is not certifiable; no valid mismatch constant"
        )
    # The all-mismatch behavior gives Exp(W) >= lambda, so no constant
    # above 1 is ever truly certifiable; solver tolerance must not leak
    # past that bound (it would fabricate gain for a unit factor).
    return min(lam, 1.0)


def assemble_robust(wlr: MatchedFactor, lam: float, nu, meta: dict | None = None) -> TestFactor:
    """Assemble the full factor: matched table plus mismatch constant lam.

    Matched cells take the factor at outcome pair (oa, z) for common
    prover outcome z; construction certifies against the no-signaling
    polytope and raises CertificationError when lam is too large.
    """
    if lam < 0:
        raise ValueError("mismatch constant must be nonnegative")
    matched = np.stack([wlr.table[:, :, :, z] for z in range(2)], axis=-1)
    return TestFactor(matched, float(lam), settings_weights(nu), meta=meta)


def wbar_min(tf: TestFactor, nu=None) -> float:
    """Settings-averaged minimum factor value sum nu min_cells w.

    The minimum per settings pair ranges over all outcome cells including
    the mismatch constant.  nu defaults to the factor's own distribution;
    a raw weight array (e.g. a point mass) is accepted.
    """
    weights = tf.nu if nu is None else settings_weights(nu)
    per_settings = np.minimum(tf.matched.min(axis=(2, 3)), tf.mismatch)
    return float((weights * per_settings).sum())


def scale_for_fixed_entanglement(tf: TestFactor, xi: float) -> TestFactor:
    """Divide the factor by 1 + xi (1 - wbar_min) for source robustness xi."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if xi == 0:
        return tf
    wmin = wbar_min(tf)
    if wmin >= 1.0:
        raise UselessFactorError(
            "factor has settings-averaged minimum >= 1; nothing to scale"
        )
    scale = 1.0 + xi * (1.0 - wmin)
    return TestFactor(tf.matched / scale, tf.mismatch / scale, tf.nu, meta=tf.meta)


def mixing_cap(tf: TestFactor) -> float:
    """Largest unity-mixing weight keeping the factor nonnegative."""
    wmin = tf.global_min()
    return math.inf if wmin >= 1.0 else 1.0 / (1.0 - wmin)


def mix_with_unity(tf: TestFactor, lam_mix: float) -> TestFactor:
    """Convex (or certified super-unity) mix lam W + (1 - lam).

    lam_mix ranges over [0, 1/(1 - min w)]: 1 returns the factor, 0 the
    unity factor, the cap drives the smallest cell to 0.  Certification is
    preserved for the whole range since expectations are affine in lam.
    """
    cap = mixing_cap(tf)
    if not 0.0 <= lam_mix <= cap + 1e-12:
        raise ValueError(f"mixing weight must lie in [0, {cap}]")
    matched = lam_mix * tf.matched + (1.0 - lam_mix)
    mismatch = lam_mix * tf.mismatch + (1.0 - lam_mix)
    matched = np.clip(matched, 0.0, None)
    mismatch = max(mismatch, 0.0)
    return TestFactor(matched, float(mismatch), tf.nu, meta=tf.meta)


def entanglement_discounted(tf: TestFactor, r_th: float) -> TestFactor:
    """Multiply by exp(-r_th (1 - wbar_min)); identity at r_th = 0."""
    if r_th < 0:
        raise ValueError("r_th must be nonnegative")
    factor = math.exp(-r_th * (1.0 - wbar_min(tf)))
    if factor == 1.0:
        return tf
    return TestFactor(tf.matched * factor, tf.mismatch * factor, tf.nu, meta=tf.meta)


def gain_variance(tf: TestFactor, sigma3: ConditionalDistribution3, nu=None):
    """Per-trial gain and variance of log2 w under a behavior.

    Returns (g, v) in bits: g = E[log2 w], v = Var[log2 w] under the cell
    distribution induced by sigma3 and nu.  A zero factor value on a
    support cell is an error.
    """
    weights = tf.nu if nu is None else settings_weights(nu)
    probs = cell_probabilities(sigma3, weights)
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
    """Serialize with full-precision floats and the certification margin."""
    payload = {
        "format": "diqpv-test-factor",
        "version": 1,
        "matched": tf.matched.tolist(),
        "mismatch": tf.mismatch,
        "nu": tf.nu.tolist(),
        "cert_margin": tf.cert_margin,
        "meta": tf.meta or {},
    }
    return json.dumps(payload, indent=2)


def testfactor_from_json(text: str) -> TestFactor:
    """Inverse of testfactor_to_json; re-certifies on construction."""
    payload = json.loads(text)
    if payload.get("format") != "diqpv-test-factor":
        raise ValueError("not a serialized test factor")
    return TestFactor(
        np.array(payload["matched"], dtype=np.float64),
        float(payload["mismatch"]),
        np.array(payload["nu"], dtype=np.float64),
        meta=payload.get("meta") or None,
    )

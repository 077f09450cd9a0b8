"""Honest-device and adversary models, and seeded trial-stream sampling.

The honest model is a polarization-entangled pair source a|HH> + b|VV>
with one photon analyzed at verifier station A (angle set by mqa) and one
at the prover (angle set by mqp), finite pair probability, detector
efficiencies, and independent dark counts.  Outcome binning is 1 = no
detection, 2 = detection, for the verifier outcome and both reported
prover outcomes, which makes the no-pair channel the dominant (1,1,1)
cell as in recorded calibration tables.

Sampling is counter-based (Philox) with inverse-CDF lookup per chunk, so
a given key reproduces the identical byte stream on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import ConditionalDistribution2, ConditionalDistribution3, cell_probabilities, regularize
from .polytopes import lr_vertices, ns3_polytope
from .trialdata import settings_weights

_NS3 = ns3_polytope()

# Published operating values; the state amplitudes are the rounded pair
# renormalized to satisfy a^2 + b^2 = 1 exactly.
_RAW_A, _RAW_B = 0.383, 0.924
_NORM = math.hypot(_RAW_A, _RAW_B)
DEFAULT_AMP_A = _RAW_A / _NORM
DEFAULT_AMP_B = _RAW_B / _NORM
DEFAULT_ANGLES_A_DEG = (-6.7, 29.26)
DEFAULT_ANGLES_P_DEG = (6.7, -29.26)
DEFAULT_ETA = 0.81
DEFAULT_DARK_COUNT = 1e-7
DEFAULT_PAIR_PROB = 1.0 / 350.0
DEFAULT_MISMATCH = 2e-6


def challenge_to_setting(cba: int, cbb: int) -> int:
    """Prover setting from the two challenge bits: their parity plus 1."""
    if cba not in (1, 2) or cbb not in (1, 2):
        raise ValueError("challenge bits must be 1 or 2")
    return ((cba - 1) ^ (cbb - 1)) + 1


@dataclass(frozen=True)
class HonestProverModel:
    """Physical model of the honest source, analyzers, and detectors."""

    amp_a: float = DEFAULT_AMP_A
    amp_b: float = DEFAULT_AMP_B
    angles_a_deg: tuple[float, float] = DEFAULT_ANGLES_A_DEG
    angles_p_deg: tuple[float, float] = DEFAULT_ANGLES_P_DEG
    eta_a: float = DEFAULT_ETA
    eta_p: float = DEFAULT_ETA
    dark_count: float = DEFAULT_DARK_COUNT
    p_pair: float = DEFAULT_PAIR_PROB
    d_sim: float = DEFAULT_MISMATCH

    def __post_init__(self):
        if abs(self.amp_a**2 + self.amp_b**2 - 1.0) > 1e-12:
            raise ValueError("state amplitudes must satisfy a^2 + b^2 = 1")
        for eta in (self.eta_a, self.eta_p):
            if not 0.0 <= eta <= 1.0:
                raise ValueError("detection efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_count < 1.0:
            raise ValueError("dark-count probability must lie in [0, 1)")
        if not 0.0 <= self.p_pair <= 1.0:
            raise ValueError("pair probability must lie in [0, 1]")
        if not 0.0 <= self.d_sim < 1.0:
            raise ValueError("mismatch spread must lie in [0, 1)")
        if len(self.angles_a_deg) != 2 or len(self.angles_p_deg) != 2:
            raise ValueError("two analyzer angles per side")


def honest_matched(model: HonestProverModel) -> ConditionalDistribution2:
    """Detection behavior sigma[ma, mp, oa, op] before mismatch spreading.

    Joint detection follows the Born rule through the analyzers, thinned
    by the efficiencies and the pair probability; dark counts are OR-ed
    onto each detector independently.  Outcome 1 is no detection.
    """
    a, b = model.amp_a, model.amp_b
    out = np.zeros((2, 2, 2, 2))
    da, dp = model.dark_count, model.dark_count
    for ma in range(2):
        alpha = math.radians(model.angles_a_deg[ma])
        ca, sa = math.cos(alpha), math.sin(alpha)
        for mp in range(2):
            beta = math.radians(model.angles_p_deg[mp])
            cb, sb = math.cos(beta), math.sin(beta)
            joint = (a * ca * cb + b * sa * sb) ** 2
            marg_a = a * a * ca * ca + b * b * sa * sa
            marg_p = a * a * cb * cb + b * b * sb * sb
            q11 = model.p_pair * model.eta_a * model.eta_p * joint
            qa = model.p_pair * model.eta_a * marg_a
            qp = model.p_pair * model.eta_p * marg_p
            q10 = qa - q11
            q01 = qp - q11
            q00 = 1.0 - q11 - q10 - q01
            # Dark counts promote non-detections independently.
            p11 = q11 + q10 * dp + q01 * da + q00 * da * dp
            p10 = q10 * (1 - dp) + q00 * da * (1 - dp)
            p01 = q01 * (1 - da) + q00 * (1 - da) * dp
            p00 = q00 * (1 - da) * (1 - dp)
            out[ma, mp, 0, 0] = p00
            out[ma, mp, 0, 1] = p01
            out[ma, mp, 1, 0] = p10
            out[ma, mp, 1, 1] = p11
    return ConditionalDistribution2(out)


def honest_distribution(model: HonestProverModel) -> ConditionalDistribution3:
    """Full honest trial behavior including the mismatch spread d_sim."""
    return regularize(honest_matched(model), model.d_sim)


def source_robustness(model: HonestProverModel) -> float:
    """Entanglement-rate contribution of the source per trial.

    For a pure pair state the robustness is (sum of Schmidt coefficients)
    squared minus one, weighted by the pair probability.
    """
    return model.p_pair * ((abs(model.amp_a) + abs(model.amp_b)) ** 2 - 1.0)


@dataclass(frozen=True)
class AdversaryModel:
    """A cheating strategy presented as a full trial behavior."""

    kind: str
    behavior: ConditionalDistribution3

    @classmethod
    def lr_vertex(cls, index: int) -> "AdversaryModel":
        """Deterministic strategy: both stations report the same output."""
        if not 0 <= index < 16:
            raise ValueError("vertex index must lie in 0..15")
        sigma2 = lr_vertices()[index]
        return cls(f"lr-vertex-{index}", _matched_to_full(sigma2))

    @classmethod
    def lr_mixture(cls, weights) -> "AdversaryModel":
        """Convex mixture of the deterministic strategies."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (16,) or (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("need 16 nonnegative weights summing to 1")
        sigma2 = (lr_vertices() * w[:, None, None, None, None]).sum(axis=0)
        return cls("lr-mixture", _matched_to_full(sigma2))

    @classmethod
    def ns3_point(cls, mu) -> "AdversaryModel":
        """General no-signaling strategy mu[ma, b, bp, oa, za, zb]."""
        m = np.asarray(mu, dtype=np.float64).reshape(2, 2, 2, 2, 2, 2)
        if not _NS3.contains(m, tol=1e-9):
            raise ValueError("behavior violates the no-signaling polytope")
        full = np.empty((2, 2, 2, 2, 2))
        for mp in range(2):
            full[:, mp] = m[:, mp, mp]
        return cls("ns3-point", ConditionalDistribution3(np.clip(full, 0.0, None)))


def _matched_to_full(sigma2: np.ndarray) -> ConditionalDistribution3:
    """Embed a matched behavior: both stations report the prover outcome."""
    full = np.zeros((2, 2, 2, 2, 2))
    for z in range(2):
        full[:, :, :, z, z] = sigma2[:, :, :, z]
    return ConditionalDistribution3(full)


def sample_trials(sigma3: ConditionalDistribution3, nu, count: int, key: int) -> np.ndarray:
    """Draw count i.i.d. trials as packed uint8 codes.

    Settings follow nu jointly with the behavior's outcomes; the stream
    is generated by a Philox counter keyed with key, chunked inverse-CDF
    lookups, and is byte-identical for a given key on any platform.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    probs = cell_probabilities(sigma3, settings_weights(nu)).reshape(32)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=key))
    out = np.empty(count, dtype=np.uint8)
    chunk = 1 << 20
    pos = 0
    while pos < count:
        m = min(chunk, count - pos)
        u = rng.random(m)
        out[pos : pos + m] = np.searchsorted(cdf, u, side="right").astype(np.uint8)
        pos += m
    return out


def stream_key(seed: int, index: int) -> int:
    """Distinct Philox key for stream index under a 64-bit run seed."""
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= index < 1 << 63:
        raise ValueError("stream index out of range")
    return (seed << 64) | index

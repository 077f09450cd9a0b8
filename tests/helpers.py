"""Fixtures and fakes the tests build their inputs from.

Textbook behaviors and polytopes no command needs, the transforms of
three-party behaviors the structural tests apply, marginals of a full
trial behavior, an in-memory trial source, and four library functions no
command runs, kept here as they stood in the package: scoring an instance
from its trial codes, the fixed-entanglement rescaling of a factor, the
source's robustness, and loading a factor from its JSON form.  None of
them is an oracle: the definitions tests trust live in oracles.py.
"""

import json
from itertools import product

import numpy as np

from diqpv.errors import DegenerateDataError, UselessFactorError
from diqpv.polytopes import HPolytope, correlator_rows, quantum_set
from diqpv.protocol import (
    InstanceResult,
    ProtocolParams,
    _instance_length,
    run_instance_from_counts,
)
from diqpv.simulator import HonestProverModel
from diqpv.testfactor import TestFactor, certified_factor, wbar_min
from diqpv.trialdata import CountsTable, _checked_codes, aggregate_counts


# Two-party behaviors, polytopes and objective rows


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


def chsh_row(signs) -> np.ndarray:
    """One signed correlator combination as a length-16 objective row."""
    return np.asarray(signs, dtype=np.float64) @ correlator_rows()


# Three-party behaviors mu[ma, b, bp, oa, za, zb]


def uniform_ns3() -> np.ndarray:
    """The maximally mixed three-party behavior (every cell 1/8)."""
    return np.full((2, 2, 2, 2, 2, 2), 1.0 / 8.0)


def ns3_probe_points() -> np.ndarray:
    """129 points of the three-party no-signaling polytope, shape (129, 64).

    The 64 deterministic strategies (oa = f(ma), za = g(b), zb = h(bp)),
    the uniform point, and 64 PR boxes between the verifier and one
    station (the box variants of pr_box over inputs (ma, that station's
    bit)) with the other station deterministic.  Every entry is 0, 1/8,
    1/2 or 1, so 8 times a point is an exact integer vector.
    """
    funcs = list(product(range(2), repeat=2))  # (f(0), f(1))
    points = []
    for f, g, h in product(funcs, repeat=3):
        mu = np.zeros((2, 2, 2, 2, 2, 2))
        for ma, b, bp in product(range(2), repeat=3):
            mu[ma, b, bp, f[ma], g[b], h[bp]] = 1.0
        points.append(mu)
    points.append(uniform_ns3())
    for station, variant, h in product(range(2), product(range(2), repeat=3), funcs):
        box = pr_box(*variant)
        mu = np.zeros((2, 2, 2, 2, 2, 2))
        for ma, b, bp, oa, z in product(range(2), repeat=5):
            if station == 0:
                mu[ma, b, bp, oa, z, h[bp]] = box[ma, b, oa, z]
            else:
                mu[ma, b, bp, oa, h[b], z] = box[ma, bp, oa, z]
        points.append(mu)
    return np.array(points).reshape(-1, 64)


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


# Marginals of a full trial behavior table t[ma, mp, oa, za, zb]


def mismatch_mass(t) -> np.ndarray:
    """Probability of za != zb per settings pair, shape (2, 2)."""
    return (t[:, :, :, 0, 1] + t[:, :, :, 1, 0]).sum(axis=2)


def matched_conditional(t) -> np.ndarray:
    """Matched-sector behavior renormalized per settings pair."""
    m = np.stack([t[:, :, :, z, z] for z in range(2)], axis=-1)
    tot = m.sum(axis=(2, 3))
    if (tot <= 0).any():
        raise DegenerateDataError("a settings pair has no matched mass")
    return m / tot[:, :, None, None]


# In-memory trial source


class ArrayTrialSource:
    """Trial source over packed uint8 codes, for segmentation tests.

    Counts the codes on construction, which also checks their range.
    """

    def __init__(self, codes, error: bool = False, label: str = ""):
        self._codes = np.asarray(codes)
        self._counts = aggregate_counts(self._codes)
        self.error = bool(error)
        self.label = label or "mem"
        self.trials = int(self._codes.size)

    def counts(self) -> CountsTable:
        return self._counts

    def prefix_counts(self, k: int) -> CountsTable:
        return aggregate_counts(self._codes[:k])


# Library functions no command runs


def run_instance(codes, tf: TestFactor, params: ProtocolParams) -> InstanceResult:
    """Evaluate an instance from its packed trial codes (see pack_records).

    Streams longer than params.n are truncated by discarding trials from
    the end; shorter ones are padded with neutral trials.
    """
    codes = _checked_codes(codes)[: _instance_length(params)]
    return run_instance_from_counts(aggregate_counts(codes), int(codes.size), tf, params)


def scale_for_fixed_entanglement(tf: TestFactor, xi: float) -> TestFactor:
    """Divide the factor by 1 + xi (1 - wbar_min) for source robustness xi."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if xi == 0:
        return tf
    wmin = wbar_min(tf)
    if wmin >= 1.0:
        raise UselessFactorError("factor has settings-averaged minimum >= 1; nothing to scale")
    scale = 1.0 + xi * (1.0 - wmin)
    duals = tf.duals / (tf.scale * scale)
    return certified_factor(tf.matched / scale, tf.mismatch / scale, tf.nu, duals, tf.meta)


def source_robustness(model: HonestProverModel) -> float:
    """Entanglement-rate contribution of the source per trial.

    For a pure pair state the robustness is (sum of Schmidt coefficients)
    squared minus one, weighted by the pair probability.
    """
    return model.p_pair * ((abs(model.amp_a) + abs(model.amp_b)) ** 2 - 1.0)


def testfactor_from_json(text: str) -> TestFactor:
    """Inverse of testfactor_to_json; checks the stored certificate (version 1 has none)."""
    payload = json.loads(text)
    if payload.get("format") != "diqpv-test-factor":
        raise ValueError("not a serialized test factor")
    matched, nu = (np.array(payload[k], dtype=np.float64) for k in ("matched", "nu"))
    mismatch, meta = float(payload["mismatch"]), payload.get("meta") or None
    if "certificate" not in payload:
        return certified_factor(matched, mismatch, nu, meta=meta)
    cert = payload["certificate"]
    return TestFactor(matched, mismatch, nu, cert["duals"], float(cert["scale"]), meta)

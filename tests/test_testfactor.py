import math

import numpy as np
import pytest

from diqpv.errors import CertificationError, UselessFactorError
from diqpv.estimation import ConditionalDistribution2, regularize
from diqpv.polytopes import lr_vertices, ns3_polytope
from diqpv.protocol import calibrate
from diqpv.testfactor import (
    MatchedFactor,
    assemble_robust,
    build_wlr,
    certify,
    entanglement_discounted,
    gain_variance,
    lambda_max,
    lambda_max_table,
    mix_with_unity,
    mixing_cap,
    scale_for_fixed_entanglement,
    wbar_min,
)
from diqpv.testfactor import TestFactor as CertifiedFactor
from diqpv.testfactor import testfactor_from_json as factor_from_json
from diqpv.testfactor import testfactor_to_json as factor_to_json

from golden import (
    REFERENCE_GAIN_BITS,
    REFERENCE_MISMATCH,
    REFERENCE_VARIANCE_BITS,
    REFERENCE_WBAR_MIN,
    factor_array,
)
from oracles import tsirelson_factor_oracle, tsirelson_point


def test_golden_factor_matches_reference(
    golden_counts, golden_sigma3, golden_wlr, golden_lambda, golden_factor, nu_uniform
):
    assert golden_wlr.lr_violating
    assert golden_lambda == pytest.approx(REFERENCE_MISMATCH, abs=1e-4)
    assert np.abs(golden_factor.matched - factor_array()).max() <= 1e-4
    assert golden_factor.mismatch == golden_lambda
    # The pipeline function reproduces the hand-chained fixtures exactly.
    cal = calibrate(golden_counts, nu_uniform, 2e-6)
    assert np.array_equal(cal.factor.matched, golden_factor.matched)
    assert cal.factor.mismatch == golden_factor.mismatch
    assert np.array_equal(cal.sigma3.table, golden_sigma3.table)


def test_golden_factor_certified(golden_factor, nu_uniform):
    assert golden_factor.cert_margin >= -1e-8
    value, mu = certify(golden_factor.matched, golden_factor.mismatch, golden_factor.nu)
    assert value <= 1.0 + 1e-8
    assert ns3_polytope().contains(mu, tol=1e-7)


def test_wbar_min_values(golden_factor):
    assert wbar_min(golden_factor) == pytest.approx(REFERENCE_WBAR_MIN, abs=1e-5)
    point = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert wbar_min(golden_factor, point) == pytest.approx(0.8825655759, abs=1e-4)
    assert golden_factor.global_min() == pytest.approx(0.7390162290, abs=1e-4)


def test_full_table_and_value_agree(golden_factor):
    full = golden_factor.full_table()
    assert full.shape == (2, 2, 2, 2, 2)
    for mqa, oqa, mqp, zqa, zqb in ((1, 1, 1, 1, 1), (2, 1, 2, 2, 2), (1, 2, 2, 1, 2)):
        assert golden_factor.value(mqa, oqa, mqp, zqa, zqb) == full[
            mqa - 1, oqa - 1, mqp - 1, zqa - 1, zqb - 1
        ]
    assert golden_factor.value(1, 1, 1, 1, 2) == golden_factor.mismatch
    assert golden_factor.value(1, 2, 1, 1, 1) == golden_factor.matched[0, 0, 1, 0]


def test_unity_factor_caps_mismatch_at_one(nu_uniform):
    lam = lambda_max_table(np.ones((2, 2, 2, 2)), nu_uniform)
    assert lam == 1.0
    unity = MatchedFactor(np.ones((2, 2, 2, 2)), 0.0, False)
    tf = assemble_robust(unity, lam, nu_uniform)
    assert tf.global_min() == 1.0
    assert wbar_min(tf) == 1.0


def test_lambda_monotone_under_downscaling(golden_wlr, golden_lambda, nu_uniform):
    lam_half = lambda_max_table(0.5 * golden_wlr.table, nu_uniform)
    assert lam_half >= golden_lambda
    lam_tiny = lambda_max_table(1e-3 * golden_wlr.table, nu_uniform)
    assert lam_tiny >= lam_half


def test_uncertifiable_matched_table_rejected(nu_uniform):
    with pytest.raises(CertificationError):
        lambda_max_table(np.full((2, 2, 2, 2), 2.0), nu_uniform)


def test_build_wlr_local_behavior_gives_unity(nu_uniform):
    verts = lr_vertices()
    mix = 0.5 * verts[3] + 0.3 * verts[7] + 0.2 * verts[12]
    wlr = build_wlr(ConditionalDistribution2(mix), nu_uniform)
    assert not wlr.lr_violating
    assert np.all(wlr.table == 1.0)
    assert wlr.gain == 0.0


def test_build_wlr_tsirelson_matches_analytic_optimum(nu_uniform):
    wlr = build_wlr(ConditionalDistribution2(tsirelson_point()), nu_uniform)
    table, gain = tsirelson_factor_oracle()
    assert wlr.lr_violating
    assert np.abs(wlr.table - table).max() <= 1e-6
    assert wlr.gain == pytest.approx(gain, abs=1e-6)


def test_certified_expectation_holds_empirically(golden_factor):
    """Sample a million trials from the worst-case adversary; the factor
    mean must not exceed 1 beyond sampling noise."""
    nu = golden_factor.nu
    _, mu = certify(golden_factor.matched, golden_factor.mismatch, nu)
    probs = np.zeros((2, 2, 2, 2, 2))  # (mqa, oqa, mqp, zqa, zqb)
    for ma in range(2):
        for b in range(2):
            probs[ma, :, b] = nu[ma, b] * mu[ma, b, b]
    flat = np.clip(probs.reshape(32), 0.0, None)
    flat /= flat.sum()
    w = golden_factor.full_table().reshape(32)
    rng = np.random.Generator(np.random.Philox(key=41))
    n = 1_000_000
    counts = rng.multinomial(n, flat)
    mean = float(counts @ w) / n
    second = float(counts @ w**2) / n
    sd = math.sqrt(max(second - mean**2, 0.0) / n)
    assert mean <= 1.0 + 5.0 * sd


def test_mixing_identities(golden_factor):
    wmin = wbar_min(golden_factor)
    for lam in (0.0, 0.3, 1.0):
        mixed = mix_with_unity(golden_factor, lam)
        assert 1.0 - wbar_min(mixed) == pytest.approx(lam * (1.0 - wmin), abs=1e-14)
    assert np.all(mix_with_unity(golden_factor, 0.0).matched == 1.0)
    assert np.abs(
        mix_with_unity(golden_factor, 1.0).matched - golden_factor.matched
    ).max() == 0.0
    cap = mixing_cap(golden_factor)
    assert cap == pytest.approx(1.0 / (1.0 - golden_factor.global_min()), rel=1e-12)
    at_cap = mix_with_unity(golden_factor, cap)
    assert at_cap.global_min() == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mix_with_unity(golden_factor, cap + 1e-6)
    with pytest.raises(ValueError):
        mix_with_unity(golden_factor, -0.1)


def test_scale_for_fixed_entanglement(golden_factor):
    assert scale_for_fixed_entanglement(golden_factor, 0.0) is golden_factor
    xi = 0.002
    scaled = scale_for_fixed_entanglement(golden_factor, xi)
    denom = 1.0 + xi * (1.0 - wbar_min(golden_factor))
    assert np.abs(scaled.matched - golden_factor.matched / denom).max() <= 1e-15
    assert scaled.mismatch == pytest.approx(golden_factor.mismatch / denom, rel=1e-15)
    unity = CertifiedFactor(np.ones((2, 2, 2, 2)), 1.0, golden_factor.nu)
    with pytest.raises(UselessFactorError):
        scale_for_fixed_entanglement(unity, 0.1)


def test_entanglement_discount(golden_factor):
    assert entanglement_discounted(golden_factor, 0.0) is golden_factor
    r_th = 8e-6
    disc = entanglement_discounted(golden_factor, r_th)
    factor = math.exp(-r_th * (1.0 - wbar_min(golden_factor)))
    assert np.abs(disc.matched - factor * golden_factor.matched).max() <= 1e-15
    assert disc.cert_margin >= golden_factor.cert_margin - 1e-12
    unity = CertifiedFactor(np.ones((2, 2, 2, 2)), 1.0, golden_factor.nu)
    assert entanglement_discounted(unity, 5.0) is unity
    with pytest.raises(ValueError):
        entanglement_discounted(golden_factor, -1.0)


def test_gain_variance_golden(golden_factor, golden_sigma3):
    g, v = gain_variance(golden_factor, golden_sigma3)
    assert g == pytest.approx(REFERENCE_GAIN_BITS, rel=1e-3)
    assert v == pytest.approx(REFERENCE_VARIANCE_BITS, rel=1e-3)
    assert g > 0


def test_gain_variance_zero_for_unity(golden_factor, golden_sigma3, nu_uniform):
    unity = CertifiedFactor(np.ones((2, 2, 2, 2)), 1.0, nu_uniform.table)
    g, v = gain_variance(unity, golden_sigma3)
    assert g == 0.0 and v == 0.0


def test_json_round_trip(golden_factor):
    golden = CertifiedFactor(
        golden_factor.matched, golden_factor.mismatch, golden_factor.nu,
        meta={"calibration_trials": 75_080_425},
    )
    text = factor_to_json(golden)
    back = factor_from_json(text)
    assert np.array_equal(back.matched, golden.matched)
    assert back.mismatch == golden.mismatch
    assert np.array_equal(back.nu, golden.nu)
    assert back.meta == {"calibration_trials": 75_080_425}
    assert back.cert_margin == pytest.approx(golden.cert_margin, abs=1e-9)
    with pytest.raises(ValueError):
        factor_from_json('{"format": "something-else"}')


def test_tampered_serialization_fails_certification(golden_factor):
    import json

    payload = json.loads(factor_to_json(golden_factor))
    payload["mismatch"] = 2.0
    with pytest.raises(CertificationError):
        factor_from_json(json.dumps(payload))


def test_factor_validation(golden_factor, nu_uniform):
    with pytest.raises(ValueError):
        CertifiedFactor(-np.ones((2, 2, 2, 2)), 0.5, nu_uniform.table)
    with pytest.raises(ValueError):
        CertifiedFactor(np.ones((2, 2, 2, 2)), -0.5, nu_uniform.table)
    with pytest.raises(CertificationError):
        CertifiedFactor(golden_factor.matched, 2.0, nu_uniform.table)
    with pytest.raises(ValueError):
        assemble_robust(
            MatchedFactor(np.ones((2, 2, 2, 2)), 0.0, False), -0.1, nu_uniform
        )


def test_regularized_fit_survives_certification(golden_fit, nu_uniform):
    """The whole pipeline run at a coarser mismatch parameter stays sound."""
    wlr = build_wlr(golden_fit, nu_uniform)
    lam = lambda_max(wlr, nu_uniform)
    tf = assemble_robust(wlr, lam, nu_uniform)
    sigma3 = regularize(golden_fit, 1e-4)
    g, v = gain_variance(tf, sigma3)
    assert v > 0
    # Heavier mismatch burns more gain than the calibration value.
    g_ref, _ = gain_variance(tf, regularize(golden_fit, 2e-6))
    assert g < g_ref

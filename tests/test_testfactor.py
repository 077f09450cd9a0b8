import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import diqpv.polytopes
from diqpv.errors import CertificationError, UselessFactorError
from diqpv.estimation import ConditionalDistribution2, ml_fit_quantum, regularize
from diqpv.polytopes import _dual_bound, chsh_values, lr_vertices, ns3_polytope, quantum_set
from diqpv.protocol import calibrate, plan_entanglement
from diqpv.testfactor import (
    LOCAL_CHSH_TOL,
    MatchedFactor,
    _expected_factor_objective,
    _float_objective,
    _pin_free_cells,
    _vertex_constraint_rows,
    build_wlr,
    certified_factor,
    certify,
    gain_variance,
    lambda_max,
    mix_with_unity,
    mixing_cap,
    wbar_min,
)
from diqpv.testfactor import TestFactor as CertifiedFactor
from diqpv.testfactor import testfactor_to_json as factor_to_json
from diqpv.trialdata import CountsTable, settings_weights

from golden import (
    REFERENCE_GAIN_BITS,
    REFERENCE_MISMATCH,
    REFERENCE_VARIANCE_BITS,
    REFERENCE_WBAR_MIN,
    factor_array,
    reference_counts_table,
)
from helpers import ns3_probe_points, pr_box, scale_for_fixed_entanglement
from helpers import testfactor_from_json as factor_from_json
from oracles import (
    dual_bound_fraction,
    factor_value,
    lambda_max_bisection,
    lr_distance,
    max_linear_highs,
    max_shift_within_highs,
    tsirelson_factor_oracle,
    tsirelson_point,
)


def test_golden_factor_matches_reference(
    golden_counts, golden_sigma3, golden_wlr, golden_lambda, golden_factor, nu_uniform
):
    assert golden_wlr.lr_violating
    assert golden_lambda == pytest.approx(REFERENCE_MISMATCH, abs=1e-4)
    assert np.abs(golden_factor.matched - factor_array()).max() <= 1e-4
    # The lambda LP's duals bound the assembled factor by 1 + 3.9e-16
    # exactly; dividing that out lowers the constant by 5 ulp (5.6e-16).
    assert golden_lambda - 8 * math.ulp(golden_lambda) <= golden_factor.mismatch < golden_lambda
    # The pipeline function reproduces the hand-chained fixtures exactly.
    cal = calibrate(golden_counts, nu_uniform, 2e-6)
    assert np.array_equal(cal.factor.matched, golden_factor.matched)
    assert cal.factor.mismatch == golden_factor.mismatch
    assert np.array_equal(cal.sigma3.table, golden_sigma3.table)


def test_golden_factor_certified(golden_factor, nu_uniform):
    assert golden_factor.cert_margin >= 0.0
    value, mu, _ = certify(golden_factor.matched, golden_factor.mismatch, golden_factor.nu)
    assert value <= 1.0 + 1e-8
    assert ns3_polytope().contains(mu, tol=1e-7)


def test_wbar_min_values(golden_factor):
    assert wbar_min(golden_factor) == pytest.approx(REFERENCE_WBAR_MIN, abs=1e-5)
    # The minimum at settings (0, 0), which a point mass there would average to.
    assert min(golden_factor.matched[0, 0].min(), golden_factor.mismatch) == pytest.approx(
        0.8825655759, abs=1e-4
    )
    assert golden_factor.global_min() == pytest.approx(0.7390162290, abs=1e-4)


def test_full_table_and_value_agree(golden_factor):
    full = golden_factor.full_table()
    assert full.shape == (2, 2, 2, 2, 2)
    for mqa, oqa, mqp, zqa, zqb in ((1, 1, 1, 1, 1), (2, 1, 2, 2, 2), (1, 2, 2, 1, 2)):
        assert factor_value(golden_factor, mqa, oqa, mqp, zqa, zqb) == full[
            mqa - 1, oqa - 1, mqp - 1, zqa - 1, zqb - 1
        ]
    assert factor_value(golden_factor, 1, 1, 1, 1, 2) == golden_factor.mismatch
    assert factor_value(golden_factor, 1, 2, 1, 1, 1) == golden_factor.matched[0, 0, 1, 0]


def test_unity_factor_caps_mismatch_at_one(nu_uniform):
    lam, duals = lambda_max(np.ones((2, 2, 2, 2)), nu_uniform)
    assert lam == 1.0
    unity = MatchedFactor(np.ones((2, 2, 2, 2)), 0.0, False)
    tf = certified_factor(unity.table, lam, nu_uniform, duals)
    assert tf.global_min() == 1.0
    assert wbar_min(tf) == 1.0


def test_lambda_monotone_under_downscaling(golden_wlr, golden_lambda, nu_uniform):
    lam_half, _ = lambda_max(0.5 * golden_wlr.table, nu_uniform)
    assert lam_half >= golden_lambda
    lam_tiny, _ = lambda_max(1e-3 * golden_wlr.table, nu_uniform)
    assert lam_tiny >= lam_half


def test_uncertifiable_matched_table_rejected(nu_uniform):
    with pytest.raises(CertificationError):
        lambda_max(np.full((2, 2, 2, 2), 2.0), nu_uniform)


def test_lambda_max_matches_bisection_oracle(golden_counts, golden_wlr, nu_uniform):
    rng = np.random.Generator(np.random.Philox(key=606))
    tables = [golden_wlr.table]
    for _ in range(10):
        jitter = np.exp(rng.normal(0.0, 0.05, size=golden_counts.table.shape))
        pert = CountsTable(rng.poisson(golden_counts.table * jitter).astype(np.float64))
        tables.append(build_wlr(ml_fit_quantum(pert), nu_uniform).table)
    for table in tables:
        lam, _ = lambda_max(table, nu_uniform)
        assert lam == pytest.approx(lambda_max_bisection(table, nu_uniform), abs=1e-8)
        # Not above the facet, and maximal unless capped.
        assert certify(table, lam, nu_uniform)[0] <= 1.0 + 1e-12
        if lam < 1.0:
            assert certify(table, lam + 1e-7, nu_uniform)[0] > 1.0


def _count_linprog(monkeypatch):
    calls = []
    original = diqpv.polytopes.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(diqpv.polytopes, "linprog", counted)
    return calls


def test_lambda_max_is_one_lp(golden_wlr, nu_uniform, monkeypatch):
    calls = _count_linprog(monkeypatch)
    lambda_max(golden_wlr.table, nu_uniform)
    assert len(calls) == 1


def test_certify_is_one_lp(golden_wlr, golden_lambda_duals, golden_factor, nu_uniform, monkeypatch):
    calls = _count_linprog(monkeypatch)
    certify(golden_factor.matched, golden_factor.mismatch, nu_uniform)
    assert len(calls) == 1
    # lambda_max's duals are the certificate: assembling checks, not solves.
    lam, duals = golden_lambda_duals
    certified_factor(golden_wlr.table, lam, nu_uniform, duals)
    assert len(calls) == 1


def test_build_wlr_pins_zero_weight_cells(nu_uniform):
    # Nonlocal, inside the quantum set, and six cells carry no weight.
    verts = lr_vertices()
    sigma = 0.3 * pr_box() + 0.35 * verts[0] + 0.35 * verts[1]
    assert quantum_set().contains(sigma)
    free = sigma == 0
    assert int(free.sum()) == 6
    wlr = build_wlr(ConditionalDistribution2(sigma), nu_uniform)
    assert wlr.lr_violating
    assert np.all(wlr.table[free] == 0.0)
    assert np.all(wlr.table[~free] > 0.0)
    assert wlr.gain == pytest.approx(0.0571479699328497, abs=1e-12)
    assert lambda_max(wlr.table, nu_uniform)[0] == pytest.approx(
        lambda_max_bisection(wlr.table, nu_uniform), abs=1e-8
    )


def test_pin_free_cells_raises_them_when_the_constant_holds(nu_uniform, monkeypatch):
    # The unity table with cell 5 unsupported: raising the cell back to 1
    # breaks no strategy row and keeps lambda at 1, so the raised table wins.
    nu = settings_weights(nu_uniform)
    table = np.ones(16)
    table[5] = 0.0
    calls = _count_linprog(monkeypatch)
    out = _pin_free_cells(table, table > 0, _vertex_constraint_rows(nu), nu)
    assert np.array_equal(out, np.ones(16))
    assert len(calls) == 2


def test_local_test_matches_lr_distance_oracle(nu_uniform):
    """Fine's criterion against the hull-distance LP near the boundary.

    Along (1 - t) L + t PR, with L the constant-1 vertex on the PR box's
    CHSH facet, the CHSH excess over 2 is e = 2t.  For a no-signaling
    behavior the sup-norm distance d to the local hull obeys
    e/16 <= d <= e/2: a CHSH row is 16 entries of +-1, and a PR-box weight
    of e/2 over a local remainder reaches the hull.  So the tolerance
    LOCAL_CHSH_TOL = 2e-9 on e classes local only behaviors with
    d <= 1e-9, the tolerance the hull LP was read at; here d = e/16.
    """
    assert LOCAL_CHSH_TOL == 2e-9
    v0 = lr_vertices()[0]
    for excess, local in ((0.0, True), (1e-12, True), (1e-9, True), (1e-6, False)):
        sigma = (1.0 - excess / 2) * v0 + excess / 2 * pr_box()
        assert chsh_values(sigma).max() - 2.0 == pytest.approx(excess, abs=1e-15)
        d = lr_distance(sigma)
        assert excess / 16 - 1e-12 <= d <= excess / 2 + 1e-12
        assert (d <= 1e-9) == local
        wlr = build_wlr(ConditionalDistribution2(sigma), nu_uniform)
        assert wlr.lr_violating is not local
        if local:
            assert np.all(wlr.table == 1.0) and wlr.gain == 0.0


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
    _, mu, _ = certify(golden_factor.matched, golden_factor.mismatch, nu)
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
    unity = certified_factor(np.ones((2, 2, 2, 2)), 1.0, golden_factor.nu)
    with pytest.raises(UselessFactorError):
        scale_for_fixed_entanglement(unity, 0.1)


def test_gain_variance_golden(golden_factor, golden_sigma3):
    g, v = gain_variance(golden_factor, golden_sigma3)
    assert g == pytest.approx(REFERENCE_GAIN_BITS, rel=1e-3)
    assert v == pytest.approx(REFERENCE_VARIANCE_BITS, rel=1e-3)
    assert g > 0


def test_gain_variance_zero_for_unity(golden_factor, golden_sigma3, nu_uniform):
    unity = certified_factor(np.ones((2, 2, 2, 2)), 1.0, nu_uniform.table)
    g, v = gain_variance(unity, golden_sigma3)
    assert g == 0.0 and v == 0.0


def test_json_round_trip(golden_factor):
    golden = certified_factor(
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


def test_tampered_certificate_fails_without_a_solve(golden_factor, monkeypatch):
    calls = _count_linprog(monkeypatch)
    good = json.loads(factor_to_json(golden_factor))
    assert good["version"] == 2 and len(good["certificate"]["duals"]) == 56
    assert factor_from_json(json.dumps(good)).cert_margin == golden_factor.cert_margin
    tampered = []
    for edit in (
        lambda p: p.update(mismatch=2.0),
        lambda p: p["certificate"].update(duals=[0.0] * 56),
        lambda p: p["certificate"].update(scale=1.0),
        lambda p: p["matched"][0][0][0].__setitem__(0, p["matched"][0][0][0][0] * (1 + 1e-9)),
    ):
        payload = json.loads(factor_to_json(golden_factor))
        edit(payload)
        tampered.append(json.dumps(payload))
    for text in tampered:
        with pytest.raises(CertificationError):
            factor_from_json(text)
    assert len(calls) == 0


def test_version_1_json_is_certified_by_one_lp(golden_wlr, golden_lambda, monkeypatch):
    # A version-1 file has no certificate, and a factor written before the
    # excess was divided out sits just above the facet: matched at the
    # lambda LP's own constant.  One certify LP proves it after division.
    matched = np.stack([golden_wlr.table[:, :, :, z] for z in range(2)], axis=-1)
    payload = {
        "format": "diqpv-test-factor", "version": 1, "matched": matched.tolist(),
        "mismatch": golden_lambda, "nu": np.full((2, 2), 0.25).tolist(),
        "cert_margin": -8.9e-16, "meta": {},
    }
    calls = _count_linprog(monkeypatch)
    back = factor_from_json(json.dumps(payload))
    assert len(calls) == 1
    assert back.cert_margin >= 0.0 and back.scale > 1.0
    assert back.mismatch < golden_lambda and np.all(back.matched <= matched)
    assert back.mismatch >= golden_lambda - 1e-14


def test_no_slack_and_excess_is_divided_out(golden_wlr, golden_lambda_duals, nu_uniform):
    lam, duals = golden_lambda_duals
    matched = np.stack([golden_wlr.table[:, :, :, z] for z in range(2)], axis=-1)
    # At the lambda LP's own duals the exact bound is 1 + 3.9e-16: rejected.
    with pytest.raises(CertificationError):
        CertifiedFactor(matched, lam, nu_uniform, duals=duals)
    for shift in (0.0, 1e-12):
        tf = certified_factor(golden_wlr.table, lam + shift, nu_uniform, duals)
        assert tf.scale > 1.0 and tf.cert_margin >= 0.0
        assert tf.mismatch * tf.scale <= lam + shift
        assert np.all(tf.matched * tf.scale <= matched)
    # An excess beyond float error in the duals is a caller's error.
    with pytest.raises(CertificationError):
        certified_factor(golden_wlr.table, lam + 1e-3, nu_uniform, duals)
    with pytest.raises(CertificationError):
        certified_factor(golden_wlr.table, lam, nu_uniform, np.zeros(56))


def test_non_dyadic_nu_is_certified_exactly(golden_fit, monkeypatch):
    nu = np.array([[0.3, 0.2], [0.1, 0.4]])
    wlr = build_wlr(golden_fit, nu)
    lam, duals = lambda_max(wlr.table, nu)
    tf = certified_factor(wlr.table, lam, nu, duals)
    assert tf.cert_margin >= 0.0
    # The objective holds the exact products nu * w / sum(nu), not their rounding.
    num, den = _expected_factor_objective(tf.matched, tf.mismatch, tf.nu)
    c = [Fraction(v, den) for v in num]
    assert c[3] == Fraction(0.3) * Fraction(tf.matched[0, 0, 0, 1]) / sum(map(Fraction, nu.flat))
    assert any(Fraction(float(x)) != x for x in c)
    text = factor_to_json(tf)
    calls = _count_linprog(monkeypatch)
    back = factor_from_json(text)
    assert len(calls) == 0
    assert np.array_equal(back.matched, tf.matched) and back.mismatch == tf.mismatch
    assert back.cert_margin == tf.cert_margin


def test_certificates_flow_through_calibration_and_transforms(
    golden_counts, golden_sigma3, nu_uniform, monkeypatch
):
    calls = _count_linprog(monkeypatch)
    tf = calibrate(golden_counts, nu_uniform, 2e-6).factor
    assert len(calls) == 1
    plan = plan_entanglement(tf, golden_sigma3, 8e-6, 2.0**-64, 0.97725)
    derived = [
        plan.factor,
        mix_with_unity(tf, 0.0),
        mix_with_unity(tf, mixing_cap(tf)),
        scale_for_fixed_entanglement(tf, 0.002),
    ]
    derived += [factor_from_json(factor_to_json(f)) for f in derived]
    assert len(calls) == 1
    assert tf.cert_margin >= 0.0
    assert all(f.cert_margin >= 0.0 for f in derived)


def test_factor_validation(golden_factor, nu_uniform):
    with pytest.raises(ValueError):
        certified_factor(-np.ones((2, 2, 2, 2)), 0.5, nu_uniform.table)
    with pytest.raises(ValueError):
        certified_factor(np.ones((2, 2, 2, 2)), -0.5, nu_uniform.table)
    with pytest.raises(CertificationError):
        certified_factor(golden_factor.matched, 2.0, nu_uniform.table)
    with pytest.raises(ValueError):
        certified_factor(
            MatchedFactor(np.ones((2, 2, 2, 2)), 0.0, False).table, -0.1, nu_uniform, np.zeros(56)
        )


def test_regularized_fit_survives_certification(golden_fit, nu_uniform):
    """The whole pipeline run at a coarser mismatch parameter stays sound."""
    wlr = build_wlr(golden_fit, nu_uniform)
    lam, duals = lambda_max(wlr.table, nu_uniform)
    tf = certified_factor(wlr.table, lam, nu_uniform, duals)
    sigma3 = regularize(golden_fit, 1e-4)
    g, v = gain_variance(tf, sigma3)
    assert v > 0
    # Heavier mismatch burns more gain than the calibration value.
    g_ref, _ = gain_variance(tf, regularize(golden_fit, 2e-6))
    assert g < g_ref


_NS3 = ns3_polytope()
# 8 mu as exact integers for the deterministic, uniform and PR-box points.
_PROBES8 = (ns3_probe_points() * 8).astype(np.int64).tolist()
# Sums to 1 + 2^-55 exactly.
_NU_PAST_ONE = np.array([[0.3, 0.2], [0.1, 0.4]])


def _fraction_objective(matched, mismatch, nu):
    """The exact objective nu * w / sum(nu), written out in Fractions."""
    total = sum(map(Fraction, np.asarray(nu).flat))
    c = np.full((2, 2, 2, 2, 2, 2), Fraction(0), dtype=object)
    for ma, b, oa, za, zb in product(range(2), repeat=5):
        w = matched[ma, b, oa, za] if za == zb else mismatch
        c[ma, b, b, oa, za, zb] = Fraction(nu[ma, b]) * Fraction(w) / total
    return c.reshape(64)


_FACTOR_VALUES = st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 5e-324, 1e-300]))
_DUALS = st.one_of(st.just(0.0), st.floats(-4.0, 4.0), st.sampled_from([-1e300, 5e-324, 1e300]))


@given(
    matched=st.lists(_FACTOR_VALUES, min_size=16, max_size=16),
    mismatch=_FACTOR_VALUES,
    nu_ints=st.lists(st.integers(1, 9), min_size=4, max_size=4),
    scale=st.floats(0.5, 2.0),
    duals=st.lists(_DUALS, min_size=56, max_size=56),
)
# Numerators between 2^63 and 2^64, where numpy would read them as floats.
@example(
    matched=[0.0021] + [1.9] * 15, mismatch=1.9, nu_ints=[3, 1, 2, 2], scale=1.0, duals=[0.0] * 56
)
@example(matched=[0.0007] + [1.5] * 15, mismatch=1.5, nu_ints=[1] * 4, scale=1.0, duals=[0.0] * 56)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_exact_objective_and_bound_match_fraction_oracle(matched, mismatch, nu_ints, scale, duals):
    matched = np.reshape(matched, (2, 2, 2, 2))
    nu = np.reshape(nu_ints, (2, 2)) / sum(nu_ints)
    c = _fraction_objective(matched, mismatch, nu)
    num, den = _expected_factor_objective(matched, mismatch, nu)
    assert [Fraction(v, den) for v in num] == c.tolist()
    # TestFactor's check: the scaled objective's bound, bit for bit.
    p, q = scale.as_integer_ratio()
    bound = _dual_bound([p * v for v in num], _NS3, duals, den * q)
    assert bound.hex() == dual_bound_fraction(Fraction(scale) * c, _NS3, duals).hex()


def _check_certificate(tf):
    """The factor's own check against the oracle, weak duality at every
    probe point with no LP, and a bit-identical JSON round trip."""
    num, den = _expected_factor_objective(tf.matched, tf.mismatch, tf.nu)
    p, q = float(tf.scale).as_integer_ratio()
    bound = _dual_bound([p * v for v in num], _NS3, tf.duals, den * q)
    scaled = np.array([Fraction(p * v, den * q) for v in num], dtype=object)
    assert bound.hex() == dual_bound_fraction(scaled, _NS3, tf.duals).hex()
    assert bound <= tf.scale and tf.cert_margin == 1.0 - bound / tf.scale
    for point in _PROBES8:
        value = sum(v * m for v, m in zip(num, point) if m)  # 8 den (c . mu)
        assert Fraction(p * value, 8 * den * q) <= Fraction(bound)
        assert value <= 8 * den  # E[W] <= 1
    back = factor_from_json(factor_to_json(tf))
    assert np.array_equal(back.matched, tf.matched) and back.mismatch == tf.mismatch
    assert np.array_equal(back.duals, tf.duals) and back.scale == tf.scale
    assert back.cert_margin == tf.cert_margin


@given(
    seed=st.none() | st.integers(0, 2**32 - 1),
    nu=st.sampled_from(["uniform", "dyadic", "past-one"]),
    transform=st.sampled_from(["none", "mix", "scale", "plan"]),
    t=st.floats(0.0, 1.0),
)
@settings(derandomize=True, max_examples=30, deadline=None)
def test_certified_factors_bound_every_probe_point(seed, nu, transform, t):
    nu = {
        "uniform": np.full((2, 2), 0.25),
        "dyadic": np.array([[0.5, 0.125], [0.125, 0.25]]),
        "past-one": _NU_PAST_ONE,
    }[nu]
    counts = reference_counts_table()
    if seed is not None:  # c05's perturbation
        rng = np.random.Generator(np.random.Philox(key=seed))
        jitter = np.exp(rng.normal(0.0, 0.05, size=counts.table.shape))
        counts = CountsTable(rng.poisson(counts.table * jitter))
    cal = calibrate(counts, nu, 2e-6)
    tf = cal.factor
    useful = wbar_min(tf) < 1.0
    if transform == "mix":
        tf = mix_with_unity(tf, t * min(mixing_cap(tf), 10.0))
    elif transform == "scale" and useful:
        tf = scale_for_fixed_entanglement(tf, 0.01 * t)
    elif transform == "plan" and useful:
        tf = plan_entanglement(tf, cal.sigma3, 8e-6, 2.0**-64, 0.97725).factor
    _check_certificate(tf)


def test_golden_certificates_match_fraction_oracle(golden_factor):
    for tf in (golden_factor, mix_with_unity(golden_factor, 0.7)):
        _check_certificate(tf)


def test_nu_past_one_is_normalized_exactly(golden_fit):
    assert sum(map(Fraction, _NU_PAST_ONE.flat)) == 1 + Fraction(1, 2**55)
    num, den = _expected_factor_objective(np.ones((2, 2, 2, 2)), 1.0, _NU_PAST_ONE)
    # The unity factor's expectation is exactly 1 at every probe point
    # (it was 1 + 2^-55 with the weights left unnormalized).
    assert all(sum(v * m for v, m in zip(num, point)) == 8 * den for point in _PROBES8)
    # Float duals cannot meet the entries n / (2^55 + 1) exactly, so the
    # unity certificate bounds the unity factor one rounding above 1, and
    # that rounding is divided out of the factor.
    unity = mix_with_unity(calibrate(reference_counts_table(), _NU_PAST_ONE, 2e-6).factor, 0.0)
    assert unity.scale == math.nextafter(1.0, 2.0)
    assert np.all(unity.matched == unity.mismatch)
    assert unity.mismatch == math.nextafter(1.0 / unity.scale, 0.0)
    _check_certificate(unity)
    # Uniform and other exactly summing weights keep their objective.
    for nu in (np.full((2, 2), 0.25), np.array([[0.5, 0.125], [0.125, 0.25]])):
        num, den = _expected_factor_objective(golden_fit.table, 0.9, nu)
        c = [Fraction(v, den) for v in num]
        assert c[3] == Fraction(nu[0, 0]) * Fraction(golden_fit.table[0, 0, 0, 1])


def test_factor_json_with_huge_duals_fails_certification(golden_factor, monkeypatch):
    # Finite duals whose exact bound lies past the float range bound
    # nothing below infinity.
    payload = json.loads(factor_to_json(golden_factor))
    payload["certificate"]["duals"] = np.where(_NS3.b_eq == 1.0, 1e308, 0.0).tolist()
    calls = _count_linprog(monkeypatch)
    with pytest.raises(CertificationError):
        factor_from_json(json.dumps(payload))
    assert len(calls) == 0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", ["dual", "matched", "mismatch", "scale", "uncertified"])
def test_non_finite_factor_json_fails_certification(golden_factor, field, value, monkeypatch):
    payload = json.loads(factor_to_json(golden_factor))
    if field == "dual":
        payload["certificate"]["duals"][5] = value
    elif field == "matched":
        payload["matched"][1][0][1][0] = value
    elif field == "mismatch":
        payload["mismatch"] = value
    elif field == "scale":
        payload["certificate"]["scale"] = value
    else:  # version 1: no certificate, one certify LP
        del payload["certificate"]
        payload["version"], payload["mismatch"] = 1, value
    calls = _count_linprog(monkeypatch)
    with pytest.raises(CertificationError):
        factor_from_json(json.dumps(payload))
    assert len(calls) == 0


def test_simplex_matches_highs_on_perturbed_fits(golden_counts, nu_uniform):
    """On c05's 50 perturbed fits the mismatch constant agrees with HiGHS's
    to 1e-15, its duals bound the assembled objective no looser than
    HiGHS's do, and the certify bound sits on HiGHS's maximum."""
    nu = settings_weights(nu_uniform)
    c1 = _float_objective(np.zeros((2, 2, 2, 2)), 1.0, nu)
    rng = np.random.Generator(np.random.Philox(key=1105))
    for k in range(50):
        jitter = np.exp(rng.normal(0.0, 0.05, size=golden_counts.table.shape))
        pert = CountsTable(rng.poisson(golden_counts.table * jitter).astype(np.float64))
        table = build_wlr(ml_fit_quantum(pert), nu).table
        lam, duals = lambda_max(table, nu)
        c0 = _float_objective(table, 0.0, nu)
        lam_h, duals_h = max_shift_within_highs(c0, c1, _NS3, 1.0, 10.0)
        lam_h = min(lam_h, 1.0)  # no constant above 1 is certifiable
        assert abs(lam - lam_h) <= 1e-15
        bounds = []
        for t, d in ((lam, duals), (lam_h, duals_h)):
            num, den = _expected_factor_objective(table, t, nu)
            bounds.append(_dual_bound(num, _NS3, d, den))
        assert bounds[0] <= bounds[1], f"fit {k}"
        bound, _, _ = certify(table, lam, nu)
        x_h, _ = max_linear_highs(_float_objective(table, lam, nu), _NS3)
        assert abs(bound - _float_objective(table, lam, nu) @ x_h) <= 1e-12


def test_unity_factor_scale_at_skewed_weights():
    # HiGHS's signaling-row duals give 1.000000000000003 (13 ulp) here.
    tf = certified_factor(np.ones((2, 2, 2, 2)), 1.0, _NU_PAST_ONE)
    assert tf.scale <= 1.0000000000000007  # 1 + 3 ulp


@given(
    xi=st.sampled_from([0.0, 0.002, 0.05]),
    cells=st.lists(st.integers(0, 16), min_size=1, max_size=4, unique=True),
    excess=st.floats(1e-9, 0.5),
)
@settings(derandomize=True, max_examples=40, deadline=None)
def test_factors_raised_past_their_margin_are_rejected(golden_factor, xi, cells, excess):
    """Raise the values that the certify LP's maximizing behavior weights
    (matched cells 0-15, or 16 for the mismatch constant) so that its
    expectation grows by cert_margin + excess: the true maximum then
    exceeds 1, and loading the factor with its stored certificate fails."""
    tf = scale_for_fixed_entanglement(golden_factor, xi)
    _, mu, _ = certify(tf.matched, tf.mismatch, tf.nu)
    weight = np.zeros(17)
    for ma, b, oa, za, zb in product(range(2), repeat=5):
        cell = 8 * ma + 4 * b + 2 * oa + za if za == zb else 16
        weight[cell] += tf.nu[ma, b] * mu[ma, b, b, oa, za, zb]
    cells = [k for k in cells if weight[k] > 1e-6]
    assume(cells)
    step = (tf.cert_margin + excess) / weight[cells].sum()
    payload = json.loads(factor_to_json(tf))
    matched = np.reshape(payload["matched"], 16)
    matched[[k for k in cells if k < 16]] += step
    payload["matched"] = matched.reshape(2, 2, 2, 2).tolist()
    payload["mismatch"] += step * (16 in cells)
    with pytest.raises(CertificationError):
        factor_from_json(json.dumps(payload))

import math

import numpy as np
import pytest
from scipy.stats import chi2

from diqpv.estimation import cell_probabilities
from diqpv.polytopes import lr_distance, lr_vertices, pr_box, uniform_ns3
from diqpv.simulator import (
    DEFAULT_AMP_A,
    DEFAULT_AMP_B,
    AdversaryModel,
    HonestProverModel,
    challenge_to_setting,
    honest_distribution,
    honest_matched,
    sample_trials,
    source_robustness,
    stream_key,
)
from diqpv.testfactor import certify
from diqpv.trialdata import aggregate_counts

from oracles import born_matched_oracle


def test_challenge_to_setting_parity():
    assert [
        challenge_to_setting(1, 1),
        challenge_to_setting(1, 2),
        challenge_to_setting(2, 1),
        challenge_to_setting(2, 2),
    ] == [1, 2, 2, 1]
    with pytest.raises(ValueError):
        challenge_to_setting(0, 1)


def test_default_model_validates():
    model = HonestProverModel()
    assert model.amp_a**2 + model.amp_b**2 == pytest.approx(1.0, abs=1e-15)
    assert model.amp_a == pytest.approx(0.383, abs=2e-4)
    with pytest.raises(ValueError):
        HonestProverModel(amp_a=0.383, amp_b=0.924)  # unnormalized raw pair
    with pytest.raises(ValueError):
        HonestProverModel(eta_a=1.2)
    with pytest.raises(ValueError):
        HonestProverModel(dark_count=1.0)


def test_honest_matched_against_born_oracle():
    configs = [
        HonestProverModel(),
        HonestProverModel(eta_a=1.0, eta_p=1.0, dark_count=0.0, p_pair=1.0),
        HonestProverModel(
            amp_a=1 / math.sqrt(2), amp_b=1 / math.sqrt(2),
            angles_a_deg=(0.0, 45.0), angles_p_deg=(22.5, -22.5),
            eta_a=0.7, eta_p=0.9, dark_count=1e-5, p_pair=0.1,
        ),
    ]
    for model in configs:
        ours = honest_matched(model).table
        oracle = born_matched_oracle(
            model.amp_a, model.amp_b, model.angles_a_deg, model.angles_p_deg,
            model.eta_a, model.eta_p, model.dark_count, model.p_pair,
        )
        assert np.abs(ours - oracle).max() <= 1e-12


def test_ideal_aligned_analyzers_click_together():
    # Perfect devices, product state |HH>, both analyzers transmit H.
    model = HonestProverModel(
        amp_a=1.0, amp_b=0.0, angles_a_deg=(0.0, 0.0), angles_p_deg=(0.0, 0.0),
        eta_a=1.0, eta_p=1.0, dark_count=0.0, p_pair=1.0,
    )
    sigma = honest_matched(model).table
    assert sigma[:, :, 1, 1] == pytest.approx(1.0, abs=1e-15)
    # Crossed analyzers block the prover photon entirely.
    crossed = HonestProverModel(
        amp_a=1.0, amp_b=0.0, angles_a_deg=(0.0, 0.0), angles_p_deg=(90.0, 90.0),
        eta_a=1.0, eta_p=1.0, dark_count=0.0, p_pair=1.0,
    )
    sigma = honest_matched(crossed).table
    assert sigma[:, :, 1, 0] == pytest.approx(1.0, abs=1e-15)


def test_no_pair_channel_dominates():
    sigma = honest_matched(HonestProverModel()).table
    assert sigma[:, :, 0, 0].min() > 0.998
    full = honest_distribution(HonestProverModel())
    assert full.get(1, 1, 1, 1, 1) > 0.998
    assert full.mismatch_mass() == pytest.approx(2e-6, abs=1e-18)


def test_source_robustness_value():
    xi = source_robustness(HonestProverModel())
    assert xi == pytest.approx(0.0020213, abs=1e-6)
    assert abs(xi - 2e-3) / 2e-3 < 0.05
    separable = HonestProverModel(amp_a=1.0, amp_b=0.0)
    assert source_robustness(separable) == pytest.approx(0.0, abs=1e-15)


def test_honest_behavior_is_nonlocal():
    sigma = honest_matched(HonestProverModel())
    assert lr_distance(sigma.table) > 1e-6


def test_adversary_constructors():
    vtx = AdversaryModel.lr_vertex(5)
    assert vtx.kind == "lr-vertex-5"
    table = vtx.behavior.table
    # Both stations echo the deterministic prover outcome.
    assert (table[:, :, :, 0, 1] == 0).all() and (table[:, :, :, 1, 0] == 0).all()
    matched = np.stack([table[:, :, :, z, z] for z in range(2)], axis=-1)
    assert np.array_equal(matched, lr_vertices()[5])
    with pytest.raises(ValueError):
        AdversaryModel.lr_vertex(16)

    w = np.zeros(16)
    w[3] = 0.25
    w[8] = 0.75
    mix = AdversaryModel.lr_mixture(w)
    expect = 0.25 * lr_vertices()[3] + 0.75 * lr_vertices()[8]
    table = mix.behavior.table
    matched = np.stack([table[:, :, :, z, z] for z in range(2)], axis=-1)
    assert np.abs(matched - expect).max() <= 1e-15
    with pytest.raises(ValueError):
        AdversaryModel.lr_mixture(np.ones(16))


def test_ns3_point_validation():
    assert AdversaryModel.ns3_point(uniform_ns3()).kind == "ns3-point"
    # A PR pair shared with the verifier is no-signaling and accepted.
    mu = np.zeros((2, 2, 2, 2, 2, 2))
    box = pr_box()
    for ma in range(2):
        for b in range(2):
            for bp in range(2):
                for oa in range(2):
                    for za in range(2):
                        mu[ma, b, bp, oa, za, :] = box[ma, b, oa, za] * 0.5
    AdversaryModel.ns3_point(mu)
    # Station output tracking the hidden verifier setting is signaling.
    bad = np.zeros((2, 2, 2, 2, 2, 2))
    bad[0, :, :, 0, 0, 0] = 1.0
    bad[1, :, :, 0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        AdversaryModel.ns3_point(bad)


def test_sampler_chi_square(nu_uniform):
    sigma3 = honest_distribution(HonestProverModel(p_pair=0.5, d_sim=0.0))
    probs = cell_probabilities(sigma3, nu_uniform).reshape(32)
    n = 1_000_000
    codes = sample_trials(sigma3, nu_uniform, n, key=stream_key(77, 0))
    counts = aggregate_counts(codes).table.reshape(32)
    mask = probs * n >= 10
    stat = float(((counts[mask] - n * probs[mask]) ** 2 / (n * probs[mask])).sum())
    dof = int(mask.sum()) - 1
    assert stat < chi2.ppf(1 - 1e-6, dof)
    assert counts[~mask].sum() <= 50


def test_sampler_point_mass_and_empty(nu_uniform):
    sigma3 = AdversaryModel.lr_vertex(0).behavior
    point = np.array([[1.0, 0.0], [0.0, 0.0]])
    codes = sample_trials(sigma3, point, 100, key=1)
    assert codes.shape == (100,)
    assert (codes == codes[0]).all()
    assert sample_trials(sigma3, nu_uniform, 0, key=1).shape == (0,)
    with pytest.raises(ValueError):
        sample_trials(sigma3, nu_uniform, -1, key=1)


def test_sampler_reproducible(nu_uniform):
    sigma3 = honest_distribution(HonestProverModel())
    a = sample_trials(sigma3, nu_uniform, 200_000, key=stream_key(9, 4))
    b = sample_trials(sigma3, nu_uniform, 200_000, key=stream_key(9, 4))
    assert np.array_equal(a, b)
    c = sample_trials(sigma3, nu_uniform, 200_000, key=stream_key(9, 5))
    assert not np.array_equal(a, c)


def test_stream_key_layout():
    assert stream_key(0, 0) == 0
    assert stream_key(1, 0) == 1 << 64
    assert stream_key(0, 7) == 7
    assert stream_key(3, 5) == (3 << 64) | 5
    with pytest.raises(ValueError):
        stream_key(1 << 64, 0)
    with pytest.raises(ValueError):
        stream_key(0, -1)


def test_certified_factor_bounds_sampled_adversary(golden_factor, nu_uniform):
    """A certified factor stays fair on trials sampled from any allowed
    strategy, here the worst-case one."""
    _, mu = certify(golden_factor.matched, golden_factor.mismatch, golden_factor.nu)
    adv = AdversaryModel.ns3_point(np.clip(mu, 0.0, None))
    sigma3 = adv.behavior
    n = 1_000_000
    codes = sample_trials(sigma3, nu_uniform, n, key=stream_key(13, 0))
    counts = aggregate_counts(codes).table.reshape(32)
    w = golden_factor.full_table().reshape(32)
    mean = float(counts @ w) / n
    second = float(counts @ w**2) / n
    sd = math.sqrt(max(second - mean**2, 0.0) / n)
    assert mean <= 1.0 + 5.0 * sd

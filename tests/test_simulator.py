import hashlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from diqpv import simulator
from diqpv.estimation import ConditionalDistribution3, cell_probabilities
from diqpv.polytopes import lr_vertices
from diqpv.simulator import (
    DEFAULT_AMP_A,
    DEFAULT_AMP_B,
    HonestProverModel,
    honest_distribution,
    honest_matched,
    lr_mixture_distribution,
    lr_vertex_distribution,
    ns3_distribution,
    sample_trials,
    stream_key,
)
from diqpv.testfactor import certify
from diqpv.trialdata import JointSettingsDistribution, aggregate_counts

from helpers import mismatch_mass, pr_box, source_robustness, uniform_ns3
from oracles import born_matched_oracle, inverse_cdf_sample, lr_distance


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
    assert full.table[0, 0, 0, 0, 0] > 0.998
    assert mismatch_mass(full.table) == pytest.approx(2e-6, abs=1e-18)


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
    table = lr_vertex_distribution(5).table
    # Both stations echo the deterministic prover outcome.
    assert (table[:, :, :, 0, 1] == 0).all() and (table[:, :, :, 1, 0] == 0).all()
    matched = np.stack([table[:, :, :, z, z] for z in range(2)], axis=-1)
    assert np.array_equal(matched, lr_vertices()[5])
    with pytest.raises(ValueError):
        lr_vertex_distribution(16)

    w = np.zeros(16)
    w[3] = 0.25
    w[8] = 0.75
    expect = 0.25 * lr_vertices()[3] + 0.75 * lr_vertices()[8]
    table = lr_mixture_distribution(w).table
    matched = np.stack([table[:, :, :, z, z] for z in range(2)], axis=-1)
    assert np.abs(matched - expect).max() <= 1e-15
    with pytest.raises(ValueError):
        lr_mixture_distribution(np.ones(16))


def test_ns3_point_validation():
    assert isinstance(ns3_distribution(uniform_ns3()), ConditionalDistribution3)
    # A PR pair shared with the verifier is no-signaling and accepted.
    mu = np.zeros((2, 2, 2, 2, 2, 2))
    box = pr_box()
    for ma in range(2):
        for b in range(2):
            for bp in range(2):
                for oa in range(2):
                    for za in range(2):
                        mu[ma, b, bp, oa, za, :] = box[ma, b, oa, za] * 0.5
    ns3_distribution(mu)
    # Station output tracking the hidden verifier setting is signaling.
    bad = np.zeros((2, 2, 2, 2, 2, 2))
    bad[0, :, :, 0, 0, 0] = 1.0
    bad[1, :, :, 0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        ns3_distribution(bad)


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
    sigma3 = lr_vertex_distribution(0)
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


# Pinned case: (j of its key stream_key(18, j), behavior, nu or None for uniform).
_PINNED_CASES = {
    "honest": (0, "honest", None),
    "lr5": (1, "lr5", None),
    "point-mass": (2, "honest", [[1.0, 0.0], [0.0, 0.0]]),
    "zero-diagonal": (3, "lr5", [[0.0, 0.5], [0.5, 0.0]]),
}

# sha256 of sample_trials(...).tobytes() per (case, count).  Computed with
# the float inverse-CDF sampler (Generator.random draws looked up with
# searchsorted, now oracles.inverse_cdf_sample) before sample_trials moved
# to integer thresholds and a bucket table; they pin the seeded byte
# stream across rewrites of the sampler.
_PINNED_DIGESTS = {
    ("honest", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("honest", 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("honest", 65537): "24ec05825764f209989f32000a9679667ff3b6f1dbebcc22206263db9fd033d0",
    ("honest", 300001): "778eb82a4e61792e1fbf99ea59e8f78ec743a46f9cd407762439b3678f781517",
    ("lr5", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("lr5", 1): "452ba1ddef80246c48be7690193c76c1d61185906be9401014fe14f1be64b74f",
    ("lr5", 65537): "59188aeb62a8f2c8a83846214f6a0e2243201ea40d3085b0d9128fd3fbbd1626",
    ("lr5", 300001): "50641a249f7cc0612679c087172dc63d1a7f6ebba9b408a98e727f85371ce6fc",
    ("point-mass", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("point-mass", 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    ("point-mass", 65537): "a5592df77fd93a2fe0ab4b979467e3d03f1ee5da718686c7afcc717080194a48",
    ("point-mass", 300001): "3d8631f9b2747f4f84b043cf901260e2c47348f5467571c4bef4ffd657868ae8",
    ("zero-diagonal", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("zero-diagonal", 1): "452ba1ddef80246c48be7690193c76c1d61185906be9401014fe14f1be64b74f",
    ("zero-diagonal", 65537): "d5cff518e312a5c852d1f15e50f8779c3965d340d7d4dbbac232239bf581d998",
    ("zero-diagonal", 300001): "4ce01b15eb3c034191438d3f702dbbb9096cd345b5ecd883ec0020804172cdc0",
}


@pytest.mark.parametrize("case, count", sorted(_PINNED_DIGESTS), ids=lambda v: str(v))
def test_sampler_pinned_digests(case, count):
    j, behavior, nu = _PINNED_CASES[case]
    sigma3 = (honest_distribution(HonestProverModel()) if behavior == "honest"
              else lr_vertex_distribution(5))
    if nu is None:
        nu = JointSettingsDistribution.uniform()
    codes = sample_trials(sigma3, nu, count, stream_key(18, j))
    assert codes.shape == (count,)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == _PINNED_DIGESTS[case, count]


_HONEST = honest_distribution(HonestProverModel())
# Settings weights with zero entries (never all four).
_NU_WITH_ZEROS = st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any)
# Counts on both sides of one and two 2^16-draw chunks, and in between.
_COUNTS = st.sampled_from([0, 1, 65535, 65536, 65537, 131073]) | st.integers(0, 200_000)


@given(mixture_seed=st.none() | st.integers(0, 2**32 - 1), nu_ints=_NU_WITH_ZEROS,
       count=_COUNTS, key=st.integers(0, 2**128 - 1), workers=st.integers(1, 4))
# The honest model's 1.25e-7 cells put several CDF thresholds in one bucket.
@example(mixture_seed=None, nu_ints=[1, 1, 1, 1], count=65537, key=stream_key(12345, 0),
         workers=4)
@settings(derandomize=True, max_examples=80, deadline=None)
def test_sampler_matches_float_inverse_cdf_oracle(mixture_seed, nu_ints, count, key, workers):
    if mixture_seed is None:
        sigma3 = _HONEST
    else:
        rng = np.random.default_rng(mixture_seed)
        weights = rng.dirichlet(np.full(16, 0.5))
        weights[rng.random(16) < 0.3] = 0.0  # zero-weight vertices
        if not weights.any():
            weights[0] = 1.0
        sigma3 = lr_mixture_distribution(weights / weights.sum())
    nu = np.asarray(nu_ints, dtype=np.float64).reshape(2, 2) / sum(nu_ints)
    # Up to four threads on any host, so pool threads' chunks meet the
    # oracle too (hypothesis admits no function-scoped fixture here).
    with mock.patch.object(simulator, "_cpus", lambda: 4):
        codes = sample_trials(sigma3, nu, count, key, workers=workers)
    assert np.array_equal(codes, inverse_cdf_sample(sigma3, nu, count, key))


@pytest.mark.parametrize("boundary, counted", [
    ("at-draw", True),
    ("half-above-draw", False),
    ("one-above-draw", False),
    ("bucket-start", True),
    ("bucket-start-plus-one", True),
])
def test_sampler_threshold_on_a_draw(boundary, counted):
    # One CDF step placed on or beside draw j's integer k = w >> 11; a step
    # at c counts for the draw exactly when c <= k 2^-53.
    key, count = stream_key(18, 99), 8
    k = np.random.Philox(key=key).random_raw(count) >> 11
    j = int(np.argmax(k < 2**52))  # (k + 0.5) 2^-53 is exact below 2^52
    kj = int(k[j])
    assert kj < 2**52
    width = 53 - simulator._BUCKET_BITS
    step = {
        "at-draw": kj,
        "half-above-draw": kj + 0.5,
        "one-above-draw": kj + 1,
        "bucket-start": kj >> width << width,
        "bucket-start-plus-one": (kj >> width << width) + 1,
    }[boundary] / 2**53
    table = np.zeros((2, 2, 2, 2, 2))
    table[:, :, 0, 0, 0] = 1.0
    table[0, 0, 0, 0, 0] = step
    table[0, 0, 1, 1, 1] = 1.0 - step
    sigma3 = ConditionalDistribution3(table)
    nu = [[1.0, 0.0], [0.0, 0.0]]
    codes = sample_trials(sigma3, nu, count, key)
    # Cells 1..10 carry no mass, so a counted step puts the draw past them.
    assert codes[j] == (11 if counted else 0)
    assert np.array_equal(codes, inverse_cdf_sample(sigma3, nu, count, key))


def test_sampler_never_draws_a_cell_below_zero(nu_uniform):
    # A cell at -1e-15 (the most ConditionalDistribution3 admits) would make
    # the CDF dip; the sampler keeps it nondecreasing, so the cell is never
    # drawn and each code depends on its own word only.
    table = np.full((2, 2, 2, 2, 2), 1.0 / 8.0)
    table[0, 1, 1, 0, 1] = -1e-15
    table[0, 1, 1, 0, 0] += 1.0 / 8.0 + 1e-15
    sigma3 = ConditionalDistribution3(table)
    probs = cell_probabilities(sigma3, nu_uniform).reshape(32)
    code = int(np.argmin(probs))
    assert probs[code] < 0.0 and np.diff(np.cumsum(probs)).min() < 0.0
    key = stream_key(19, 3)
    long = sample_trials(sigma3, nu_uniform, 300_001, key)
    assert np.array_equal(sample_trials(sigma3, nu_uniform, 65_537, key), long[:65_537])
    assert not (long == code).any()
    assert np.bincount(long, minlength=32).min() == 0


_CHUNK = simulator._DRAWS_PER_CHUNK
# Skewed settings weights for the lr case: the table and split buckets
# differ from the uniform honest case.
_SKEWED_NU = [[0.55, 0.05], [0.3, 0.1]]


@pytest.fixture
def four_cpus(monkeypatch):
    """Run up to four sampling threads on any host."""
    monkeypatch.setattr(simulator, "_cpus", lambda: 4)


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 300_001])
@pytest.mark.parametrize("case", ["honest", "lr-skewed"])
def test_sampler_is_worker_invariant(nu_uniform, four_cpus, case, count):
    # Every worker count cuts [0, count) at different Philox counter steps.
    sigma3, nu = ((_HONEST, nu_uniform) if case == "honest"
                  else (lr_vertex_distribution(6), _SKEWED_NU))
    key = stream_key(23, count)
    serial = sample_trials(sigma3, nu, count, key, workers=1)
    assert serial.shape == (count,)
    for workers in (2, 3, 4, None):
        assert np.array_equal(sample_trials(sigma3, nu, count, key, workers=workers), serial)


def test_sampler_workers_under_fast_thread_switching(nu_uniform, four_cpus):
    # Four threads, switching every microsecond: each thread still fills
    # only the chunks it claims.
    key = stream_key(23, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        codes = sample_trials(_HONEST, nu_uniform, 300_001, key, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(codes, sample_trials(_HONEST, nu_uniform, 300_001, key, workers=1))


def test_sampler_threads_are_bounded(nu_uniform, monkeypatch):
    # A huge worker count starts at most _MAX_THREADS - 1 pool threads
    # beside the calling thread, and never more threads than CPUs.
    jobs = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, *args):
            jobs.append(self._max_workers)
            return super().submit(*args)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", CountingPool)
    key = stream_key(23, 9)
    serial = sample_trials(_HONEST, nu_uniform, 300_001, key, workers=1)
    for cpus, pool_threads in ((10**6, simulator._MAX_THREADS - 1), (3, 2), (1, 0)):
        monkeypatch.setattr(simulator, "_cpus", lambda: cpus)
        jobs.clear()
        codes = sample_trials(_HONEST, nu_uniform, 300_001, key, workers=10**9)
        assert jobs == [pool_threads] * pool_threads, cpus
        assert np.array_equal(codes, serial)


def test_sampler_rejects_workers_below_one(nu_uniform):
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            sample_trials(_HONEST, nu_uniform, 10, key=1, workers=workers)


# Peak traced bytes beside the result of the serial sampler that drew
# 2^16 raw words per chunk, measured under pytest as below from that
# sampler's source (one draw of the same model first, so one-time
# allocations are not counted).
_SERIAL_WORK_BYTES = {300_001: 1_684_263, 3_000_000: 1_684_655}


@pytest.mark.parametrize("count", sorted(_SERIAL_WORK_BYTES))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sampler_work_memory_is_bounded(nu_uniform, four_cpus, workers, count):
    # The work buffers share _DRAWS_PER_CHUNK draws among the workers, so
    # more workers need no more work memory.
    sample_trials(_HONEST, nu_uniform, 1, stream_key(23, 0), workers=workers)
    tracemalloc.start()
    try:
        codes = sample_trials(_HONEST, nu_uniform, count, stream_key(23, 1), workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - codes.nbytes <= _SERIAL_WORK_BYTES[count]


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
    _, mu, _ = certify(golden_factor.matched, golden_factor.mismatch, golden_factor.nu)
    sigma3 = ns3_distribution(np.clip(mu, 0.0, None))
    n = 1_000_000
    codes = sample_trials(sigma3, nu_uniform, n, key=stream_key(13, 0))
    counts = aggregate_counts(codes).table.reshape(32)
    w = golden_factor.full_table().reshape(32)
    mean = float(counts @ w) / n
    second = float(counts @ w**2) / n
    sd = math.sqrt(max(second - mean**2, 0.0) / n)
    assert mean <= 1.0 + 5.0 * sd

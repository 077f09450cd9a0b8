import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqpv import protocol
from diqpv.errors import (
    AnalysisAbort,
    DegenerateDataError,
    InfeasiblePlanError,
    UselessFactorError,
)
from diqpv.protocol import (
    FileTrialSource,
    ProtocolParams,
    achievable_delta_log2,
    achievable_rth,
    calibrate,
    n_margin,
    plan_entanglement,
    r_lower_bound,
    required_trials,
    run_instance,
    run_instance_from_counts,
    segment_and_analyze,
    z_for_epsilon,
)
from diqpv.estimation import cell_probabilities
from diqpv.simulator import HonestProverModel, honest_distribution
from diqpv.testfactor import (
    certified_factor,
    certify,
    gain_variance,
    mix_with_unity,
    mixing_cap,
    wbar_min,
)
from diqpv.trialdata import CountsTable, aggregate_counts, pack_records, write_trials

from helpers import ArrayTrialSource
from oracles import achievable_rth_unblocked, factor_value, kahan_sum, p_succ


def _honest_codes(golden_sigma3, nu_uniform, count, key):
    probs = cell_probabilities(golden_sigma3, nu_uniform).reshape(32)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.choice(32, size=count, p=probs / probs.sum()).astype(np.uint8)


def test_params_validation():
    p = ProtocolParams(delta=2**-64, epsilon=0.97725, n=100)
    assert p.files_per_instance == 2
    assert p.log_threshold == pytest.approx(64 * math.log(2.0), rel=1e-15)
    ent = ProtocolParams(
        delta=2**-10, epsilon=0.97725, n=100, mode="entanglement", r_th=8e-6
    )
    assert ent.files_per_instance == 4
    assert ProtocolParams(delta=0.5, epsilon=0.9, n=None).n is None
    with pytest.raises(ValueError):
        ProtocolParams(delta=0.5, epsilon=0.25, n=10)
    with pytest.raises(ValueError):
        ProtocolParams(delta=0.5, epsilon=0.9, n=0)
    with pytest.raises(ValueError):
        ProtocolParams(delta=0.5, epsilon=0.9, n=10, mode="both")
    with pytest.raises(ValueError):
        ProtocolParams(delta=0.5, epsilon=0.9, n=10, mode="basic", r_th=1e-6)


def test_run_instance_padding_is_neutral(golden_factor):
    records = [(1, 1, 1, 1, 1), (2, 1, 2, 2, 2), (1, 2, 1, 1, 1), (2, 2, 2, 1, 2)]
    short = ProtocolParams(delta=0.01, epsilon=0.9, n=4)
    padded = ProtocolParams(delta=0.01, epsilon=0.9, n=50)
    a = run_instance(pack_records(records), golden_factor, short)
    b = run_instance(pack_records(records), golden_factor, padded)
    assert a.sum_log_w == b.sum_log_w
    assert a.trials_padded == 0 and b.trials_padded == 46
    assert b.trials_real == 4
    expect = sum(math.log(factor_value(golden_factor, *r)) for r in records)
    assert a.sum_log_w == pytest.approx(expect, rel=1e-12)
    assert a.log2_p == pytest.approx(expect / math.log(2.0), rel=1e-12)


def test_run_instance_truncates_from_the_end(golden_factor, golden_sigma3, nu_uniform):
    codes = _honest_codes(golden_sigma3, nu_uniform, 1000, key=101)
    params = ProtocolParams(delta=0.01, epsilon=0.9, n=600)
    full = run_instance(codes, golden_factor, params)
    head = run_instance(codes[:600], golden_factor, params)
    assert full.sum_log_w == head.sum_log_w
    assert full.trials_real == 600 and full.trials_padded == 0


def test_zero_factor_cell_aborts(nu_uniform):
    matched = np.ones((2, 2, 2, 2))
    matched[0, 0, 0, 0] = 0.0
    tf = certified_factor(matched, 1.0, nu_uniform.table)
    params = ProtocolParams(delta=0.01, epsilon=0.9, n=10)
    with pytest.raises(AnalysisAbort, match="cell code 0"):
        run_instance(pack_records([(1, 1, 1, 1, 1)]), tf, params)
    # The same factor is fine when the dead cell goes unobserved.
    res = run_instance(pack_records([(2, 1, 1, 1, 1)]), tf, params)
    assert res.sum_log_w == 0.0


def test_counts_validation(golden_factor):
    params = ProtocolParams(delta=0.01, epsilon=0.9, n=10)
    counts = aggregate_counts(np.array([0, 0, 3], dtype=np.uint8))
    with pytest.raises(ValueError):
        run_instance_from_counts(counts, 5, golden_factor, params)
    with pytest.raises(ValueError):
        run_instance_from_counts(counts, 30, golden_factor, params)


def test_scoring_needs_an_instance_length(golden_factor, monkeypatch):
    unsized = ProtocolParams(delta=0.01, epsilon=0.9, n=None)
    counts = aggregate_counts(np.array([0, 0, 3], dtype=np.uint8))
    with pytest.raises(ValueError, match="trial count n"):
        run_instance_from_counts(counts, 3, golden_factor, unsized)

    def no_counting(*args, **kwargs):
        raise AssertionError("counted trials of an instance with no length")

    monkeypatch.setattr("diqpv.protocol.aggregate_counts", no_counting)
    with pytest.raises(ValueError, match="trial count n"):
        run_instance(np.array([0, 0, 3], dtype=np.uint8), golden_factor, unsized)


def test_unity_factor_never_passes(nu_uniform):
    unity = certified_factor(np.ones((2, 2, 2, 2)), 1.0, nu_uniform.table)
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=5)
    res = run_instance(pack_records([(1, 1, 1, 1, 1)] * 5), unity, params)
    assert res.sum_log_w == 0.0
    assert not res.passed
    # Entanglement accounting needs a settings-averaged minimum below 1.
    ent = ProtocolParams(delta=0.5, epsilon=0.9, n=5, mode="entanglement", r_th=1e-4)
    with pytest.raises(UselessFactorError):
        run_instance(pack_records([(1, 1, 1, 1, 1)] * 5), unity, ent)


def test_instance_sum_matches_compensated_oracle(golden_factor):
    rng = np.random.Generator(np.random.Philox(key=51))
    logw = np.log(golden_factor.full_table().reshape(32))

    def score(flat):
        n = int(flat.sum())
        counts = CountsTable(flat.reshape(2, 2, 2, 2, 2))
        params = ProtocolParams(delta=0.5, epsilon=0.9, n=n)
        res = run_instance_from_counts(counts, n, golden_factor, params)
        return res.sum_log_w, (flat * logw).tolist()

    # Typical counts: per-cell terms of both signs that largely cancel.
    ours, terms = score(rng.integers(0, 2000, 32))
    assert ours == pytest.approx(kahan_sum(terms), abs=1e-10)
    assert ours == pytest.approx(math.fsum(terms), abs=1e-10)
    # Two swamping cells (about -/+1e12) cancel to O(1); the small cells
    # around them fall below their ulp, which a plain float sum drops.
    spiky = np.zeros(32, dtype=np.int64)
    spiky[[0, 4, 16, 20]] = rng.integers(1, 1000, 4)
    spiky[11] = 10**13
    spiky[3] = round(10**13 * logw[11] / -logw[3])
    ours, terms = score(spiky)
    assert sum(terms) != math.fsum(terms)
    assert ours == pytest.approx(math.fsum(terms), abs=1e-12)


def test_r_lower_bound_inverts_threshold():
    assert r_lower_bound(50.0, 6_000_000, 2**-64, 0.0) == pytest.approx(
        (50.0 - 64.0 * math.log(2.0)) / 6e6, rel=1e-12
    )
    rng = np.random.Generator(np.random.Philox(key=53))
    for _ in range(20):
        n = int(rng.integers(10, 10**8))
        delta = float(np.exp(-rng.uniform(1, 50)))
        wbar = float(rng.uniform(0.0, 0.999))
        s = float(rng.uniform(-100, 100))
        r = r_lower_bound(s, n, delta, wbar)
        recon = -math.log(delta) + n * r * (1.0 - wbar)
        assert recon == pytest.approx(s, rel=1e-12, abs=1e-9)
    with pytest.raises(UselessFactorError):
        r_lower_bound(1.0, 10, 0.5, 1.0)


def test_entanglement_instance_threshold_and_bound(golden_factor, golden_sigma3, nu_uniform):
    codes = _honest_codes(golden_sigma3, nu_uniform, 2000, key=61)
    params = ProtocolParams(
        delta=0.25, epsilon=0.9, n=2000, mode="entanglement", r_th=1e-4
    )
    res = run_instance(codes, golden_factor, params)
    wb = wbar_min(golden_factor)
    assert res.r_lb == pytest.approx(
        r_lower_bound(res.sum_log_w, 2000, 0.25, wb), rel=1e-15
    )
    threshold = -math.log(0.25) + 2000 * 1e-4 * (1.0 - wb)
    assert res.passed == (res.sum_log_w >= threshold)
    basic = ProtocolParams(delta=0.25, epsilon=0.9, n=2000)
    assert run_instance(codes, golden_factor, basic).r_lb is None


def test_z_for_epsilon_exact_and_generic():
    assert z_for_epsilon(0.84134) == 1.0
    assert z_for_epsilon(0.97725) == 2.0
    assert z_for_epsilon(0.99865) == 3.0
    assert z_for_epsilon(0.5) == pytest.approx(0.0, abs=1e-12)
    assert z_for_epsilon(0.975) == pytest.approx(1.959964, abs=1e-5)
    with pytest.raises(ValueError):
        z_for_epsilon(1.0)


def test_z_for_epsilon_matches_scipy_quantile():
    norm = pytest.importorskip("scipy.stats").norm
    grid = np.concatenate([np.linspace(0.01, 0.99, 99), [1e-6, 1e-3, 0.999, 0.99999, 0.999999]])
    for epsilon in grid:
        assert z_for_epsilon(epsilon) == pytest.approx(norm.ppf(epsilon), abs=1e-13)


def test_p_succ_boundaries():
    # n g exactly at the threshold puts the CLT success at one half.
    assert p_succ(10, 1.0, 1.0, 2**-10) == pytest.approx(0.5, abs=1e-15)
    assert p_succ(10, 1.0, 0.0, 2**-5) == 1.0
    assert p_succ(10, 0.1, 0.0, 2**-5) == 0.0
    assert p_succ(10, 0.5, 0.0, 2**-5) == 1.0
    probs = [p_succ(n, 1.0, 4.0, 2**-10) for n in (10, 20, 40, 100)]
    assert probs == sorted(probs)


def test_required_trials_golden_operating_point(golden_factor, golden_sigma3):
    g, v = gain_variance(golden_factor, golden_sigma3)
    n = required_trials(g, v, 2**-64, 0.97725)
    assert n == 25_907_459
    assert 2e7 <= n <= 3e7
    assert n / 250_000.0 <= 120.0
    big = 64.0
    assert n_margin(n, g, v, big, 2.0) >= 0
    assert n_margin(n - 1, g, v, big, 2.0) < 0


def test_required_trials_edge_cases():
    assert required_trials(1.0, 1.0, 1.0, 0.97725) == 0
    assert required_trials(0.02, 5.0, 2**-20, 0.5) == math.ceil(20 / 0.02)
    assert required_trials(0.5, 0.0, 2**-10, 0.97725) == 20
    with pytest.raises(InfeasiblePlanError):
        required_trials(0.0, 1.0, 0.5, 0.9)
    with pytest.raises(InfeasiblePlanError):
        required_trials(-1e-9, 1.0, 0.5, 0.9)


def test_required_trials_is_the_first_n_reaching_phi_of_z(golden_factor, golden_sigma3):
    # The target is Phi(z_for_epsilon(epsilon)), not epsilon: at the golden
    # operating point p_succ is 0.97724988, just below 0.97725.
    pairs = [gain_variance(golden_factor, golden_sigma3), (0.3, 0.0), (0.5, 0.0), (0.02, 5.0),
             (1.0, 1.0), (1e-3, 0.1), (0.1, 4.0)]
    for g, v in pairs:
        for delta in (2**-64, 2**-20, 0.01, 0.5):
            for epsilon in (0.6, 0.9, 0.95, 0.99, 0.999, 0.84134, 0.97725, 0.99865):
                target = 0.5 * math.erfc(-z_for_epsilon(epsilon) / math.sqrt(2.0))
                n = required_trials(g, v, delta, epsilon)
                assert p_succ(n, g, v, delta) >= target
                assert n == 1 or p_succ(n - 1, g, v, delta) < target
    g, v = pairs[0]
    assert p_succ(25_907_459, g, v, 2**-64) < 0.97725


def test_plan_entanglement_golden(golden_factor, golden_sigma3):
    plan = plan_entanglement(golden_factor, golden_sigma3, 8e-6, 2**-64, 0.97725)
    assert plan.n == 48_839_430
    assert plan.n <= 6e7
    assert plan.n / 250_000.0 <= 240.0
    assert plan.lam_mix == pytest.approx(0.5826167, abs=1e-5)
    assert plan.effective_gain_bits < plan.gain_bits
    assert plan.effective_gain_bits > 0
    # The delivered factor really is the mix at lam_mix.
    mix = plan.lam_mix * golden_factor.matched + (1.0 - plan.lam_mix)
    assert np.abs(plan.factor.matched - mix).max() <= 1e-12


def test_plan_entanglement_monotone_and_reduction(golden_factor, golden_sigma3):
    plans = [
        plan_entanglement(golden_factor, golden_sigma3, r, 2**-64, 0.97725)
        for r in (0.0, 4e-6, 8e-6)
    ]
    assert plans[0].n <= plans[1].n <= plans[2].n
    assert plans[0].effective_gain_bits == pytest.approx(
        plans[0].gain_bits, rel=1e-12
    )
    with pytest.raises(InfeasiblePlanError):
        plan_entanglement(golden_factor, golden_sigma3, 1.0, 2**-64, 0.97725)


def test_achievable_quantities_consistent(golden_factor, golden_sigma3):
    g, v = gain_variance(golden_factor, golden_sigma3)
    n = required_trials(g, v, 2**-64, 0.97725)
    assert achievable_delta_log2(n, g, v, 0.97725) >= 64.0
    assert achievable_delta_log2(n - 1, g, v, 0.97725) < 64.0
    assert achievable_delta_log2(0, g, v, 0.97725) == 0.0

    plan = plan_entanglement(golden_factor, golden_sigma3, 8e-6, 2**-64, 0.97725)
    r = achievable_rth(golden_factor, golden_sigma3, [plan.n], 2**-64, 0.97725)[0]
    assert r >= 8e-6 * (1.0 - 1e-5)  # grid search sits a hair under the optimum
    r_small = achievable_rth(golden_factor, golden_sigma3, [plan.n // 4], 2**-64, 0.97725)[0]
    assert r_small < r


@pytest.mark.parametrize("length", [1, 15, 16, 17, 200])
def test_achievable_rth_blocks_match_the_unblocked_grid(golden_factor, golden_sigma3, length):
    # The golden factor's mixing weight is limited by its own cap
    # 1 / (1 - min w); the lightly mixed one's by the planner's cap of 1e6.
    light = mix_with_unity(golden_factor, 1e-7)
    assert mixing_cap(golden_factor) < 1e6 < mixing_cap(light)
    rng = np.random.Generator(np.random.Philox(key=length))
    n = rng.integers(1, 10**10, size=length)
    some_below_one = n.copy()
    some_below_one[::5] = rng.integers(-3, 1, size=len(n[::5]))
    for tf in (golden_factor, light):
        for trials in (n, some_below_one):
            got = achievable_rth(tf, golden_sigma3, trials, 2**-64, 0.97725)
            want = achievable_rth_unblocked(tf, golden_sigma3, trials, 2**-64, 0.97725)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert (got[trials < 1] == 0.0).all()
    assert (achievable_rth(golden_factor, golden_sigma3, n, 2**-64, 0.97725) > 0).any()


def _sources(golden_sigma3, nu_uniform, sizes, errors=(), key=71):
    probs = cell_probabilities(golden_sigma3, nu_uniform).reshape(32)
    rng = np.random.Generator(np.random.Philox(key=key))
    out = []
    for i, size in enumerate(sizes):
        codes = rng.choice(32, size=size, p=probs / probs.sum()).astype(np.uint8)
        out.append(
            ArrayTrialSource(codes, error=i in errors, label=f"file-{i:04d}")
        )
    return out


def test_segmentation_minimal_run(golden_sigma3, nu_uniform):
    sources = _sources(golden_sigma3, nu_uniform, [1500] * 12)
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=3000)
    instances = segment_and_analyze(sources, params, nu=nu_uniform)
    assert len(instances) == 1
    inst = instances[0]
    assert inst.data_labels == ("file-0010", "file-0011")
    assert inst.calibration_labels == tuple(f"file-{i:04d}" for i in range(10))
    assert inst.result.trials_real == 3000
    assert inst.lam_mix is None


def test_segmentation_counts_and_windows(golden_sigma3, nu_uniform):
    sources = _sources(golden_sigma3, nu_uniform, [800] * 30)
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=1600)
    instances = segment_and_analyze(sources, params, nu=nu_uniform)
    assert len(instances) == 10  # (30 - 10) / 2
    # Calibration windows slide: the second instance sees files 2..11.
    assert instances[1].calibration_labels == tuple(
        f"file-{i:04d}" for i in range(2, 12)
    )
    assert instances[1].data_labels == ("file-0012", "file-0013")
    # A final odd file forms a short padded instance.
    sources = _sources(golden_sigma3, nu_uniform, [800] * 13)
    instances = segment_and_analyze(sources, params, nu=nu_uniform)
    assert len(instances) == 2
    assert instances[1].data_labels == ("file-0012",)
    assert instances[1].result.trials_real == 800
    assert instances[1].result.trials_padded == 800


def test_segmentation_error_file_rules(golden_sigma3, nu_uniform):
    # File 11 is error-flagged: consumed as data, never used to calibrate.
    sources = _sources(golden_sigma3, nu_uniform, [900] * 16, errors={11})
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=1800)
    instances = segment_and_analyze(sources, params, nu=nu_uniform)
    assert len(instances) == 3
    assert instances[0].data_labels == ("file-0010", "file-0011")
    for inst in instances:
        assert "file-0011" not in inst.calibration_labels
    # Second window keeps 10 error-free files by reaching further back.
    assert instances[1].calibration_labels == tuple(
        f"file-{i:04d}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    )
    # An error flag inside the first ten defers the start.
    sources = _sources(golden_sigma3, nu_uniform, [900] * 13, errors={3})
    instances = segment_and_analyze(sources, params, nu=nu_uniform)
    assert len(instances) == 1
    assert instances[0].data_labels == ("file-0011", "file-0012")


def test_segmentation_consumption_caps_at_n(golden_sigma3, nu_uniform):
    sources = _sources(golden_sigma3, nu_uniform, [1000] * 12)
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=1500)
    inst = segment_and_analyze(sources, params, nu=nu_uniform)[0]
    assert inst.result.trials_real == 1500
    assert inst.result.trials_padded == 0


def test_segmentation_needs_ten_clean_files(golden_sigma3, nu_uniform):
    sources = _sources(golden_sigma3, nu_uniform, [500] * 12, errors={0, 1, 2})
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=1000)
    with pytest.raises(DegenerateDataError, match="need 10 error-free calibration files, have 9"):
        segment_and_analyze(sources, params, nu=nu_uniform)
    # Ten clean files and nothing after them: no instance to score.
    sources = _sources(golden_sigma3, nu_uniform, [500] * 10)
    with pytest.raises(DegenerateDataError, match="no data file after the 10 calibration files"):
        segment_and_analyze(sources, params, nu=nu_uniform)


@pytest.mark.parametrize("mode", ["basic", "entanglement"])
def test_segmentation_sizes_instances_from_first_window(nu_uniform, mode):
    # Lossless source, so a 20k-trial window fits a strongly nonlocal factor.
    sigma3 = honest_distribution(
        HonestProverModel(eta_a=1.0, eta_p=1.0, dark_count=0.0, p_pair=1.0)
    )
    sources = _sources(sigma3, nu_uniform, [2000] * 18)
    r_th = 8e-6 if mode == "entanglement" else 0.0
    auto = ProtocolParams(delta=2**-4, epsilon=0.97725, n=None, mode=mode, r_th=r_th)
    window = CountsTable.zeros()
    for src in sources[:10]:
        window = window + src.counts()
    cal = calibrate(window, nu_uniform, 2e-6)
    if mode == "entanglement":
        n = plan_entanglement(cal.factor, cal.sigma3, r_th, auto.delta, auto.epsilon).n
    else:
        g, v = gain_variance(cal.factor, cal.sigma3)
        n = required_trials(g, v, auto.delta, auto.epsilon)
    assert 1 <= n < 2000
    sized = segment_and_analyze(sources, auto, nu=nu_uniform)
    fixed = segment_and_analyze(sources, replace(auto, n=n), nu=nu_uniform)
    assert len(sized) == len(fixed) == {"basic": 4, "entanglement": 2}[mode]
    for a, b in zip(sized, fixed):
        assert a.result == b.result
        assert a.result.trials_real == n and a.result.trials_padded == 0
        assert (a.calibration_labels, a.data_labels, a.lam_mix) == (
            b.calibration_labels, b.data_labels, b.lam_mix
        )
        assert np.array_equal(a.factor.full_table(), b.factor.full_table())


def test_segmentation_deterministic(golden_sigma3, nu_uniform):
    sources = _sources(golden_sigma3, nu_uniform, [700] * 14)
    params = ProtocolParams(delta=0.5, epsilon=0.9, n=1400)
    a = segment_and_analyze(sources, params, nu=nu_uniform)
    b = segment_and_analyze(sources, params, nu=nu_uniform)
    assert [i.result.sum_log_w for i in a] == [i.result.sum_log_w for i in b]
    assert [i.calibration_labels for i in a] == [i.calibration_labels for i in b]


def test_file_source_matches_array_source(tmp_path, golden_sigma3, nu_uniform):
    codes = _honest_codes(golden_sigma3, nu_uniform, 5000, key=81)
    path = tmp_path / "trials-0000.qpvt"
    write_trials(path, codes, detector_error=True)
    fsrc = FileTrialSource(path)
    asrc = ArrayTrialSource(codes, error=True, label="trials-0000.qpvt")
    assert fsrc.trials == asrc.trials == 5000
    assert fsrc.error and asrc.error
    assert fsrc.label == asrc.label
    assert np.array_equal(fsrc.counts().table, asrc.counts().table)
    assert np.array_equal(
        fsrc.prefix_counts(1234).table, asrc.prefix_counts(1234).table
    )
    assert np.array_equal(fsrc.prefix_counts(9999).table, asrc.counts().table)


@given(even=st.integers(0, 200), odd=st.integers(0, 200), extra=st.integers(0, 401),
       seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=25, deadline=None)
def test_prefix_counts_from_marks_match_counting_the_prefix(even, odd, extra, seed):
    chunk = 64
    rng = np.random.default_rng(seed)
    codes = [rng.integers(0, 32, size=t, dtype=np.uint8) for t in (2 * even, 2 * odd + 1)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        paths = [os.path.join(tmp, f"trials-{i:04d}.qpvt") for i in range(2)]
        for path, c in zip(paths, codes):
            write_trials(path, c)
        mp.setattr(protocol, "_CHUNK", chunk)
        mp.setattr(protocol, "_FORK_TRIALS", 0)

        def check(sources):
            for src, c in zip(sources, codes):
                ks = {0, 1, chunk - 1, chunk, chunk + 1, c.size - 1, c.size, extra}
                for k in sorted(k for k in ks if 0 <= k <= c.size):
                    assert np.array_equal(src.prefix_counts(k).table,
                                          aggregate_counts(c[:k]).table), (c.size, k)
                assert np.array_equal(src.counts().table, aggregate_counts(c).table)

        # In-process: prefixes counted directly, then again from the marks
        # the full count leaves.
        unforked = [FileTrialSource(p) for p in paths]
        check(unforked)
        check(unforked)
        # Forked: every prefix comes from a child's marks, never from a
        # count of the file in the parent.  A child records its own _tally
        # calls in its own copy of the list.
        forked = [FileTrialSource(p) for p in paths]
        tallied = []
        real_tally = FileTrialSource._tally

        def tally(src, limit=None):
            tallied.append((src.label, limit))
            return real_tally(src, limit)

        mp.setattr(FileTrialSource, "_tally", tally)
        with protocol._counting_ahead(forked):
            check(forked)
        assert tallied == []


def test_e_value_soundness_in_bulk(golden_factor, nu_uniform):
    """Against the worst no-signaling adversary the pass rate stays below
    the significance level plus sampling noise."""
    nu = golden_factor.nu
    _, mu, _ = certify(golden_factor.matched, golden_factor.mismatch, nu)
    probs = np.zeros((2, 2, 2, 2, 2))
    for ma in range(2):
        for b in range(2):
            probs[ma, :, b] = nu[ma, b] * mu[ma, b, b]
    flat = np.clip(probs.reshape(32), 0.0, None)
    flat /= flat.sum()
    delta = 2**-10
    n = 200
    reps = 10_000
    rng = np.random.Generator(np.random.Philox(key=91))
    counts = rng.multinomial(n, flat, size=reps)
    logw = np.log(np.clip(golden_factor.full_table().reshape(32), 1e-300, None))
    sums = counts @ logw
    freq = float((sums >= -math.log(delta)).mean())
    assert freq <= delta + 3.0 * math.sqrt(delta * (1 - delta) / reps)
    # Spot-check the vectorized path against the instance evaluator.
    params = ProtocolParams(delta=delta, epsilon=0.9, n=n)
    for row, expect in zip(counts[:50], sums[:50]):
        table = row.reshape(2, 2, 2, 2, 2)
        res = run_instance_from_counts(
            aggregate_counts(np.repeat(np.arange(32, dtype=np.uint8), row)),
            n, golden_factor, params,
        )
        assert res.sum_log_w == pytest.approx(float(expect), rel=1e-12)
        assert res.passed == (res.sum_log_w >= params.log_threshold)

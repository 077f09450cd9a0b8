"""Release acceptance suite: one verdict line per criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single `[acceptance] NN name: PASS/FAIL (...)` line with the
measured numbers, so `pytest tests/test_acceptance.py -v -s` doubles as a
release report.  The reference values live in golden.py.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats

from golden import (
    REFERENCE_ADVANTAGE,
    REFERENCE_GAIN_BITS,
    REFERENCE_LENGTHS,
    REFERENCE_MISMATCH,
    REFERENCE_VARIANCE_BITS,
    behavior_array,
    factor_array,
)
from helpers import prover_swap, two_party_marginal, uniform_ns3
from oracles import lr_member_oracle, point_in_classical_region, point_in_quantum_region

from diqpv.estimation import cell_probabilities, ml_fit_quantum
from diqpv.geometry import quantum_advantage, region_size, region_spec
from diqpv.polytopes import max_linear, ns3_polytope
from diqpv.protocol import (
    ProtocolParams,
    plan_entanglement,
    r_lower_bound,
    required_trials,
    run_instance_from_counts,
)
from diqpv.reference import timing_geometry
from diqpv.simulator import HonestProverModel, sample_trials, source_robustness, stream_key
from diqpv.testfactor import assemble_robust, build_wlr, gain_variance, lambda_max
from diqpv.trialdata import CountsTable

LN2 = math.log(2.0)


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_c01_calibration_fit_matches_reference(golden_counts):
    start = time.perf_counter()
    fit = ml_fit_quantum(golden_counts)
    elapsed = time.perf_counter() - start
    worst = float(np.abs(fit.table - behavior_array()).max())
    _check(1, "calibration fit", worst <= 1e-6 and elapsed < 10.0,
           f"max|dp| = {worst:.2e} <= 1e-6, {elapsed:.2f} s < 10 s")


def test_c02_factor_construction_matches_reference(golden_fit, nu_uniform):
    start = time.perf_counter()
    wlr = build_wlr(golden_fit, nu_uniform)
    lam, duals = lambda_max(wlr, nu_uniform)
    tf = assemble_robust(wlr, lam, nu_uniform, duals=duals)
    elapsed = time.perf_counter() - start
    rel = float(np.abs(tf.matched / factor_array() - 1.0).max())
    dlam = abs(tf.mismatch - REFERENCE_MISMATCH)
    ok = rel <= 1e-4 and dlam <= 1e-4 and elapsed < 30.0
    _check(2, "factor construction", ok,
           f"max rel dw = {rel:.2e} <= 1e-4, |dlam| = {dlam:.2e} <= 1e-4, "
           f"{elapsed:.2f} s < 30 s")


def test_c03_gain_statistics_match_reference(golden_factor, golden_sigma3):
    g, v = gain_variance(golden_factor, golden_sigma3)
    rg = abs(g / REFERENCE_GAIN_BITS - 1.0)
    rv = abs(v / REFERENCE_VARIANCE_BITS - 1.0)
    _check(3, "gain statistics", rg <= 1e-3 and rv <= 1e-3,
           f"g = {g:.6e} (rel {rg:.1e}), v = {v:.6e} (rel {rv:.1e}), tol 1e-3")


def test_c04_planned_runtimes(golden_factor, golden_sigma3):
    g, v = gain_variance(golden_factor, golden_sigma3)
    n_basic = required_trials(g, v, 2.0 ** -64, 0.97725)
    plan = plan_entanglement(golden_factor, golden_sigma3, 8e-6, 2.0 ** -64, 0.97725)
    ok = 2.0e7 <= n_basic <= 3.0e7 and plan.n <= 6.0e7
    _check(4, "trial planning", ok,
           f"basic n = {n_basic} in [2e7, 3e7] ({n_basic / 250e3:.1f} s), "
           f"entanglement n = {plan.n} <= 6e7 ({plan.n / 250e3:.1f} s)")


def test_c05_certification_under_perturbation(golden_counts, golden_factor, nu_uniform):
    rng = np.random.Generator(np.random.Philox(key=1105))
    # cert_margin stores 1 - (exact weak-duality bound on the adversarial
    # expectation, from the one certification LP's duals)
    expectations = [1.0 - golden_factor.cert_margin]
    violating = 0
    for _ in range(50):
        jitter = np.exp(rng.normal(0.0, 0.05, size=golden_counts.table.shape))
        pert = CountsTable(rng.poisson(golden_counts.table * jitter).astype(np.float64))
        wlr = build_wlr(ml_fit_quantum(pert), nu_uniform)
        violating += wlr.lr_violating
        lam, duals = lambda_max(wlr, nu_uniform)
        tf = assemble_robust(wlr, lam, nu_uniform, duals=duals)
        expectations.append(1.0 - tf.cert_margin)
    worst = max(expectations)
    _check(5, "certification under perturbation", worst <= 1.0 + 1e-8,
           f"max NS3 expectation {worst:.12f} <= 1 + 1e-8 over "
           f"{len(expectations)} factors ({violating}/50 perturbed fits nonlocal)")


def test_c06_adversarial_pass_rate(golden_factor, golden_sigma3, nu_uniform):
    from diqpv.simulator import AdversaryModel

    start = time.perf_counter()
    delta, instances = 2.0 ** -10, 10_000
    g, v = gain_variance(golden_factor, golden_sigma3)
    n = required_trials(g, v, delta, 0.97725)
    logw = np.log(golden_factor.full_table().ravel())
    threshold = -math.log(delta)
    limit = instances * delta + 3.0 * math.sqrt(instances * delta * (1.0 - delta))
    rng = np.random.Generator(np.random.Philox(key=2306))
    worst_passes = 0
    for vertex in (0, 3, 5, 10, 15):
        sigma3 = AdversaryModel.lr_vertex(vertex).behavior
        p = cell_probabilities(sigma3, nu_uniform).ravel()
        counts = rng.multinomial(n, p / p.sum(), size=instances)
        passes = int(((counts @ logw) >= threshold).sum())
        worst_passes = max(worst_passes, passes)
    elapsed = time.perf_counter() - start
    ok = worst_passes <= limit and elapsed < 300.0
    _check(6, "adversarial pass rate", ok,
           f"worst vertex: {worst_passes}/{instances} passes <= {limit:.1f} "
           f"at delta = 2^-10, n = {n}; {elapsed:.1f} s < 300 s")


def test_c07_honest_pass_rate(golden_factor, golden_sigma3, nu_uniform):
    start = time.perf_counter()
    delta, epsilon, instances = 2.0 ** -16, 0.97725, 500
    g, v = gain_variance(golden_factor, golden_sigma3)
    n = required_trials(g, v, delta, epsilon)
    logw = np.log(golden_factor.full_table().ravel())
    p = cell_probabilities(golden_sigma3, nu_uniform).ravel()
    rng = np.random.Generator(np.random.Philox(key=2307))
    counts = rng.multinomial(n, p / p.sum(), size=instances)
    passes = int(((counts @ logw) >= -math.log(delta)).sum())
    lo = int(stats.binom.ppf(0.005, instances, epsilon))
    hi = int(stats.binom.ppf(0.995, instances, epsilon))
    elapsed = time.perf_counter() - start
    ok = lo <= passes <= hi and elapsed < 600.0
    _check(7, "honest pass rate", ok,
           f"{passes}/{instances} passes in 99% interval [{lo}, {hi}] around "
           f"{epsilon}, n = {n}; {elapsed:.1f} s < 600 s")


def test_c08_entanglement_accounting():
    rng = np.random.Generator(np.random.Philox(key=2308))
    worst = 0.0
    for _ in range(200):
        wbar = rng.uniform(0.3, 0.995)
        n = int(rng.integers(1_000, 10_000_000))
        delta = 2.0 ** -rng.uniform(2.0, 64.0)
        rate = rng.uniform(1e-8, 1e-4)
        s_star = -math.log(delta) + n * rate * (1.0 - wbar)
        worst = max(worst, abs(r_lower_bound(s_star, n, delta, wbar) - rate))
    xi = source_robustness(HonestProverModel())
    rel = abs(xi - 2e-3) / 2e-3
    ok = worst <= 1e-12 and rel <= 0.05
    _check(8, "entanglement accounting", ok,
           f"threshold inversion max|dr| = {worst:.1e} <= 1e-12 over 200 draws, "
           f"source robustness {xi:.6f} within {rel * 100:.1f}% of 2e-3")


def test_c09_target_region_geometry():
    start = time.perf_counter()
    tg = timing_geometry()
    spec = region_spec(tg)
    computed = {"radius_a": spec.radius_a, "radius_b": spec.radius_b,
                "ellipse_ab": spec.ellipse_ab, "ellipse_ba": spec.ellipse_ba}
    len_errs = {k: abs(computed[k] - REFERENCE_LENGTHS[k]) for k in computed}
    ratio_errs = {}
    ok = all(e <= 0.3 for e in len_errs.values())
    for (dim, comparator), (center, sigma) in sorted(REFERENCE_ADVANTAGE.items()):
        res = quantum_advantage(tg, dim, mc_outer=100_000, seed=7)[comparator]
        ratio_errs[(dim, comparator)] = (res.ratio, abs(res.ratio - center), 3.0 * sigma)
        ok = ok and abs(res.ratio - center) <= 3.0 * sigma
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    ratios = ", ".join(f"{d}d/{c}: {r:.3f} (|d| {e:.3f} <= {b:.2f})"
                       for (d, c), (r, e, b) in sorted(ratio_errs.items()))
    _check(9, "target-region geometry", ok,
           f"lengths within {max(len_errs.values()):.3f} m of published (tol 0.3); "
           f"{ratios}; {elapsed:.1f} s < 300 s")


def test_c10_structural_invariants(golden_factor, golden_sigma3, nu_uniform):
    rng = np.random.Generator(np.random.Philox(key=2310))
    spec = region_spec(timing_geometry())

    # Quantum region is contained in the classical union.
    pts = np.column_stack([rng.uniform(-400.0, 600.0, 400),
                           rng.uniform(-300.0, 300.0, 400)])
    inside = 0
    contained = True
    for x, y in pts:
        if point_in_quantum_region((x, y), spec):
            inside += 1
            contained = contained and point_in_classical_region((x, y), spec)

    # Symmetrized 3-party non-signaling marginals are local.
    ns3 = ns3_polytope()
    points = []
    for _ in range(8):
        _, mu, _ = max_linear(rng.standard_normal(64), ns3)
        points.append(np.asarray(mu).reshape((2,) * 6))
    for _ in range(2):
        w = rng.dirichlet(np.ones(len(points) + 1))
        points.append(np.tensordot(w, np.array(points + [uniform_ns3()]), axes=1))
    local = all(
        lr_member_oracle(two_party_marginal(0.5 * (mu + prover_swap(mu)), bp=0), tol=1e-6)
        for mu in points
    )

    # Padding an instance with unity trials leaves the e-value alone.
    p = cell_probabilities(golden_sigma3, nu_uniform).ravel()
    row = rng.multinomial(20_000, p / p.sum())
    counts = CountsTable(row.astype(np.float64).reshape(2, 2, 2, 2, 2))
    exact = run_instance_from_counts(
        counts, 20_000, golden_factor,
        ProtocolParams(delta=2.0 ** -16, epsilon=0.97725, n=20_000))
    padded = run_instance_from_counts(
        counts, 20_000, golden_factor,
        ProtocolParams(delta=2.0 ** -16, epsilon=0.97725, n=25_000))
    neutral = padded.sum_log_w == exact.sum_log_w and padded.trials_padded == 5_000

    # Fixed seeds reproduce bit-identical draws and sizes.
    key = stream_key(9, 4)
    reproducible = np.array_equal(
        sample_trials(golden_sigma3, nu_uniform, 50_000, key),
        sample_trials(golden_sigma3, nu_uniform, 50_000, key),
    ) and region_size("quantum", spec, 2) == region_size("quantum", spec, 2)

    ok = contained and inside > 0 and local and neutral and reproducible
    _check(10, "structural invariants", ok,
           f"containment {inside} quantum hits all classical: {contained}; "
           f"shareability 10/10 local: {local}; padding neutral: {neutral}; "
           f"seeded reruns identical: {reproducible}")

"""The barrier solver: the oracle's bits, few Newton steps, clear errors.

The oracle (``oracles.maximize_log_affine_budgeted``) runs every Newton
loop to its tolerance or step cap; the live solver also stops at the first
step that leaves x unchanged.  Each step is a function of x alone, so on
inputs where the oracle never takes a losing tread-water step the two
must agree bit for bit.
"""

import numpy as np
import pytest

import diqpv._smooth as smooth
from diqpv import estimation, testfactor
from diqpv.estimation import cell_probabilities, ml_fit_quantum
from diqpv.polytopes import TSIRELSON, chsh_values
from diqpv.protocol import calibrate
from diqpv.simulator import HonestProverModel, honest_distribution
from diqpv.testfactor import build_wlr
from diqpv.trialdata import CountsTable

from helpers import pr_box
from oracles import maximize_log_affine_budgeted


def _honest_windows(nu, trials, count, key):
    probs = cell_probabilities(honest_distribution(HonestProverModel()), nu).ravel()
    rng = np.random.Generator(np.random.Philox(key=key))
    return [CountsTable(rng.multinomial(trials, probs / probs.sum()).reshape(2, 2, 2, 2, 2))
            for _ in range(count)]


def _has_empty_matched_cell(counts):
    return (counts.table[:, :, :, 0, 0] == 0).any() or (counts.table[:, :, :, 1, 1] == 0).any()


def _fit_and_factor(counts, nu):
    sigma = ml_fit_quantum(counts)
    wlr = build_wlr(sigma, nu)
    return sigma.table, wlr.table, wlr.gain


def _with_oracle(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(estimation, "maximize_log_affine", maximize_log_affine_budgeted)
        m.setattr(testfactor, "maximize_log_affine", maximize_log_affine_budgeted)
        return fn(*args)


@pytest.fixture(scope="module")
def corpus(golden_counts, nu_uniform):
    rng = np.random.Generator(np.random.Philox(key=1313))
    tables = [("golden", golden_counts)]
    for i in range(3):  # c05-style perturbations
        jitter = np.exp(rng.normal(0.0, 0.05, size=golden_counts.table.shape))
        pert = rng.poisson(golden_counts.table * jitter).astype(np.float64)
        tables.append((f"perturbed-{i}", CountsTable(pert)))
    # The first two windows whose factor has cells to pin.
    windows = [w for w in _honest_windows(nu_uniform, 200_000, 8, key=1314)
               if _has_empty_matched_cell(w)]
    for i, window in enumerate(windows[:2]):
        tables.append((f"window-{i}", window))
    noise = np.full((2, 2, 2, 2), 0.25)
    for p in (0.71, 0.72):  # CHSH 4p just above 2 sqrt 2
        behavior = p * pr_box() + (1.0 - p) * noise
        matched = rng.multinomial(1_000_000, behavior.ravel() / 4.0).reshape(2, 2, 2, 2)
        tables.append((f"pr-box-{p}", matched.astype(np.float64)))
    return tables


def test_corpus_covers_empty_cells_and_active_caps(corpus):
    assert sum(name.startswith("window") for name, _ in corpus) == 2
    boxes = [c for name, c in corpus if name.startswith("pr-box")]
    assert all(chsh_values(ml_fit_quantum(b).table).max() >= TSIRELSON - 1e-9 for b in boxes)


def test_fit_and_factor_match_the_oracle_bitwise(corpus, nu_uniform, monkeypatch):
    for name, counts in corpus:
        live = _fit_and_factor(counts, nu_uniform)
        ref = _with_oracle(monkeypatch, _fit_and_factor, counts, nu_uniform)
        for got, want in zip(live, ref):
            assert np.array_equal(got, want), name


def test_small_windows_match_the_oracle_gain(nu_uniform, monkeypatch):
    # On 20,000-trial windows with several empty matched cells the oracle
    # sometimes accepts a tread-water step that the live solver does not
    # take; the factor may then move along directions the objective does
    # not see, but the fit and the gain agree.
    for counts in _honest_windows(nu_uniform, 20_000, 10, key=1315):
        sigma, _, gain = _fit_and_factor(counts, nu_uniform)
        ref_sigma, _, ref_gain = _with_oracle(monkeypatch, _fit_and_factor, counts, nu_uniform)
        assert np.array_equal(sigma, ref_sigma)
        assert abs(gain - ref_gain) <= 1e-15


def test_golden_calibration_takes_few_newton_steps(golden_counts, nu_uniform, monkeypatch):
    steps = []
    loop = smooth._newton_loop

    def counting(*args, **kwargs):
        x, used = loop(*args, **kwargs)
        steps.append(used)
        return x, used

    monkeypatch.setattr(smooth, "_newton_loop", counting)
    calibrate(golden_counts, nu_uniform, 2e-6)
    assert 0 < sum(steps) <= 200


def test_rejects_infeasible_start_and_negative_weight():
    a, b = np.array([[1.0], [-1.0]]), np.array([0.0, 1.0])  # 0 < x < 1
    with pytest.raises(smooth.SmoothSolveError):
        smooth.maximize_log_affine([1.0, 1.0], a, b, [2.0])
    with pytest.raises(ValueError):
        smooth.maximize_log_affine([-1.0, 1.0], a, b, [0.5])
    x = smooth.maximize_log_affine([1.0, 1.0], a, b, [0.1])
    assert x[0] == pytest.approx(0.5, abs=1e-12)

"""The barrier solver: the oracles' bits, few Newton steps, clear errors.

One oracle (``oracles.maximize_log_affine_budgeted``) runs every Newton
loop to its tolerance or step cap; the live solver also stops at the first
step that leaves x unchanged.  Each step is a function of x alone, so on
inputs where the oracle never takes a losing tread-water step the two
must agree bit for bit.  The other (``oracles.maximize_log_affine_sequential``)
tries one line-search step length at a time where the live solver tries
every shorter one in a stacked product; the two must agree bit for bit,
step for step, everywhere.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import diqpv._smooth as smooth
from diqpv import estimation, testfactor
from diqpv.estimation import cell_probabilities, ml_fit_quantum
from diqpv.polytopes import TSIRELSON, chsh_values
from diqpv.protocol import calibrate
from diqpv.simulator import HonestProverModel, honest_distribution
from diqpv.testfactor import build_wlr
from diqpv.trialdata import CountsTable

import oracles
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


# The stacked line search against the one-step-at-a-time oracle


def _traced_calibrate(counts, nu, monkeypatch, oracle):
    """calibrate's sigma, matched table, mismatch and duals, and the step
    count of every Newton loop it ran, live or with the sequential oracle
    bound where perfbench's tracer patches the solver."""
    owner, name = (oracles, "_sequential_newton_loop") if oracle else (smooth, "_newton_loop")
    loop = getattr(owner, name)
    steps = []

    def counting(*args, **kwargs):
        x, used = loop(*args, **kwargs)
        steps.append(used)
        return x, used

    with monkeypatch.context() as m:
        m.setattr(owner, name, counting)
        if oracle:
            m.setattr(estimation, "maximize_log_affine", oracles.maximize_log_affine_sequential)
            m.setattr(testfactor, "maximize_log_affine", oracles.maximize_log_affine_sequential)
        cal = calibrate(counts, nu, 2e-6)
    return (cal.sigma.table, cal.factor.matched, cal.factor.mismatch, cal.factor.duals), steps


@pytest.fixture(scope="module")
def sequential_corpus(corpus, nu_uniform):
    tables = [(name, c) for name, c in corpus if name == "golden" or name.startswith("pr-box")]
    # Drawn as perfbench's plan-sweep draws its 75M-trial tables.
    for i, window in enumerate(_honest_windows(nu_uniform, 75_000_000, 2, key=3001)):
        tables.append((f"plan-sweep-{i}", window))
    for i, window in enumerate(_honest_windows(nu_uniform, 150_000_000, 2, key=3003)):
        tables.append((f"window-150M-{i}", window))
    small = [w for w in _honest_windows(nu_uniform, 20_000, 10, key=1315)
             if _has_empty_matched_cell(w)]
    for i, window in enumerate(small[:2]):
        tables.append((f"window-20k-{i}", window))
    return tables


def test_calibrate_matches_the_sequential_oracle_bitwise(sequential_corpus, nu_uniform,
                                                         monkeypatch):
    assert len(sequential_corpus) == 9
    for name, counts in sequential_corpus:
        live, live_steps = _traced_calibrate(counts, nu_uniform, monkeypatch, oracle=False)
        ref, ref_steps = _traced_calibrate(counts, nu_uniform, monkeypatch, oracle=True)
        assert live_steps == ref_steps, name
        for got, want in zip(live, ref):
            assert np.array_equal(got, want), name


def test_sequential_corpus_reaches_long_and_stalled_line_searches(sequential_corpus, nu_uniform,
                                                                  monkeypatch):
    # Halvings before each accepted backtracked step, and how many of those
    # steps left the objective no higher (stalled).
    halvings, stalled = [], 0
    backtrack = smooth._backtrack

    def recording(x, d, a, b, k, f, alphas, decrement):
        nonlocal stalled
        found = backtrack(x, d, a, b, k, f, alphas, decrement)
        if found is not None:
            halvings.append(int(np.flatnonzero((x + alphas[:, None] * d == found[0])
                                               .all(axis=1))[0]) + 1)
            stalled += found[2] <= f
        return found

    monkeypatch.setattr(smooth, "_backtrack", recording)
    for _, counts in sequential_corpus:
        calibrate(counts, nu_uniform, 2e-6)
    assert max(halvings) >= 30
    assert stalled >= 100


def _stacked_matches_one_candidate(a, b, k, xs):
    ss = smooth._stacked_slacks(a, b, xs)
    for x, s in zip(xs, ss):
        assert np.array_equal(s, a @ x + b)
    pos = np.abs(ss) + 0.5
    fs = smooth._stacked_objectives(k, pos)
    for s, f in zip(pos, fs):
        assert f == float(k @ np.log(s))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 48), n=st.integers(1, 20), count=st.integers(1, 63),
       key=st.integers(0, 2**32 - 1))
def test_stacked_products_equal_one_candidate_products(m, n, count, key):
    # np.matmul must run one gemv (and one dot) per stacked candidate, as
    # a @ x (and k @ log s) does for one; a gemm or numpy's own loop rounds
    # differently and would break the line search's bit identity.
    rng = np.random.Generator(np.random.Philox(key=key))
    _stacked_matches_one_candidate(rng.normal(size=(m, n)), rng.normal(size=m),
                                   rng.random(m) * 1e13 + 1.0, rng.normal(size=(count, n)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(2, 48), n=st.integers(2, 20), active=st.integers(1, 19),
       count=st.integers(1, 63), key=st.integers(0, 2**32 - 1))
@example(m=29, n=13, active=10, count=59, key=7)  # build_wlr's polish: 19 x 3
def test_stacked_products_equal_one_candidate_products_on_polish_rows(m, n, active, count, key):
    # The polish's reduced rows a[keep] @ nullb, built as maximize_log_affine
    # builds them from the rows it pins.
    assume(active < min(m, n))
    rng = np.random.Generator(np.random.Philox(key=key))
    a = rng.normal(size=(m, n))
    pinned = np.zeros(m, dtype=bool)
    pinned[rng.choice(m, size=active, replace=False)] = True
    _, sv, vt = np.linalg.svd(a[pinned], full_matrices=True)
    rank = int((sv > 1e-12 * max(1.0, sv[0])).sum())
    a_red = a[~pinned] @ vt[rank:].T
    rows, cols = a_red.shape
    _stacked_matches_one_candidate(a_red, rng.normal(size=rows), rng.random(rows) * 1e13 + 1.0,
                                   rng.normal(size=(count, cols)))


def _oracle_first_step(x, a, b, k):
    """The sequential oracle's first Newton step: x after it, the steps
    taken (0 or 1) and, per line-search trial, whether its slacks were all
    positive."""
    feasible = []

    def slacks(v):
        s = a @ v + b
        feasible.append(bool((s > 0).all()))
        return s

    x1, used = oracles._sequential_newton_loop(x, slacks, k, a, steps=1, tol=1e-12)
    return x1, used, feasible[1:]  # the first call is the slacks at x


_HALVING_ROWS = (  # a, b, k of a 6-row problem whose first step backtracks 10 times
    [[0.19, -0.52], [-0.41, -2.44], [1.8, 1.14], [-0.33, 0.77], [0.28, -0.55], [0.98, -0.31]],
    [0.93, 1.17, 0.92, 1.13, 1.47, 1.18],
    [3916248330800.0, 1872525697201.0, 3459606655717.0, 5110659735696.0, 8912094095006.0,
     7755639424727.0],
)

LINE_SEARCH_CASES = {
    # name: (x, a, b, k, steps the oracle takes, feasibility of its trials)
    "full-step": ([0.4], [[1.0], [-1.0]], [0.0, 1.0], [1.0, 1.0], 1, [True]),
    "ten-halvings": ([1.9725654004785989, -0.13053197426858804], *_HALVING_ROWS, 1, [True] * 11),
    # The full step rounds x onto the facet x = 1; half of it stops one ulp short.
    "positivity-only": ([1 - 2.0**-52], [[1.0], [-1.0]], [0.0, 1.0], [1e17, 1.0], 1,
                        [False, True]),
    # Every step below 1 ulp of x leaves the objective at exactly 0, under
    # the sufficient-increase target, down to alpha = 2^-59.
    "none-accepted": ([1.0], [[1.0], [0.0]], [-(1 - 2.0**-53), 2.0**53], [1.0, 1.0], 0,
                      [True] * 60),
    # The Hessian overflows (slacks 1e-160), so the decrement is NaN and the
    # loop steps along the gradient instead.
    "fallback-nonfinite": ([0.0, 0.0], [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
                           [1e-160, 1e-160, 1.0], [1.0, 1.0, 1.0], 1, [True]),
    # A zero gradient: the decrement is 0 along the Newton and the gradient step.
    "fallback-zero": ([0.0], [[1.0], [-1.0]], [1.0, 1.0], [1.0, 1.0], 0, []),
}


@pytest.mark.parametrize("case", LINE_SEARCH_CASES)
def test_line_search_stops_where_the_sequential_oracle_does(case, monkeypatch):
    x, a, b, k, used, feasible = LINE_SEARCH_CASES[case]
    x, a, b, k = (np.array(v, dtype=np.float64) for v in (x, a, b, k))
    stacked = []  # rows of each stacked product the live loop evaluates
    stacked_slacks = smooth._stacked_slacks

    def counting(a, b, xs):
        stacked.append(len(xs))
        return stacked_slacks(a, b, xs)

    monkeypatch.setattr(smooth, "_stacked_slacks", counting)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _oracle_first_step(x, a, b, k)[1:] == (used, feasible)
        if case.startswith("fallback"):
            s = a @ x + b
            g = (k / s) @ a
            h = (a * (k / s**2)[:, None]).T @ a
            decrement = g @ np.linalg.solve(h, g)
            assert not (np.isfinite(decrement) and decrement > 0)
        for steps in (1, 200):
            want = oracles._sequential_newton_loop(x, lambda v: a @ v + b, k, a, steps, 1e-12)
            got = smooth._newton_loop(x, a, b, k, steps, 1e-12)
            assert got[1] == want[1], steps
            assert np.array_equal(got[0], want[0]), steps
    if case == "none-accepted":  # every shorter step the oracle tried, and no more
        assert stacked == [len(feasible) - 1] * 2

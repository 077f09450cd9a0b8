import math

import numpy as np
import pytest

from diqpv.errors import DegenerateDataError
from diqpv.estimation import (
    ConditionalDistribution2,
    ConditionalDistribution3,
    cell_probabilities,
    ml_fit_quantum,
    regularize,
)
from diqpv.polytopes import chsh_values, lr_vertices, quantum_set
from diqpv.trialdata import CountsTable, unpack_codes

from golden import behavior_array, reference_counts_table
from helpers import matched_conditional, mismatch_mass, pr_box
from oracles import tsirelson_point


def test_golden_fit_matches_reference(golden_fit):
    assert np.abs(golden_fit.table - behavior_array()).max() <= 1e-6
    assert golden_fit.table.sum(axis=(2, 3)) == pytest.approx(1.0, abs=1e-12)
    assert quantum_set().contains(golden_fit.table, tol=1e-8)
    assert golden_fit.table[0, 0, 0, 0] == pytest.approx(0.9994906521, abs=1e-6)


def test_fit_is_count_scale_invariant(golden_counts, golden_fit):
    scaled = CountsTable(golden_counts.table * 17)
    refit = ml_fit_quantum(scaled)
    assert np.abs(refit.table - golden_fit.table).max() <= 1e-9


def test_fit_reproduces_interior_frequencies():
    interior = 0.7 * np.full((2, 2, 2, 2), 0.25) + 0.3 * lr_vertices()[5]
    fit = ml_fit_quantum(interior * 1e6)
    assert np.abs(fit.table - interior).max() <= 1e-9


def test_fit_lands_on_tsirelson_facet_for_pr_counts():
    fit = ml_fit_quantum(pr_box() * 4e5)
    assert np.abs(fit.table - tsirelson_point()).max() <= 1e-7
    assert chsh_values(fit.table).max() == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-7)


def test_fit_first_order_optimality(golden_counts, golden_fit):
    """No feasible direction from the fit increases the log-likelihood."""
    m = golden_counts.matched().astype(np.float64)
    w = (m / m.sum()).reshape(16)
    q = quantum_set()
    _, sv, vt = np.linalg.svd(q.a_eq)
    basis = vt[int((sv > 1e-12 * sv[0]).sum()):].T
    x0 = golden_fit.table.reshape(16)
    obj0 = float(w @ np.log(x0))
    rng = np.random.Generator(np.random.Philox(key=31))
    tested = 0
    for _ in range(200):
        u = rng.standard_normal(basis.shape[1])
        u /= np.linalg.norm(u)
        x = x0 + 1e-6 * (basis @ u)
        if not q.contains(x, tol=1e-9):
            continue
        tested += 1
        assert float(w @ np.log(x)) <= obj0 + 1e-10
    assert tested >= 20


def test_behavior_validation():
    with pytest.raises(ValueError):
        ConditionalDistribution2(np.full((2, 2, 2, 2), 0.3))
    signaling = np.zeros((2, 2, 2, 2))
    signaling[:, 0, 0, 0] = 1.0
    signaling[:, 1, 1, 1] = 1.0
    with pytest.raises(ValueError):
        ConditionalDistribution2(signaling)
    fit = ml_fit_quantum(reference_counts_table())
    assert fit.table[1, 0, 1, 0] == fit.table[1, 0, 1, 0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_behaviors_reject_non_finite_tables(bad):
    with pytest.raises(ValueError, match="finite"):
        ConditionalDistribution2(np.full((2, 2, 2, 2), bad))
    with pytest.raises(ValueError):
        ConditionalDistribution3(np.full((2, 2, 2, 2, 2), bad))
    one = regularize(ConditionalDistribution2(np.full((2, 2, 2, 2), 0.25)), 0.0).table.copy()
    one[1, 0, 1, 0, 0] = bad
    with pytest.raises(ValueError):
        ConditionalDistribution3(one)


def test_regularize_identity_and_mass(golden_fit):
    ident = regularize(golden_fit, 0.0)
    assert np.abs(mismatch_mass(ident.table)).max() == 0.0
    assert np.abs(matched_conditional(ident.table) - golden_fit.table).max() <= 1e-15

    d = 2e-6
    sigma3 = regularize(golden_fit, d)
    assert sigma3.table[0, 0, 0, 0, 1] == pytest.approx(d / 4.0, abs=1e-20)
    assert mismatch_mass(sigma3.table) == pytest.approx(d, abs=1e-18)
    assert sigma3.table.sum(axis=(2, 3, 4)) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(matched_conditional(sigma3.table) - golden_fit.table).max() <= 1e-12

    with pytest.raises(ValueError):
        regularize(golden_fit, 1.0)
    with pytest.raises(ValueError):
        regularize(golden_fit, -1e-9)


def test_distribution3_get_indexing(golden_sigma3):
    t = golden_sigma3.table
    assert golden_sigma3.table[0, 1, 1, 0, 0] == t[0, 1, 1, 0, 0]


def test_cell_probabilities_match_packed_code_order(golden_sigma3, nu_uniform):
    p = cell_probabilities(golden_sigma3, nu_uniform)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    flat = p.reshape(32)
    for code in (0, 1, 9, 21, 30, 31):
        mqa, oqa, mqp, zqa, zqb = unpack_codes(np.array([code], dtype=np.uint8))[0]
        expect = (nu_uniform.table[mqa - 1, mqp - 1]
                  * golden_sigma3.table[mqa - 1, mqp - 1, oqa - 1, zqa - 1, zqb - 1])
        assert flat[code] == pytest.approx(expect, abs=1e-18)


def test_degenerate_counts_rejected():
    empty = np.zeros((2, 2, 2, 2))
    empty[0, 0, 0, 0] = 10.0  # settings (1,1) only
    with pytest.raises(DegenerateDataError):
        ml_fit_quantum(empty)

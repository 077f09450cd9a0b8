import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diqpv.polytopes
from diqpv.errors import CertificationError, LpStructureError
from diqpv.estimation import ml_fit_quantum
from diqpv.polytopes import (
    CHSH_SIGNS,
    TSIRELSON,
    HPolytope,
    chsh_values,
    lr_vertices,
    max_linear,
    max_shift_within,
    ns3_polytope,
    quantum_set,
)
from diqpv.polytopes import _dual_bound
from diqpv.testfactor import _expected_factor_objective, build_wlr, certified_factor, lambda_max
from diqpv.trialdata import CountsTable

from helpers import (
    chsh_row,
    ns_polytope2,
    pr_box,
    prover_swap,
    two_party_marginal,
    uniform_ns3,
)
from oracles import (
    chsh_oracle,
    dual_bound_fraction,
    lr_distance,
    lr_member_oracle,
    lr_vertex_catalog,
    max_linear_highs,
    ns2_vertex_catalog,
)


def test_constraint_ranks():
    ns3 = ns3_polytope()
    assert ns3.a_eq.shape == (56, 64)
    assert np.linalg.matrix_rank(ns3.a_eq) == 38
    ns2 = ns_polytope2()
    assert ns2.a_eq.shape == (12, 16)
    assert np.linalg.matrix_rank(ns2.a_eq) == 8


def test_uniform_points_feasible():
    assert ns3_polytope().contains(uniform_ns3())
    uniform2 = np.full((2, 2, 2, 2), 0.25)
    assert ns_polytope2().contains(uniform2)
    assert quantum_set().contains(uniform2)


def test_signaling_behavior_rejected():
    # Verifier outcome marginal depends on the prover setting.
    sigma = np.zeros((2, 2, 2, 2))
    sigma[:, 0, 0, 0] = 1.0
    sigma[:, 1, 1, 0] = 1.0
    assert not ns_polytope2().contains(sigma)
    # Second station's output tracks the verifier setting it cannot see.
    mu = np.zeros((2, 2, 2, 2, 2, 2))
    mu[0, :, :, 0, 0, 0] = 1.0
    mu[1, :, :, 0, 0, 1] = 1.0
    assert not ns3_polytope().contains(mu)


def test_chsh_sign_patterns():
    assert CHSH_SIGNS.shape == (8, 4)
    assert np.all(np.prod(CHSH_SIGNS, axis=1) == -1.0)
    assert len({tuple(s) for s in CHSH_SIGNS.astype(int)}) == 8


def test_chsh_values_against_oracle(rng):
    for _ in range(25):
        sigma = rng.random((2, 2, 2, 2))
        vals = chsh_values(sigma)
        assert vals.shape == (8,)
        assert abs(vals.max() - chsh_oracle(sigma)) <= 1e-12 or abs(
            -vals.min() - chsh_oracle(sigma)
        ) <= 1e-12
        assert np.abs(vals).max() == pytest.approx(chsh_oracle(sigma), abs=1e-12)


def test_chsh_maxima_over_polytopes():
    ns2 = ns_polytope2()
    q = quantum_set()
    for signs in CHSH_SIGNS:
        row = chsh_row(signs)
        val_ns, arg, _ = max_linear(row, ns2)
        assert val_ns == pytest.approx(4.0, abs=1e-8)
        assert ns2.contains(arg, tol=1e-7)
        val_q, _, _ = max_linear(row, q)
        assert val_q == pytest.approx(TSIRELSON, abs=1e-8)
    # The deterministic hull caps every combination at 2.
    verts = lr_vertices().reshape(16, 16)
    for signs in CHSH_SIGNS:
        assert (verts @ chsh_row(signs)).max() == pytest.approx(2.0, abs=1e-12)


def test_lr_vertices_match_catalog():
    ours = {tuple(v.reshape(16).astype(int)) for v in lr_vertices()}
    oracle = {tuple(v.reshape(16).astype(int)) for v in lr_vertex_catalog()}
    assert ours == oracle
    v0 = lr_vertices()[0]
    assert v0[0, 0, 0, 0] == 1.0 and v0[1, 1, 0, 0] == 1.0  # constant-1


def test_lr_vertices_inside_quantum_set():
    q = quantum_set()
    for v in lr_vertices():
        assert q.contains(v)
        assert lr_distance(v) <= 1e-9
        assert lr_member_oracle(v)


def test_ns2_vertex_catalog_consistency():
    ns2 = ns_polytope2()
    q = quantum_set()
    for i, v in enumerate(ns2_vertex_catalog()):
        assert ns2.contains(v)
        if i < 16:
            assert q.contains(v)
        else:
            assert chsh_oracle(v) == pytest.approx(4.0, abs=1e-12)
            assert not q.contains(v)
            assert not lr_member_oracle(v)


def test_pr_box_variants():
    seen = set()
    for alpha in range(2):
        for beta in range(2):
            for gamma in range(2):
                box = pr_box(alpha, beta, gamma)
                assert box.sum(axis=(2, 3)) == pytest.approx(1.0)
                assert chsh_oracle(box) == pytest.approx(4.0)
                assert lr_distance(box) > 0.1
                seen.add(tuple(box.reshape(16)))
    assert len(seen) == 8
    default = pr_box()
    assert chsh_values(default).max() == pytest.approx(4.0)


def test_lr_distance_agrees_with_oracle(rng):
    verts = lr_vertex_catalog().reshape(16, 16)
    for _ in range(10):
        w = rng.dirichlet(np.ones(16))
        mix = (w @ verts).reshape(2, 2, 2, 2)
        assert lr_distance(mix) <= 1e-9
        assert lr_member_oracle(mix)
    # Points strictly outside have positive distance both ways.
    box = pr_box()
    mixed = 0.8 * box + 0.2 * np.full((2, 2, 2, 2), 0.25)
    assert chsh_oracle(mixed) > 2.0
    assert lr_distance(mixed) > 1e-4
    assert not lr_member_oracle(mixed)


def test_max_linear_validates_and_verifies(rng):
    ns2 = ns_polytope2()
    with pytest.raises(ValueError):
        max_linear(np.ones(7), ns2)
    c = rng.standard_normal(16)
    val, arg, _ = max_linear(c, ns2)
    assert ns2.contains(arg, tol=1e-7)
    assert c @ arg == pytest.approx(val, abs=1e-8)
    # LP max over ns2 equals max over the known vertex catalog.
    cat = ns2_vertex_catalog().reshape(24, 16)
    assert val == pytest.approx((cat @ c).max(), abs=1e-8)


def _exact_fractions(tf):
    num, den = _expected_factor_objective(tf.matched, tf.mismatch, tf.nu)
    return np.array([Fraction(v, den) for v in num], dtype=object)


def test_max_linear_bound_is_valid(golden_counts, golden_factor, nu_uniform):
    """The returned bound is proven and tight: c . x <= bound <= c . x + 1e-12
    at the returned maximizer x, on factor objectives, random objectives and
    the eight CHSH rows over the capped quantum set (inequality duals)."""
    ns3, quantum = ns3_polytope(), quantum_set()
    factors = [golden_factor]
    rng = np.random.Generator(np.random.Philox(key=1105))
    for _ in range(10):
        jitter = np.exp(rng.normal(0.0, 0.05, size=golden_counts.table.shape))
        pert = CountsTable(rng.poisson(golden_counts.table * jitter).astype(np.float64))
        wlr = build_wlr(ml_fit_quantum(pert), nu_uniform)
        lam, duals = lambda_max(wlr.table, nu_uniform)
        factors.append(certified_factor(wlr.table, lam, nu_uniform, duals))
    cases = [(ns3, _exact_fractions(tf)) for tf in factors]
    cases += [(ns3, rng.standard_normal(64)) for _ in range(20)]
    cases += [(quantum, chsh_row(signs)) for signs in CHSH_SIGNS]

    for poly, c in cases:
        bound, x, duals = max_linear(c, poly)
        value = float(c @ x)
        assert value <= bound <= value + 1e-12
        assert _dual_bound(c, poly, duals) == bound
        # Weak duality holds for any duals, not just the optimal ones
        # (negative inequality duals are clipped to 0).
        assert _dual_bound(c, poly, duals + rng.normal(0.0, 1e-3, duals.size)) >= value

    # Zero duals leave only the box duals: sum max(0, c_j), rounded up.
    for c in (c for poly, c in cases if poly is ns3):
        exact = sum(Fraction(v) for v in c.tolist() if v > 0)
        bound = _dual_bound(c, ns3, np.zeros(56))
        assert Fraction(bound) >= exact > Fraction(math.nextafter(bound, -math.inf))
    dyadic = rng.integers(-8, 9, 64) / 8.0
    assert _dual_bound(dyadic, ns3, np.zeros(56)) == dyadic.clip(0.0).sum()
    with pytest.raises(ValueError):  # a dropped column would drop its repair term
        _dual_bound(dyadic[:-1], ns3, np.zeros(56))
    with pytest.raises(ValueError):
        _dual_bound(dyadic, ns3, np.zeros(55))


# Objective entries and duals: zeros, moderate values, and signed
# subnormal and 1e300-scale magnitudes.
_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(-4.0, 4.0),
    st.builds(
        operator.mul,
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([5e-324, 2.5e-310, 1e-300, 1e300, 2.5e300]),
    ),
)
_POLYTOPES = {"ns3": ns3_polytope(), "quantum": quantum_set()}


@given(name=st.sampled_from(sorted(_POLYTOPES)), data=st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_dual_bound_matches_fraction_oracle(name, data):
    # quantum_set has 8 inequality rows (their negative duals are clipped)
    # and the non-integer right-hand side 2 sqrt 2.
    poly = _POLYTOPES[name]
    rows = poly.b_eq.size + poly.b_ub.size
    c = data.draw(st.lists(_ENTRIES, min_size=poly.dim, max_size=poly.dim))
    duals = data.draw(st.lists(_ENTRIES, min_size=rows, max_size=rows))
    assert _dual_bound(c, poly, duals).hex() == dual_bound_fraction(c, poly, duals).hex()
    fractions = np.array([Fraction(v) for v in c], dtype=object)
    assert _dual_bound(fractions, poly, duals) == _dual_bound(c, poly, duals)


def test_integer_objectives_stay_exact():
    # numpy reads a list of ints at or past 2^63 as float64, which would
    # round 2^63 + 1 to 2^63 and put the bound below the maximum.
    ns3 = ns3_polytope()
    for c in ([2**63 + 1] + [0] * 63, [2**64 - 1, 5] + [0] * 62):
        exact = [Fraction(v, 2**63) for v in c]
        bound = _dual_bound(c, ns3, np.zeros(56), 2**63)
        assert bound.hex() == dual_bound_fraction(exact, ns3, np.zeros(56)).hex()
        assert Fraction(bound) >= sum(exact) > 1
        assert max_linear(c, ns3, 2**63)[0] == max_linear(np.array(exact), ns3)[0]


def test_dual_bound_past_float_range_is_infinite():
    ns3 = ns3_polytope()
    duals = np.where(ns3.b_eq == 1.0, 1e308, 0.0)
    assert _dual_bound(np.ones(64), ns3, duals) == math.inf


def test_dual_bound_rejects_non_finite_values():
    ns3 = ns3_polytope()
    for bad in (math.inf, -math.inf, math.nan):
        duals = np.zeros(56)
        duals[7] = bad
        with pytest.raises(CertificationError):
            _dual_bound(np.ones(64), ns3, duals)
        c = np.ones(64)
        c[9] = bad
        with pytest.raises(CertificationError):
            _dual_bound(c, ns3, np.zeros(56))


def test_prover_swap_involution(rng):
    mu = rng.random((2, 2, 2, 2, 2, 2))
    assert np.array_equal(prover_swap(prover_swap(mu)), mu)
    assert np.array_equal(prover_swap(uniform_ns3()), uniform_ns3())


def test_two_party_marginal_independent_of_bp():
    ns3 = ns3_polytope()
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(10):
        c = rng.standard_normal(64)
        _, mu, _ = max_linear(c, ns3)
        m0 = two_party_marginal(mu, bp=0)
        m1 = two_party_marginal(mu, bp=1)
        assert np.abs(m0 - m1).max() <= 1e-7
        assert m0.sum(axis=(2, 3)) == pytest.approx(1.0, abs=1e-7)


def test_symmetric_extensions_have_local_marginals():
    """Behaviors the verifier shares with two no-signaling stations have a
    local marginal with either station once symmetrized; checked on vertex
    draws and on random mixtures of the no-signaling polytope."""
    ns3 = ns3_polytope()
    rng = np.random.Generator(np.random.Philox(key=5))
    points = []
    for _ in range(60):
        c = rng.standard_normal(64)
        _, mu, _ = max_linear(c, ns3)
        points.append(mu.reshape(2, 2, 2, 2, 2, 2))
    for _ in range(40):
        w = rng.dirichlet(np.ones(12))
        idx = rng.integers(0, len(points), size=12)
        points.append(np.tensordot(w, np.array([points[i] for i in idx]), axes=1))
    assert len(points) == 100
    for mu in points:
        sym = 0.5 * (mu + prover_swap(mu))
        marg = two_party_marginal(sym, bp=0)
        assert lr_member_oracle(marg, tol=1e-6), "symmetrized marginal left the local hull"


def test_max_linear_detects_infeasible():
    bad = ns_polytope2()
    poly = type(bad)(
        name="infeasible",
        dim=16,
        a_eq=np.vstack([bad.a_eq, np.zeros(16)]),
        b_eq=np.concatenate([bad.b_eq, [1.0]]),
        a_ub=bad.a_ub,
        b_ub=bad.b_ub,
    )
    with pytest.raises(LpStructureError):
        max_linear(np.ones(16), poly)


def test_phase_one_drops_redundant_rows_and_their_duals():
    ns3 = ns3_polytope()
    _, basis, rows, _, _ = ns3.simplex_start
    assert rows.size == basis.size == 38  # the rank of the 56 equalities
    c = np.random.Generator(np.random.Philox(key=9)).standard_normal(64)
    bound, x, duals = max_linear(c, ns3)
    dropped = np.setdiff1d(np.arange(56), rows)
    assert np.all(duals[dropped] == 0.0)
    x_h, _ = max_linear_highs(c, ns3)
    assert abs(bound - c @ x_h) <= 1e-12 and abs(c @ x - c @ x_h) <= 1e-12


def _square(a_eq, b_eq, a_ub, b_ub) -> HPolytope:
    return HPolytope(
        "square", 2, np.reshape(a_eq, (-1, 2)).astype(float), np.array(b_eq, dtype=float),
        np.reshape(a_ub, (-1, 2)).astype(float), np.array(b_ub, dtype=float),
    )


def test_simplex_adds_box_rows_no_normalization_row_implies():
    # No equality row bounds x, so both box rows x_j <= 1 enter the program.
    cut = _square([], [], [[1.0, 1.0]], [1.5])
    # Rows: the cut and two box rows; columns: x, then a slack per row.
    assert cut.simplex_start[3].shape == (3, 5)
    assert max_linear([1.0, -1.0], cut)[0] == 1.0
    assert max_linear([1.0, 1.0], cut)[0] == 1.5
    # x1 + x2 = 1 written with a negative right-hand side: rows are signed
    # for phase I and the dual is mapped back to the row as given.
    line = _square([[-1.0, -1.0]], [-1.0], [], [])
    bound, x, duals = max_linear([2.0, 1.0], line)
    assert bound == 2.0 and np.array_equal(x, [1.0, 0.0])
    assert _dual_bound([2.0, 1.0], line, duals) == 2.0


def test_max_shift_within_on_a_square():
    # f(t) = max x1 + t x2 over the cut square is 1 + t / 2 up to t = 1,
    # then 1 / 2 + t.
    cut = _square([], [], [[1.0, 1.0]], [1.5])
    t, duals = max_shift_within([1.0, 0.0], [0.0, 1.0], cut, bound=1.25, t_max=10.0)
    assert t == 0.5 and _dual_bound([1.0, 0.5], cut, duals) == 1.25
    # Admissible at the start t = 1: then t_max, or Newton steps down from it.
    assert max_shift_within([1.0, 0.0], [0.0, 1.0], cut, bound=100.0, t_max=3.0)[0] == 3.0
    t, duals = max_shift_within([1.0, 0.0], [0.0, 1.0], cut, bound=2.0, t_max=3.0)
    assert t == 1.5 and _dual_bound([1.0, 1.5], cut, duals) == 2.0
    assert max_shift_within([1.0, 0.0], [0.0, 1.0], cut, bound=0.5, t_max=3.0) is None
    with pytest.raises(ValueError, match="nonnegative"):
        max_shift_within([1.0, 0.0], [0.0, -1.0], cut, bound=1.0, t_max=1.0)


def test_simplex_raises_past_its_pivot_cap(monkeypatch):
    ns3 = ns3_polytope()
    c = np.random.Generator(np.random.Philox(key=7)).standard_normal(64)
    assert ns3.simplex_start is not None  # phase I under the full cap
    monkeypatch.setattr(diqpv.polytopes, "_PIVOT_CAP", 2)
    with pytest.raises(LpStructureError, match="cap"):
        max_linear(c, ns3)
    with pytest.raises(LpStructureError, match="cap"):
        ns3_polytope().simplex_start  # phase I is capped as well

import numpy as np
import pytest

from diqpv.errors import LpStructureError
from diqpv.polytopes import (
    CHSH_SIGNS,
    TSIRELSON,
    chsh_row,
    chsh_values,
    lr_distance,
    lr_vertices,
    max_linear,
    ns3_polytope,
    ns_polytope2,
    pr_box,
    prover_swap,
    quantum_set,
    two_party_marginal,
    uniform_ns3,
)

from oracles import chsh_oracle, lr_member_oracle, lr_vertex_catalog, ns2_vertex_catalog


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
        val_ns, arg = max_linear(row, ns2)
        assert val_ns == pytest.approx(4.0, abs=1e-8)
        assert ns2.contains(arg, tol=1e-7)
        val_q, _ = max_linear(row, q)
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
    val, arg = max_linear(c, ns2)
    assert ns2.contains(arg, tol=1e-7)
    assert c @ arg == pytest.approx(val, abs=1e-8)
    # LP max over ns2 equals max over the known vertex catalog.
    cat = ns2_vertex_catalog().reshape(24, 16)
    assert val == pytest.approx((cat @ c).max(), abs=1e-8)


def test_prover_swap_involution(rng):
    mu = rng.random((2, 2, 2, 2, 2, 2))
    assert np.array_equal(prover_swap(prover_swap(mu)), mu)
    assert np.array_equal(prover_swap(uniform_ns3()), uniform_ns3())


def test_two_party_marginal_independent_of_bp():
    ns3 = ns3_polytope()
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(10):
        c = rng.standard_normal(64)
        _, mu = max_linear(c, ns3, verify=False)
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
        _, mu = max_linear(c, ns3, verify=False)
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

"""Independent oracles the tests trust.

Everything here is written from first principles against the package:
explicit two-qubit projectors instead of amplitude shortcuts, exhaustive
vertex catalogs instead of H-representations, bisection over the primal
certification LP instead of its dual, compensated summation by the
textbook per-term recurrence, closed-form lengths instead of Monte
Carlo.  Tests freeze these as the definition of correct.
"""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


# Two-qubit Born-rule model via explicit projectors


def born_matched_oracle(amp_a, amp_b, angles_a_deg, angles_p_deg,
                        eta_a, eta_p, dark, p_pair):
    """Matched detection behavior p[ma, mp, oa, op], outcome 1 = no click.

    State a|HH> + b|VV>; polarizer at angle t passes |t> = cos t |H> +
    sin t |V>; a detector clicks when its photon passes and is detected
    (efficiency eta), a pair exists (probability p_pair), or by a dark
    count, all OR-ed.
    """
    psi = np.array([amp_a, 0.0, 0.0, amp_b], dtype=np.float64)
    eye = np.eye(2)
    out = np.zeros((2, 2, 2, 2))
    for ia, alpha in enumerate(np.deg2rad(angles_a_deg)):
        for ip, beta in enumerate(np.deg2rad(angles_p_deg)):
            va = np.array([math.cos(alpha), math.sin(alpha)])
            vp = np.array([math.cos(beta), math.sin(beta)])
            pa, pp = np.outer(va, va), np.outer(vp, vp)
            joint = psi @ np.kron(pa, pp) @ psi
            marg_a = psi @ np.kron(pa, eye) @ psi
            marg_p = psi @ np.kron(eye, pp) @ psi
            t11 = p_pair * eta_a * eta_p * joint
            t10 = p_pair * eta_a * marg_a - t11
            t01 = p_pair * eta_p * marg_p - t11
            t00 = 1.0 - t11 - t10 - t01
            # OR in independent dark counts; index 0 = no click.
            p11 = t11 + t10 * dark + t01 * dark + t00 * dark * dark
            p10 = t10 * (1 - dark) + t00 * dark * (1 - dark)
            p01 = t01 * (1 - dark) + t00 * (1 - dark) * dark
            p00 = t00 * (1 - dark) * (1 - dark)
            out[ia, ip, 0, 0] = p00
            out[ia, ip, 0, 1] = p01
            out[ia, ip, 1, 0] = p10
            out[ia, ip, 1, 1] = p11
    return out


# Vertex catalogs of the two-party polytopes (binary settings/outcomes)


def lr_vertex_catalog():
    """All 16 deterministic behaviors as arrays v[ma, mp, oa, op]."""
    verts = []
    for fa in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for fp in ((0, 0), (0, 1), (1, 0), (1, 1)):
            v = np.zeros((2, 2, 2, 2))
            for x in range(2):
                for y in range(2):
                    v[x, y, fa[x], fp[y]] = 1.0
            verts.append(v)
    return np.array(verts)


def ns2_vertex_catalog():
    """All 24 vertices of the two-party no-signaling polytope: the 16
    deterministic ones plus the 8 PR-box variants a + b = xy + ax + by + g
    (mod 2) with uniform marginals."""
    verts = list(lr_vertex_catalog())
    for a_ in range(2):
        for b_ in range(2):
            for g in range(2):
                v = np.zeros((2, 2, 2, 2))
                for x in range(2):
                    for y in range(2):
                        target = (x * y + a_ * x + b_ * y + g) % 2
                        for oa in range(2):
                            v[x, y, oa, (oa + target) % 2] = 0.5
                verts.append(v)
    return np.array(verts)


def chsh_oracle(sigma):
    """Max |CHSH| correlator combination of sigma[ma, mp, oa, op]."""
    corr = np.zeros((2, 2))
    for x in range(2):
        for y in range(2):
            block = sigma[x, y]
            corr[x, y] = block[0, 0] - block[0, 1] - block[1, 0] + block[1, 1]
    best = 0.0
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                combos = (
                    sx * corr[0, 0] + sy * corr[0, 1] + sz * corr[1, 0]
                    - sx * sy * sz * corr[1, 1]
                )
                best = max(best, abs(combos))
    return best


def lr_member_oracle(sigma, tol=1e-8):
    """LR membership by direct LP over the deterministic vertex catalog."""
    from scipy.optimize import linprog

    verts = lr_vertex_catalog().reshape(16, 16)
    a_eq = np.vstack([verts.T, np.ones(16)])
    b_eq = np.concatenate([np.asarray(sigma, dtype=np.float64).reshape(16), [1.0]])
    res = linprog(np.zeros(16), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * 16, method="highs")
    if res.status == 2:
        return False
    if not res.success:
        raise RuntimeError(f"membership LP failed: {res.message}")
    return float(np.abs(a_eq @ res.x - b_eq).max()) <= tol


# Analytic factor at the ideal CHSH point


def tsirelson_point():
    """sigma[ma, mp, oa, op] of the maximal-CHSH quantum behavior: the
    winning cells (oa + op = ma mp over {0,1} labels) carry (2+sqrt 2)/8."""
    win, lose = (2.0 + SQRT2) / 8.0, (2.0 - SQRT2) / 8.0
    out = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for oa in range(2):
                for op in range(2):
                    out[x, y, oa, op] = win if (oa + op) % 2 == x * y else lose
    return out


def tsirelson_factor_oracle():
    """Optimal rejection factor at the ideal point under uniform settings.

    With win probability p = (2+sqrt 2)/4 the optimal factor takes
    4p/3 on winning cells and 4(1-p) on losing cells (the binding
    deterministic strategy wins three of four settings); returns
    (w_table[ma, mp, oa, op], gain in nats).
    """
    p = (2.0 + SQRT2) / 4.0
    w_win, w_lose = 4.0 * p / 3.0, 4.0 * (1.0 - p)
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for oa in range(2):
                for op in range(2):
                    table[x, y, oa, op] = w_win if (oa + op) % 2 == x * y else w_lose
    gain = p * math.log(w_win) + (1.0 - p) * math.log(w_lose)
    return table, gain


# Mismatch constant by bisection over the primal certification LP


def lambda_max_bisection(table, nu, tol=1e-9):
    """Largest lambda with adversarial expectation <= 1, by bisection.

    The expectation is nondecreasing in lambda and at least lambda itself
    (an all-mismatch behavior is allowed), so [0, 10] brackets the root;
    bisection runs to absolute tolerance tol with one certify LP per step.
    A table polished onto a strategy facet makes the LP read 1 plus a few
    ulp, so the comparison carries a 1e-9 slack.  The result is capped
    at 1, which the all-mismatch behavior makes the true ceiling.
    """
    from diqpv.errors import CertificationError
    from diqpv.testfactor import certify
    from diqpv.trialdata import settings_weights

    matched = np.asarray(table, dtype=np.float64)
    nu = settings_weights(nu)

    def exceeds(lam):
        value, _ = certify(matched, lam, nu)
        return value > 1.0 + 1e-9

    lo, hi = 0.0, 10.0
    if exceeds(lo):
        raise CertificationError(
            "matched factor alone is not certifiable; no valid mismatch constant"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return min(lo, 1.0)


# Compensated summation, textbook recurrence


def kahan_sum(values):
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# Closed-form target-region lengths on the station axis


def interval_1d(lo_parts, hi_parts):
    lo, hi = max(lo_parts), min(hi_parts)
    return (lo, hi) if hi > lo else (0.0, 0.0)


def quantum_interval_oracle(ra, rb, m_ab, m_ba, d):
    cap = min(m_ab, m_ba)
    return interval_1d((-ra, d - rb, (d - cap) / 2.0),
                       (ra, d + rb, (d + cap) / 2.0))


def lens_a_interval_oracle(ra, m_ba, d):
    return interval_1d((-ra, (d - m_ba) / 2.0), (ra, (d + m_ba) / 2.0))


def lens_b_interval_oracle(rb, m_ab, d):
    return interval_1d((d - rb, (d - m_ab) / 2.0), (d + rb, (d + m_ab) / 2.0))


def sphere_volume(radius):
    return 4.0 / 3.0 * math.pi * radius**3


def direct_3d_volume(pred, spec, x_range, rho_max, samples, seed):
    """Plain 3D Monte Carlo volume of a region predicate (la, lb) test."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.uniform(x_range[0], x_range[1], samples)
    y = rng.uniform(-rho_max, rho_max, samples)
    z = rng.uniform(-rho_max, rho_max, samples)
    la = np.sqrt(x**2 + y**2 + z**2)
    lb = np.sqrt((x - spec.d_sep) ** 2 + y**2 + z**2)
    hits = pred(la, lb, spec)
    box = (x_range[1] - x_range[0]) * (2.0 * rho_max) ** 2
    frac = hits.mean()
    err = box * math.sqrt(max(frac * (1 - frac), 0.0) / samples)
    return box * frac, err

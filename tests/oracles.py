"""Independent oracles the tests trust.

Everything here is written from first principles against the package:
explicit two-qubit projectors instead of amplitude shortcuts, exhaustive
vertex catalogs instead of H-representations, bisection over the primal
certification LP instead of its dual, compensated summation by the
textbook per-term recurrence, and dense axis scans and Monte Carlo
sampling of the defining inequalities instead of closed-form region
sizes.  Tests freeze these as the definition of correct.
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


def lr_distance(sigma):
    """Sup-norm distance from sigma to the local deterministic hull, by LP.

    Variables are the 16 vertex weights and the distance t; the reference
    for the package's local test (Fine's criterion on the CHSH values).
    """
    from scipy.optimize import linprog

    target = np.asarray(sigma, dtype=np.float64).reshape(16)
    verts = lr_vertex_catalog().reshape(16, 16)
    a_ub = np.zeros((32, 17))
    a_ub[:16, :16] = verts.T
    a_ub[16:, :16] = -verts.T
    a_ub[:, 16] = -1.0
    b_ub = np.concatenate([target, -target])
    a_eq = np.concatenate([np.ones(16), [0.0]])[None, :]
    c = np.zeros(17)
    c[16] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * 17, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"lr distance LP failed: {res.message}")
    return float(res.fun)


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
        return certify(matched, lam, nu)[0] > 1.0 + 1e-9

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


# Target regions: membership by the defining inequalities, sized by dense
# axis scans and Monte Carlo


REGION_TESTS = {
    "quantum": lambda la, lb, s: (la <= s.radius_a) & (lb <= s.radius_b)
    & (la + lb <= min(s.ellipse_ab, s.ellipse_ba)),
    "lens_a": lambda la, lb, s: (la <= s.radius_a) & (la + lb <= s.ellipse_ba),
    "lens_b": lambda la, lb, s: (lb <= s.radius_b) & (la + lb <= s.ellipse_ab),
}
REGION_TESTS["classical"] = lambda la, lb, s: (
    REGION_TESTS["lens_a"](la, lb, s) | REGION_TESTS["lens_b"](la, lb, s))


def axis_scan(region, spec, samples=400_001):
    """First and last point of a uniform station-axis grid inside a region,
    and the grid step: (first, last, step), first = last = None when no grid
    point is inside."""
    reach = max(spec.radius_a, spec.radius_b, spec.ellipse_ab, spec.ellipse_ba)
    x, step = np.linspace(-reach - 1.0, spec.d_sep + reach + 1.0, samples, retstep=True)
    inside = np.nonzero(REGION_TESTS[region](np.abs(x), np.abs(x - spec.d_sep), spec))[0]
    if inside.size == 0:
        return None, None, float(step)
    return float(x[inside[0]]), float(x[inside[-1]]), float(step)


def _ellipse_halfwidth(total, d):
    """Transverse half-width of {l_A + l_B <= total}; 0 if degenerate."""
    if total <= d:
        return 0.0
    return math.sqrt((total / 2.0) ** 2 - (d / 2.0) ** 2)


def _mc_box(region, spec, pad=0.01):
    """Bounding (x_lo, x_hi, rho_max) from the defining inequalities."""
    ra, rb, d = spec.radius_a, spec.radius_b, spec.d_sep
    if region == "quantum":
        cap = min(spec.ellipse_ab, spec.ellipse_ba)
        lo = max(-ra, d - rb, (d - cap) / 2.0)
        hi = min(ra, d + rb, (d + cap) / 2.0)
        rho = min(ra, rb, _ellipse_halfwidth(cap, d))
    elif region == "lens_a":
        lo = max(-ra, (d - spec.ellipse_ba) / 2.0)
        hi = min(ra, (d + spec.ellipse_ba) / 2.0)
        rho = min(ra, _ellipse_halfwidth(spec.ellipse_ba, d))
    elif region == "lens_b":
        lo = max(d - rb, (d - spec.ellipse_ab) / 2.0)
        hi = min(d + rb, (d + spec.ellipse_ab) / 2.0)
        rho = min(rb, _ellipse_halfwidth(spec.ellipse_ab, d))
    else:
        a = _mc_box("lens_a", spec, 0.0)
        b = _mc_box("lens_b", spec, 0.0)
        lo, hi, rho = min(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2])
    if hi <= lo or rho < 0:
        return 0.0, 0.0, 0.0
    span = hi - lo
    return lo - pad * span, hi + pad * span, rho * (1.0 + pad)


def region_size_mc(region, spec, dim, mc_samples=1_000_000, seed=1):
    """Monte Carlo size (length/area/volume) of a region with its 1-sigma.

    Samples the region's own bounding box; 3D integrates over (x, rho)
    with weight 2 pi rho.  Returns (size, standard error); an empty box
    gives (0, 0) and a box with no hits reports the rule-of-three bound.
    """
    pred = REGION_TESTS[region]
    xlo, xhi, rho_max = _mc_box(region, spec)
    if xhi <= xlo:
        return 0.0, 0.0
    if dim == 1:
        measure = xhi - xlo
    elif dim == 2:
        measure = (xhi - xlo) * 2.0 * rho_max
    else:
        measure = (xhi - xlo) * rho_max  # (x, rho) box; weights carry 2 pi rho
    if measure <= 0:
        return 0.0, 0.0

    def shard(key, count):
        rng = np.random.Generator(np.random.Philox(key=key))
        x = rng.uniform(xlo, xhi, count)
        if dim == 1:
            vals = pred(np.abs(x), np.abs(x - spec.d_sep), spec).astype(np.float64)
        elif dim == 2:
            y = rng.uniform(-rho_max, rho_max, count)
            la = np.hypot(x, y)
            lb = np.hypot(x - spec.d_sep, y)
            vals = pred(la, lb, spec).astype(np.float64)
        else:
            rho = rng.uniform(0.0, rho_max, count)
            la = np.hypot(x, rho)
            lb = np.hypot(x - spec.d_sep, rho)
            vals = pred(la, lb, spec) * (2.0 * math.pi * rho)
        return float(vals.sum()), float((vals**2).sum())

    n_shards = max(1, min(64, mc_samples // 250_000))
    counts = [mc_samples // n_shards] * n_shards
    counts[0] += mc_samples - sum(counts)
    parts = [shard((seed << 16) | i, c) for i, c in enumerate(counts)]
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    n = float(mc_samples)
    mean = s1 / n
    var = max(s2 / n - mean**2, 0.0)
    size = measure * mean
    if s1 == 0.0:
        bound = measure * (3.0 / n) * (2.0 * math.pi * rho_max if dim == 3 else 1.0)
        return 0.0, bound
    return size, measure * math.sqrt(var / n)


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

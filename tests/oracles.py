"""Independent oracles the tests trust.

Everything here is written from first principles against the package:
explicit two-qubit projectors instead of amplitude shortcuts, exhaustive
vertex catalogs instead of H-representations, bisection over the primal
certification LP instead of its dual, compensated summation by the
textbook per-term recurrence, and dense axis scans and Monte Carlo
sampling of the defining inequalities instead of closed-form region
sizes, a barrier solver that keeps stepping to its caps instead of
stopping when a step leaves x unchanged, and float draws looked up in the
cell CDF instead of integer thresholds and a bucket table, the weak-duality
bound summed in fractions.Fraction instead of integers over one common
denominator, scipy's HiGHS dual simplex instead of the package's own
tableau simplex, one closed-form sizing pass per region and dimension
instead of one pass for all three, a barrier line search that tries one
step length at a time instead of all of them in one stacked product, the
achievable-rate grid in one piece instead of in blocks of rows, and every
parameter draw sized in one pass instead of in blocks of draws.  Tests
freeze these as the definition of correct.
"""

import math
from fractions import Fraction

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


# The package's LPs solved by HiGHS


_HIGHS_TIGHT = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def max_linear_highs(c, poly):
    """Maximize c . x over poly by HiGHS's dual simplex; returns (maximizer, row duals)."""
    from scipy.optimize import linprog

    res = linprog(
        -np.asarray(c, dtype=np.float64), A_ub=poly.a_ub, b_ub=poly.b_ub,
        A_eq=poly.a_eq, b_eq=poly.b_eq, bounds=(0.0, 1.0), method="highs-ds",
        options=_HIGHS_TIGHT,
    )
    if res.status != 0:
        raise RuntimeError(f"{poly.name}: LP status {res.status} ({res.message})")
    # linprog minimizes -c . x, so its marginals are the negated duals.
    return res.x, -np.concatenate([res.eqlin.marginals, res.ineqlin.marginals])


def max_shift_within_highs(c0, c1, poly, bound, t_max):
    """Largest t in [0, t_max] with max over poly of (c0 + t c1) . x <= bound,
    as one HiGHS LP over the dual of that maximum: a dual point (y, z, u)
    with A_eq^T y + A_ub^T z + u >= c0 + t c1, z >= 0, u >= 0 bounds the
    maximum by b_eq . y + b_ub . z + sum u, and the LP maximizes t over
    (t, y, z, u) jointly.  Returns (t, row duals (y, z)) or None."""
    from scipy.optimize import linprog

    c0 = np.asarray(c0, dtype=np.float64).reshape(-1)
    c1 = np.asarray(c1, dtype=np.float64).reshape(-1)
    rows = np.vstack([poly.a_eq, poly.a_ub])
    m, n_eq, dim = rows.shape[0], poly.a_eq.shape[0], poly.dim
    a_ub = np.zeros((dim + 1, m + dim + 1))
    a_ub[:dim, :m] = -rows.T
    a_ub[:dim, m : m + dim] = -np.eye(dim)
    a_ub[:dim, -1] = c1
    a_ub[dim, :m] = np.concatenate([poly.b_eq, poly.b_ub])
    a_ub[dim, m : m + dim] = 1.0
    objective = np.zeros(m + dim + 1)
    objective[-1] = -1.0
    bounds = [(None, None)] * n_eq + [(0.0, None)] * (m - n_eq + dim) + [(0.0, t_max)]
    res = linprog(objective, A_ub=a_ub, b_ub=np.concatenate([-c0, [bound]]),
                  bounds=bounds, method="highs-ds", options=_HIGHS_TIGHT)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"{poly.name}: dual LP status {res.status} ({res.message})")
    return float(res.x[-1]), res.x[:m]


# Weak-duality bound from row duals, summed in fractions.Fraction


def dual_bound_fraction(c, poly, duals) -> float:
    """Exact weak-duality bound on max c . x over poly from any row duals.

    duals holds y (equality rows) then z (inequality rows).  With z clipped
    to z >= 0 and the box duals repaired to u = max(0, c - A_eq^T y -
    A_ub^T z), (y, z, u) is dual feasible, so b_eq . y + b_ub . z + sum u
    >= c . x on poly (Neumaier & Shcherbina, Math. Prog. 99, 2004).  The
    sum is formed exactly in fractions.Fraction and rounded up.
    """
    duals = np.array(duals, dtype=np.float64)
    if duals.shape != (poly.b_eq.size + poly.b_ub.size,):
        raise ValueError("need one dual per equality row and per inequality row")
    duals[poly.b_eq.size:] = np.maximum(duals[poly.b_eq.size:], 0.0)
    duals = [Fraction(v) for v in duals.tolist()]
    rhs = np.concatenate([poly.b_eq, poly.b_ub]).tolist()
    total = sum((Fraction(b) * d for b, d in zip(rhs, duals) if b), Fraction(0))
    cols = np.vstack([poly.a_eq, poly.a_ub]).T.tolist()
    for cj, col in zip(np.asarray(c).reshape(-1).tolist(), cols, strict=True):
        u = Fraction(cj) - sum((Fraction(a) * d for a, d in zip(col, duals) if a), Fraction(0))
        total += max(u, 0)
    bound = float(total)
    return bound if Fraction(bound) >= total else math.nextafter(bound, math.inf)


# Factor value of one record, read off the matched table by its 1-based labels


def factor_value(tf, mqa, oqa, mqp, zqa, zqb) -> float:
    if zqa == zqb:
        return float(tf.matched[mqa - 1, mqp - 1, oqa - 1, zqa - 1])
    return float(tf.mismatch)


# CLT success probability of an honest instance, the definition behind
# required_trials


def p_succ(n: int, g: float, v: float, delta: float) -> float:
    """CLT success probability of an honest instance.

    g and v are the per-trial gain and variance of log2 w; the threshold
    is log2(1/delta).  With n g equal to the threshold this is 1/2 for
    v > 0; at v = 0 every trial scores exactly g and the tie passes, as
    run_instance_from_counts tests total >= threshold.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if v < 0:
        raise ValueError("variance must be nonnegative")
    margin = n * g + math.log2(delta)
    if v == 0.0:
        return 1.0 if margin >= 0 else 0.0
    x = margin / math.sqrt(n * v)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Float inverse-CDF trial sampler: Generator.random draws looked up in the
# cell CDF, the definition of sample_trials' byte stream


def inverse_cdf_sample(sigma3, nu, count: int, key: int) -> np.ndarray:
    from diqpv.estimation import cell_probabilities
    from diqpv.trialdata import settings_weights

    if count < 0:
        raise ValueError("count must be nonnegative")
    probs = cell_probabilities(sigma3, settings_weights(nu)).reshape(32)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=key))
    out = np.empty(count, dtype=np.uint8)
    chunk = 1 << 20
    pos = 0
    while pos < count:
        m = min(chunk, count - pos)
        u = rng.random(m)
        out[pos : pos + m] = np.searchsorted(cdf, u, side="right").astype(np.uint8)
        pos += m
    return out


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


def _lengths(point, d_sep: float):
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if not 1 <= p.size <= 3:
        raise ValueError("point must have 1 to 3 coordinates")
    la = float(np.linalg.norm(p))
    q = p.copy()
    q[0] -= d_sep
    lb = float(np.linalg.norm(q))
    return la, lb


def quantum_lengths_ok(la, lb, spec):
    """Vectorized membership test of the quantum region in (l_A, l_B)."""
    cap = min(spec.ellipse_ab, spec.ellipse_ba)
    return (la <= spec.radius_a) & (lb <= spec.radius_b) & (la + lb <= cap)


def classical_lengths_ok(la, lb, spec):
    """Vectorized membership test of the lens union in (l_A, l_B)."""
    lens_a = (la <= spec.radius_a) & (la + lb <= spec.ellipse_ba)
    lens_b = (lb <= spec.radius_b) & (la + lb <= spec.ellipse_ab)
    return lens_a | lens_b


def point_in_quantum_region(point, spec) -> bool:
    la, lb = _lengths(point, spec.d_sep)
    return bool(quantum_lengths_ok(la, lb, spec))


def point_in_classical_region(point, spec) -> bool:
    la, lb = _lengths(point, spec.d_sep)
    return bool(classical_lengths_ok(la, lb, spec))


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


# Per-dimension region sizing: one closed-form pass per (region, dim), the
# definition of the one-pass sizer's lengths, areas and volumes


def _antiderivative_2d(u, r):
    """Integral of 2 sqrt(R^2 - u^2) du (up to a constant)."""
    ratio = np.clip(np.divide(u, r, out=np.zeros_like(u), where=r != 0), -1.0, 1.0)
    return u * np.sqrt(np.maximum(r * r - u * u, 0.0)) + r * r * np.arcsin(ratio)


def measure_per_dim(region: str, dim: int, ra, rb, s_ab, s_ba, d=1.0):
    """Axis support (lo, hi) and exact size of a region for arrays of draws.

    lo > hi where the region misses the station axis, and its size is 0.
    The cross-section at x is |rho| <= sqrt(min_i f_i(x)) with each f_i a
    quadratic (see _chords), so between consecutive breakpoints (the
    support ends and every pairwise crossing of the f_i) one constraint is
    active and the length, area or volume integrates in closed form.
    """
    from diqpv.geometry import _chords

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k, r, x0 = _chords(region, ra, rb, s_ab, s_ba, d)
        reach = k >= 0.0
        lo = np.where(reach, x0 - r, np.inf).max(axis=0)
        hi = np.where(reach, x0 + r, -np.inf).min(axis=0)
        empty = ~(lo <= hi)
        a, b = np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)
        if dim == 1:
            return lo, hi, b - a
        k = np.where(empty, 0.0, k)
        points = [a, b]
        for i in range(len(k)):
            for j in range(i + 1, len(k)):
                # f_i - f_j = qa x^2 + qb x + qc, solved in the stable form.
                qa = k[j] - k[i]
                qb = 2.0 * (k[i] * x0[i] - k[j] * x0[j])
                qc = k[i] * (r[i] ** 2 - x0[i] ** 2) - k[j] * (r[j] ** 2 - x0[j] ** 2)
                q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
                points += [q / qa, qc / q]
        x = np.clip(np.array(points), a, b)
        x = np.sort(np.where(np.isnan(x), a, x), axis=0)
    mid = 0.5 * (x[1:] + x[:-1])
    active = (k[:, None] * (r[:, None] ** 2 - (mid - x0[:, None]) ** 2)).argmin(axis=0)
    kk, rr, cc = (np.take_along_axis(v[:, None], active[None], 0)[0] for v in (k, r, x0))
    ul, ur = x[:-1] - cc, x[1:] - cc
    if dim == 2:
        parts = np.sqrt(kk) * (_antiderivative_2d(ur, rr) - _antiderivative_2d(ul, rr))
    else:
        parts = math.pi * kk * (ur - ul) * (rr * rr - (ur * ur + ur * ul + ul * ul) / 3.0)
    return lo, hi, parts.sum(axis=0)


# Region sizing over every parameter draw in one pass, before the draws were
# split into blocks


def measure_unblocked(region: str, dims, ra, rb, s_ab, s_ba, d=1.0):
    """Axis support (lo, hi) and exact sizes {dim: size}, length included, for arrays of draws.

    lo > hi where the region misses the station axis, and its size is 0.
    The cross-section at x is |rho| <= sqrt(min_i f_i(x)) with each f_i a
    quadratic (see _chords), so between consecutive breakpoints (the
    support ends and every pairwise crossing of the f_i) one constraint is
    active and the area or volume integrates in closed form.  Every dim in
    dims above 1 shares the breakpoints; only the integrands differ.
    """
    from diqpv.geometry import _chords

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k, r, x0 = _chords(region, ra, rb, s_ab, s_ba, d)
        reach = k >= 0.0
        lo = np.where(reach, x0 - r, np.inf).max(axis=0)
        hi = np.where(reach, x0 + r, -np.inf).min(axis=0)
        empty = ~(lo <= hi)
        a, b = np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)
        sizes = {1: b - a}
        if max(dims) == 1:
            return lo, hi, sizes
        k = np.where(empty, 0.0, k)
        points = [a, b]
        for i in range(len(k)):
            for j in range(i + 1, len(k)):
                # f_i - f_j = qa x^2 + qb x + qc, solved in the stable form.
                qa = k[j] - k[i]
                qb = 2.0 * (k[i] * x0[i] - k[j] * x0[j])
                qc = k[i] * (r[i] ** 2 - x0[i] ** 2) - k[j] * (r[j] ** 2 - x0[j] ** 2)
                q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
                points += [q / qa, qc / q]
        x = np.clip(np.array(points), a, b)
        x = np.sort(np.where(np.isnan(x), a, x), axis=0)
        mid = 0.5 * (x[1:] + x[:-1])
        active = (k[:, None] * (r[:, None] ** 2 - (mid - x0[:, None]) ** 2)).argmin(axis=0)
        kk, rr, cc = (np.take_along_axis(v[:, None], active[None], 0)[0] for v in (k, r, x0))
        ul, ur = x[:-1] - cc, x[1:] - cc
        # A subnormal radius overflows u / r in _antiderivative_2d; the
        # clipped ratio is still right.
        if 2 in dims:
            sizes[2] = (np.sqrt(kk) * (_antiderivative_2d(ur, rr) - _antiderivative_2d(ul, rr))).sum(0)
        if 3 in dims:
            shell = rr * rr - (ur * ur + ur * ul + ul * ul) / 3.0
            sizes[3] = (math.pi * kk * (ur - ul) * shell).sum(0)
    return lo, hi, sizes


def axis_interval(region: str, spec) -> tuple[float, float]:
    """Closed-form intersection (lo, hi) of "quantum", "lens_a" or "lens_b"
    with the station axis: empty when lo > hi, and (inf, -inf) when a sum
    cap below the station separation makes the region empty."""
    from diqpv.geometry import _spec_measure

    return _spec_measure(region, spec)[:2]


# Barrier solver with a global step budget and tread-water acceptance


def _budgeted_newton_loop(x, slacks_fn, k, a, steps, tol, budget):
    """Maximize sum_j k_j log s_j(x); returns (x, iterations_used)."""
    used = 0
    for _ in range(steps):
        if used >= budget:
            break
        s = slacks_fn(x)
        g = (k / s) @ a
        h = (a * (k / s**2)[:, None]).T @ a
        try:
            d = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, g, rcond=None)[0]
        decrement = float(g @ d)
        if not np.isfinite(decrement) or decrement <= 0:
            d = g / max(1.0, np.linalg.norm(g))
            decrement = float(g @ d)
            if decrement <= 0:
                break
        if decrement / 2 <= tol:
            break
        ad = a @ d
        shrink = ad < 0
        alpha_max = np.inf if not shrink.any() else float((-s[shrink] / ad[shrink]).min())
        alpha = min(1.0, 0.99 * alpha_max)
        base = float(k @ np.log(s))
        while alpha > 1e-18:
            s_new = slacks_fn(x + alpha * d)
            if (s_new > 0).all():
                val = float(k @ np.log(s_new))
                if val >= base + 0.25 * alpha * decrement:
                    break
                # Near the optimum the model step can only tread water;
                # accept it as long as it does not actually lose ground.
                if alpha < 1e-12 and val >= base - 1e-13 * max(1.0, abs(base)):
                    break
            alpha *= 0.5
        if alpha <= 1e-18:
            break
        x = x + alpha * d
        used += 1
    return x, used


def maximize_log_affine_budgeted(weights, a, b, x0):
    """Maximizer of sum_j w_j log(a_j . x + b_j) from a strictly feasible x0.

    The same barrier path and polish as ``diqpv._smooth``, but a Newton
    loop stops only at its decrement tolerance, its step cap, a failed line
    search or a global budget of 1e5 steps, and the line search accepts a
    step below alpha 1e-12 that loses no more than 1e-13 relative.
    """
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    if (w < 0).any():
        raise ValueError("row weights must be nonnegative")

    def slacks(v):
        return a @ v + b

    if (slacks(x) <= 0).any():
        raise RuntimeError("starting point is not strictly feasible")

    budget = 100_000
    t = 16.0
    while True:
        k = t * w + 1.0
        x, used = _budgeted_newton_loop(x, slacks, k, a, steps=200, tol=1e-12, budget=budget)
        budget -= used
        if t >= 1e13 or budget <= 0:
            break
        t = min(t * 20.0, 1e13)

    # Polish: drop the barrier.  Constraint rows whose slack collapsed along
    # the path are pinned as equalities (Newton in the nullspace of their
    # rows); everything else keeps weight w_j, so zero-weight rows still
    # guard the line search without entering the Newton model.
    s = slacks(x)
    scale = max(1.0, float(np.abs(b).max()))
    active = (w == 0) & (s < 1e-6 * scale)
    if active.any():
        a_act = a[active]
        # Project exactly onto the active facet before walking it.
        corr = a_act.T @ np.linalg.lstsq(a_act @ a_act.T, s[active], rcond=None)[0]
        x_f = x - corr
        if (slacks(x_f)[~active] <= 0).any():
            return x  # projection left the cone; the barrier point stands
        x = x_f
        _, sv, vt = np.linalg.svd(a_act, full_matrices=True)
        rank = int((sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)).sum())
        nullb = vt[rank:].T
        if nullb.shape[1] == 0:
            return x
        keep = ~active
        a_red = a[keep] @ nullb
        k_red = w[keep]
        b_off = slacks(x)[keep]

        def red_slacks(psi, base=b_off, mat=a_red):
            return base + mat @ psi

        psi = np.zeros(nullb.shape[1])
        psi, used = _budgeted_newton_loop(
            psi, red_slacks, k_red, a_red, steps=100, tol=1e-16, budget=budget
        )
        x = x + nullb @ psi
    else:
        x, used = _budgeted_newton_loop(
            x, slacks, w, a, steps=100, tol=1e-16, budget=budget
        )
    return x


# Barrier solver whose line search tries one step length at a time


def _sequential_newton_loop(x, slacks_fn, k, a, steps, tol):
    """Maximize sum_j k_j log s_j(x); returns (x, iterations_used)."""
    used = 0
    for _ in range(steps):
        s = slacks_fn(x)
        g = (k / s) @ a
        h = (a * (k / s**2)[:, None]).T @ a
        try:
            d = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, g, rcond=None)[0]
        decrement = float(g @ d)
        if not np.isfinite(decrement) or decrement <= 0:
            d = g / max(1.0, np.linalg.norm(g))
            decrement = float(g @ d)
            if decrement <= 0:
                break
        if decrement / 2 <= tol:
            break
        ad = a @ d
        shrink = ad < 0
        alpha_max = np.inf if not shrink.any() else float((-s[shrink] / ad[shrink]).min())
        alpha = min(1.0, 0.99 * alpha_max)
        base = float(k @ np.log(s))
        while alpha > 1e-18:
            s_new = slacks_fn(x + alpha * d)
            if (s_new > 0).all() and float(k @ np.log(s_new)) >= base + 0.25 * alpha * decrement:
                break
            alpha *= 0.5
        x_new = x + alpha * d
        if alpha <= 1e-18 or np.array_equal(x_new, x):
            break
        x = x_new
        used += 1
    return x, used


def maximize_log_affine_sequential(weights, a, b, x0):
    """Run the barrier path plus polish; returns the maximizer.

    weights, a, b describe the rows (see ``diqpv._smooth``); x0 must be
    strictly feasible.  The package's solver before its line search was
    stacked, verbatim but for names: each backtracking trial is its own
    slack closure call and objective, one after another.
    """
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    if (w < 0).any():
        raise ValueError("row weights must be nonnegative")

    def slacks(v):
        return a @ v + b

    if (slacks(x) <= 0).any():
        raise RuntimeError("starting point is not strictly feasible")

    t = 16.0
    while True:
        k = t * w + 1.0
        x, _ = _sequential_newton_loop(x, slacks, k, a, steps=200, tol=1e-12)
        if t >= 1e13:
            break
        t = min(t * 20.0, 1e13)

    # Polish: drop the barrier.  Constraint rows whose slack collapsed along
    # the path are pinned as equalities (Newton in the nullspace of their
    # rows); everything else keeps weight w_j, so zero-weight rows still
    # guard the line search without entering the Newton model.
    s = slacks(x)
    scale = max(1.0, float(np.abs(b).max()))
    active = (w == 0) & (s < 1e-6 * scale)
    if active.any():
        a_act = a[active]
        # Project exactly onto the active facet before walking it.
        corr = a_act.T @ np.linalg.lstsq(a_act @ a_act.T, s[active], rcond=None)[0]
        x_f = x - corr
        if (slacks(x_f)[~active] <= 0).any():
            return x  # projection left the cone; the barrier point stands
        x = x_f
        _, sv, vt = np.linalg.svd(a_act, full_matrices=True)
        rank = int((sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)).sum())
        nullb = vt[rank:].T
        if nullb.shape[1] == 0:
            return x
        keep = ~active
        a_red = a[keep] @ nullb
        k_red = w[keep]
        b_off = slacks(x)[keep]

        def red_slacks(psi, base=b_off, mat=a_red):
            return base + mat @ psi

        psi = np.zeros(nullb.shape[1])
        psi, _ = _sequential_newton_loop(psi, red_slacks, k_red, a_red, steps=100, tol=1e-16)
        x = x + nullb @ psi
    else:
        x, _ = _sequential_newton_loop(x, slacks, w, a, steps=100, tol=1e-16)
    return x


# Largest testable entanglement threshold over the whole trial-count x
# mixing-weight grid in one piece


def achievable_rth_unblocked(tf, sigma3, n, delta, epsilon):
    """``protocol.achievable_rth`` with every row of its grid evaluated at
    once: the package's expression before it was split into blocks of rows."""
    from diqpv.protocol import LN2, _mixed_gain_variance, _mixing_setup

    n = np.asarray(n)
    w_flat, probs, deficit, big, z, lo, hi = _mixing_setup(tf, sigma3, delta, epsilon)
    grid = np.linspace(lo, hi, 2000)
    g, v = _mixed_gain_variance(w_flat, probs, grid)
    m = np.maximum(n, 1)[:, None]
    slack_bits = g - (big + z * np.sqrt(m * v)) / m
    rates = (slack_bits * LN2 / (grid * deficit)).max(axis=1)
    return np.where((n >= 1) & (rates > 0.0), rates, 0.0)

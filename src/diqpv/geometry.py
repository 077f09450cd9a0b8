"""Spacetime target regions and Monte Carlo advantage ratios.

Verifier station A sits at the origin, station B at (d_sep, 0, 0); a
candidate prover location is summarized by its distances l_A, l_B to the
two stations.  Measured send/receive times bound four lengths:

    radius_a   = c (r_vap - s_vap) / 2    round trip at A
    radius_b   = c (r_vb  - s_vb ) / 2    round trip at B
    ellipse_ab = c (r_vb  - s_vap)        sent from A, received at B
    ellipse_ba = c (r_vap - s_vb )        sent from B, received at A

The quantum protocol pins the prover inside the intersection

    l_A <= radius_a,  l_B <= radius_b,  l_A + l_B <= min(ellipse_ab, ellipse_ba)

while classical responders can sit in either lens

    A: l_A <= radius_a and l_A + l_B <= ellipse_ba
    B: l_B <= radius_b and l_A + l_B <= ellipse_ab

whose union is the comparable classical region.  The two lenses intersect
exactly in the quantum region, so union = lensA + lensB - quantum; the
one-dimensional comparison uses the summed lens lengths, the 2D and 3D
comparisons the union.  All regions are convex or unions of convex sets,
rotationally symmetric about the station axis, and are sized by Monte
Carlo over per-region bounding boxes derived from the defining
inequalities (3D integrates the half-plane (x, rho) with weight 2 pi rho).

Advantage ratios propagate timing and separation uncertainty by outer
Gaussian parameter draws sharing one fixed inner point set (common random
numbers); only points near a region boundary across the drawn parameter
range are re-evaluated per draw, which keeps 1e5 x 1e5 draws fast without
approximating any membership test.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError

SPEED_OF_LIGHT_M_PER_NS = 0.299792458


@dataclass(frozen=True)
class TimingGeometry:
    """Measured send/receive times (ns), separation (m), and uncertainties."""

    s_vap_ns: float
    s_vb_ns: float
    r_vap_ns: float
    r_vb_ns: float
    d_sep_m: float
    s_vap_sigma_ns: float = 0.0
    s_vb_sigma_ns: float = 0.0
    r_vap_sigma_ns: float = 0.0
    r_vb_sigma_ns: float = 0.0
    d_sep_sigma_m: float = 0.0

    def __post_init__(self):
        if self.r_vap_ns < self.s_vap_ns or self.r_vb_ns < self.s_vb_ns:
            raise ValueError("receive times must not precede send times")
        if self.d_sep_m <= 0:
            raise ValueError("station separation must be positive")
        for name in ("s_vap_sigma_ns", "s_vb_sigma_ns", "r_vap_sigma_ns",
                     "r_vb_sigma_ns", "d_sep_sigma_m"):
            if getattr(self, name) < 0:
                raise ValueError("uncertainties must be nonnegative")


@dataclass(frozen=True)
class RegionSpec:
    """Derived lengths (m) defining the target regions."""

    radius_a: float
    radius_b: float
    ellipse_ab: float
    ellipse_ba: float
    d_sep: float


def region_spec(tg: TimingGeometry, c: float = SPEED_OF_LIGHT_M_PER_NS) -> RegionSpec:
    """Central-value region lengths from the timing geometry."""
    return RegionSpec(
        radius_a=c * (tg.r_vap_ns - tg.s_vap_ns) / 2.0,
        radius_b=c * (tg.r_vb_ns - tg.s_vb_ns) / 2.0,
        ellipse_ab=c * (tg.r_vb_ns - tg.s_vap_ns),
        ellipse_ba=c * (tg.r_vap_ns - tg.s_vb_ns),
        d_sep=tg.d_sep_m,
    )


def _lengths(point, d_sep: float):
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if not 1 <= p.size <= 3:
        raise ValueError("point must have 1 to 3 coordinates")
    la = float(np.linalg.norm(p))
    q = p.copy()
    q[0] -= d_sep
    lb = float(np.linalg.norm(q))
    return la, lb


def quantum_lengths_ok(la, lb, spec: RegionSpec):
    """Vectorized membership test of the quantum region in (l_A, l_B)."""
    cap = min(spec.ellipse_ab, spec.ellipse_ba)
    return (la <= spec.radius_a) & (lb <= spec.radius_b) & (la + lb <= cap)


def lens_a_ok(la, lb, spec: RegionSpec):
    return (la <= spec.radius_a) & (la + lb <= spec.ellipse_ba)


def lens_b_ok(la, lb, spec: RegionSpec):
    return (lb <= spec.radius_b) & (la + lb <= spec.ellipse_ab)


def classical_lengths_ok(la, lb, spec: RegionSpec):
    return lens_a_ok(la, lb, spec) | lens_b_ok(la, lb, spec)


def point_in_quantum_region(point, spec: RegionSpec) -> bool:
    la, lb = _lengths(point, spec.d_sep)
    return bool(quantum_lengths_ok(la, lb, spec))


def point_in_classical_region(point, spec: RegionSpec) -> bool:
    la, lb = _lengths(point, spec.d_sep)
    return bool(classical_lengths_ok(la, lb, spec))


def _ellipse_halfwidth(total: float, d: float) -> float:
    """Transverse half-width of {l_A + l_B <= total}; 0 if degenerate."""
    if total <= d:
        return 0.0
    return math.sqrt((total / 2.0) ** 2 - (d / 2.0) ** 2)


def _interval(lo_parts, hi_parts) -> tuple[float, float]:
    lo, hi = max(lo_parts), min(hi_parts)
    return lo, hi


def axis_interval(region: str, spec: RegionSpec) -> tuple[float, float]:
    """Closed-form intersection of a region with the station axis.

    Returns (lo, hi); empty when lo > hi.  region is one of "quantum",
    "lens_a", "lens_b".
    """
    d = spec.d_sep
    if region == "quantum":
        cap = min(spec.ellipse_ab, spec.ellipse_ba)
        return _interval(
            (-spec.radius_a, d - spec.radius_b, (d - cap) / 2.0),
            (spec.radius_a, d + spec.radius_b, (d + cap) / 2.0),
        )
    if region == "lens_a":
        return _interval(
            (-spec.radius_a, (d - spec.ellipse_ba) / 2.0),
            (spec.radius_a, (d + spec.ellipse_ba) / 2.0),
        )
    if region == "lens_b":
        return _interval(
            (d - spec.radius_b, (d - spec.ellipse_ab) / 2.0),
            (d + spec.radius_b, (d + spec.ellipse_ab) / 2.0),
        )
    raise ValueError(f"unknown region {region!r}")


def _box(region: str, spec: RegionSpec, pad: float = 0.01) -> tuple[float, float, float]:
    """Bounding (x_lo, x_hi, rho_max) from the defining inequalities."""
    d = spec.d_sep
    if region == "quantum":
        lo, hi = axis_interval("quantum", spec)
        cap = min(spec.ellipse_ab, spec.ellipse_ba)
        rho = min(spec.radius_a, spec.radius_b, _ellipse_halfwidth(cap, d))
    elif region == "lens_a":
        lo, hi = axis_interval("lens_a", spec)
        rho = min(spec.radius_a, _ellipse_halfwidth(spec.ellipse_ba, d))
    elif region == "lens_b":
        lo, hi = axis_interval("lens_b", spec)
        rho = min(spec.radius_b, _ellipse_halfwidth(spec.ellipse_ab, d))
    elif region == "classical":
        a = _box("lens_a", spec, 0.0)
        b = _box("lens_b", spec, 0.0)
        lo, hi, rho = min(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2])
    else:
        raise ValueError(f"unknown region {region!r}")
    if hi <= lo or rho < 0:
        return 0.0, 0.0, 0.0
    span = hi - lo
    return lo - pad * span, hi + pad * span, rho * (1.0 + pad)


_PREDICATES = {
    "quantum": quantum_lengths_ok,
    "classical": classical_lengths_ok,
    "lens_a": lens_a_ok,
    "lens_b": lens_b_ok,
}


def region_size(
    region: str,
    spec: RegionSpec,
    dim: int,
    mc_samples: int = 1_000_000,
    seed: int = 1,
    threads: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo size (length/area/volume) of a region with its 1-sigma.

    Samples the region's own bounding box; 3D integrates over (x, rho)
    with weight 2 pi rho.  Returns (size, standard error); an empty box
    gives (0, 0) and a box with no hits reports the rule-of-three bound.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if region not in _PREDICATES:
        raise ValueError(f"unknown region {region!r}")
    pred = _PREDICATES[region]
    xlo, xhi, rho_max = _box(region, spec)
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

    def shard(key: int, count: int):
        rng = np.random.Generator(np.random.Philox(key=key))
        x = rng.uniform(xlo, xhi, count)
        if dim == 1:
            la = np.abs(x)
            lb = np.abs(x - spec.d_sep)
            vals = pred(la, lb, spec).astype(np.float64)
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
    keys = [(seed << 16) | i for i in range(n_shards)]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(shard, keys, counts))
    else:
        parts = [shard(k, c) for k, c in zip(keys, counts)]
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


@dataclass(frozen=True)
class AdvantageResult:
    """Advantage ratio with its spread over parameter uncertainty."""

    ratio: float
    sigma: float
    dim: int
    comparator: str
    empty_fraction: float
    degenerate: bool
    samples: np.ndarray


def _draw_parameters(tg: TimingGeometry, n: int, seed: int, c: float):
    rng = np.random.Generator(np.random.Philox(key=seed))
    s_vap = rng.normal(tg.s_vap_ns, tg.s_vap_sigma_ns, n)
    s_vb = rng.normal(tg.s_vb_ns, tg.s_vb_sigma_ns, n)
    r_vap = rng.normal(tg.r_vap_ns, tg.r_vap_sigma_ns, n)
    r_vb = rng.normal(tg.r_vb_ns, tg.r_vb_sigma_ns, n)
    d = rng.normal(tg.d_sep_m, tg.d_sep_sigma_m, n)
    ra = c * (r_vap - s_vap) / 2.0
    rb = c * (r_vb - s_vb) / 2.0
    m_ab = c * (r_vb - s_vap)
    m_ba = c * (r_vap - s_vb)
    return ra, rb, m_ab, m_ba, d


class _BandCounter:
    """Weighted region counts over fixed points for many parameter draws.

    Points whose attribute lies outside the drawn threshold range are
    classified once; only the boundary band is re-tested per draw.  The
    counts are exact for every draw, not an approximation.
    """

    def __init__(self, attrs: dict[str, np.ndarray], weights: np.ndarray,
                 ranges: dict[str, tuple[float, float]]):
        self.attrs = attrs
        self.weights = weights
        self.ranges = ranges

    def mask_counts(self, constraints: list[tuple[str, np.ndarray]]) -> np.ndarray:
        """Sum of weights of points satisfying attr <= threshold for all
        constraints, one value per draw."""
        n_pts = self.weights.size
        sure_in = np.ones(n_pts, dtype=bool)
        uncertain = np.zeros(n_pts, dtype=bool)
        for name, _ in constraints:
            lo, hi = self.ranges[name]
            a = self.attrs[name]
            sure_in &= a <= lo
            uncertain |= (a > lo) & (a <= hi)
        # A point is out for every draw when some attribute exceeds the
        # range top; what remains splits into always-in and band points.
        maybe = sure_in | uncertain
        for name, _ in constraints:
            _, hi = self.ranges[name]
            maybe &= self.attrs[name] <= hi
        band = maybe & ~sure_in
        base = float(self.weights[sure_in & maybe].sum())
        idx = np.nonzero(band)[0]
        n_draws = constraints[0][1].size
        out = np.full(n_draws, base)
        if idx.size == 0:
            return out
        w_band = self.weights[idx]
        attr_band = {name: self.attrs[name][idx] for name, _ in constraints}
        chunk = max(1, int(4_000_000 // max(1, idx.size)))
        for start in range(0, n_draws, chunk):
            stop = min(start + chunk, n_draws)
            ok = np.ones((stop - start, idx.size), dtype=bool)
            for name, thresh in constraints:
                ok &= attr_band[name][None, :] <= thresh[start:stop, None]
            out[start:stop] += ok @ w_band
        return out


def quantum_advantage(
    tg: TimingGeometry,
    dim: int,
    comparator: str = "comparable",
    mc_outer: int = 100_000,
    mc_inner: int = 1_000_000,
    seed: int = 1,
    c: float = SPEED_OF_LIGHT_M_PER_NS,
    threads: int | None = None,
) -> AdvantageResult:
    """Ratio of classical to quantum target-region size under uncertainty.

    Draws mc_outer Gaussian parameter sets, sizes the regions on a common
    set of mc_inner points in separation-scaled coordinates, and returns
    the mean ratio with its standard deviation across draws.  comparator
    "ideal" divides the ideal classical size (the station segment in 1D,
    zero above) by the quantum size; "comparable" divides the lens sum
    (1D) or lens union (2D/3D).  Aborts when more than 1% of draws give
    an empty quantum region.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if comparator not in ("ideal", "comparable"):
        raise ValueError("comparator must be 'ideal' or 'comparable'")
    ra, rb, m_ab, m_ba, d = _draw_parameters(tg, mc_outer, seed, c)
    if (d <= 0).any():
        raise EmptyRegionError("separation draw crossed zero; uncertainties too large")
    # Separation-scaled parameters; the ratio is scale invariant.
    alpha, beta = ra / d, rb / d
    g_ab, g_ba = m_ab / d, m_ba / d
    cap = np.minimum(g_ab, g_ba)

    lo_ax = np.maximum.reduce([-alpha, 1.0 - beta, (1.0 - cap) / 2.0])
    hi_ax = np.minimum.reduce([alpha, 1.0 + beta, (1.0 + cap) / 2.0])
    empty = lo_ax > hi_ax
    empty_fraction = float(empty.mean())
    if empty_fraction > 0.01:
        raise EmptyRegionError(
            f"{empty_fraction:.1%} of parameter draws give an empty quantum region"
        )

    if comparator == "ideal" and dim > 1:
        return AdvantageResult(
            ratio=math.inf, sigma=math.nan, dim=dim, comparator=comparator,
            empty_fraction=empty_fraction, degenerate=True,
            samples=np.array([]),
        )

    # One bounding box covering every draw's classical and quantum regions.
    spec_hi = RegionSpec(
        radius_a=float(alpha.max()), radius_b=float(beta.max()),
        ellipse_ab=float(g_ab.max()), ellipse_ba=float(g_ba.max()), d_sep=1.0,
    )
    xlo, xhi, rho_max = _box("classical", spec_hi, pad=0.005)
    rng = np.random.Generator(np.random.Philox(key=(seed << 16) | 0xA5))
    x = rng.uniform(xlo, xhi, mc_inner)
    if dim == 1:
        la = np.abs(x)
        lb = np.abs(x - 1.0)
        weights = np.ones(mc_inner)
        box_measure = xhi - xlo
    elif dim == 2:
        y = rng.uniform(-rho_max, rho_max, mc_inner)
        la = np.hypot(x, y)
        lb = np.hypot(x - 1.0, y)
        weights = np.ones(mc_inner)
        box_measure = (xhi - xlo) * 2.0 * rho_max
    else:
        rho = rng.uniform(0.0, rho_max, mc_inner)
        la = np.hypot(x, rho)
        lb = np.hypot(x - 1.0, rho)
        weights = 2.0 * math.pi * rho
        box_measure = (xhi - xlo) * rho_max

    ranges = {
        "la_ra": (float(alpha.min()), float(alpha.max())),
        "lb_rb": (float(beta.min()), float(beta.max())),
        "sum_ab": (float(g_ab.min()), float(g_ab.max())),
        "sum_ba": (float(g_ba.min()), float(g_ba.max())),
    }
    dist_sum = la + lb
    counter = _BandCounter(
        attrs={"la_ra": la, "lb_rb": lb, "sum_ab": dist_sum, "sum_ba": dist_sum},
        weights=weights,
        ranges=ranges,
    )
    # Constraint lists of the quantum region, lens A and lens B.
    regions = (
        [("la_ra", alpha), ("lb_rb", beta), ("sum_ab", g_ab), ("sum_ba", g_ba)],
        [("la_ra", alpha), ("sum_ba", g_ba)],
        [("lb_rb", beta), ("sum_ab", g_ab)],
    )
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, 3)) as pool:
            q_cnt, a_cnt, b_cnt = pool.map(counter.mask_counts, regions)
    else:
        q_cnt, a_cnt, b_cnt = map(counter.mask_counts, regions)

    scale = box_measure / mc_inner
    q_size = q_cnt * scale
    lens_sum = (a_cnt + b_cnt) * scale
    union = lens_sum - q_size

    ok = ~empty & (q_cnt > 0)
    if comparator == "ideal":
        classical = np.ones(mc_outer)  # the separation segment, scaled length 1
    elif dim == 1:
        classical = lens_sum
    else:
        classical = union
    ratios = classical[ok] / q_size[ok]
    if ratios.size == 0:
        raise EmptyRegionError("no parameter draw produced a nonempty quantum region")
    return AdvantageResult(
        ratio=float(ratios.mean()),
        sigma=float(ratios.std()),
        dim=dim,
        comparator=comparator,
        empty_fraction=empty_fraction,
        degenerate=False,
        samples=ratios,
    )

"""Spacetime target regions, their exact sizes and advantage ratios.

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

whose union is the comparable classical region (classical_sizes holds the
union and comparator rules).  All regions are rotationally symmetric about
the station axis, and every constraint is a disk or an ellipse in the
half-plane (x, rho), so each region's length, area and volume has a closed
form (see _measure).

Advantage ratios propagate timing and separation uncertainty by Gaussian
parameter draws; each draw's regions are sized exactly, all draws at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError

SPEED_OF_LIGHT_M_PER_NS = 0.299792458
REGIONS = ("quantum", "lens_a", "lens_b")


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


def _region_lengths(s_vap, s_vb, r_vap, r_vb):
    """(radius_a, radius_b, ellipse_ab, ellipse_ba) from times, scalars or arrays."""
    c = SPEED_OF_LIGHT_M_PER_NS
    return (c * (r_vap - s_vap) / 2.0, c * (r_vb - s_vb) / 2.0,
            c * (r_vb - s_vap), c * (r_vap - s_vb))


def region_spec(tg: TimingGeometry) -> RegionSpec:
    """Central-value region lengths from the timing geometry."""
    lengths = _region_lengths(tg.s_vap_ns, tg.s_vb_ns, tg.r_vap_ns, tg.r_vb_ns)
    return RegionSpec(*lengths, d_sep=tg.d_sep_m)


def _chords(region: str, ra, rb, s_ab, s_ba, d):
    """A region's constraints as squared half-chords, stations at 0 and d.

    Each constraint reads rho^2 <= k (R^2 - (x - x0)^2) in the half-plane
    (x, rho): a disk has k = 1; the ellipse l_A + l_B <= s has semi-major
    axis R = s/2 about x0 = d/2 and k = 1 - (d/s)^2, which is negative
    when the cap s is below d and no point can meet it.  Returns arrays
    k, R, x0 of shape (constraints, draws).
    """
    def ellipse(s):
        return 1.0 - (d / s) ** 2, s / 2.0, d / 2.0

    disk_a, disk_b = (1.0, ra, 0.0), (1.0, rb, d)
    if region == "quantum":
        parts = (disk_a, disk_b, ellipse(np.minimum(s_ab, s_ba)))
    elif region == "lens_a":
        parts = (disk_a, ellipse(s_ba))
    elif region == "lens_b":
        parts = (disk_b, ellipse(s_ab))
    else:
        raise ValueError(f"unknown region {region!r}")
    shape = np.broadcast_shapes(*(np.shape(v) for p in parts for v in p))
    return (np.array([np.broadcast_to(p[i], shape) for p in parts], dtype=np.float64)
            for i in range(3))


def _antiderivative_2d(u, r):
    """Integral of 2 sqrt(R^2 - u^2) du (up to a constant)."""
    ratio = np.clip(np.divide(u, r, out=np.zeros_like(u), where=r != 0), -1.0, 1.0)
    return u * np.sqrt(np.maximum(r * r - u * u, 0.0)) + r * r * np.arcsin(ratio)


def _measure(region: str, dims, ra, rb, s_ab, s_ba, d=1.0):
    """Axis support (lo, hi) and exact sizes {dim: size}, length included, for arrays of draws.

    lo > hi where the region misses the station axis, and its size is 0.
    The cross-section at x is |rho| <= sqrt(min_i f_i(x)) with each f_i a
    quadratic (see _chords), so between consecutive breakpoints (the
    support ends and every pairwise crossing of the f_i) one constraint is
    active and the area or volume integrates in closed form.  Every dim in
    dims above 1 shares the breakpoints; only the integrands differ.
    """
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
    if 2 in dims:
        sizes[2] = (np.sqrt(kk) * (_antiderivative_2d(ur, rr) - _antiderivative_2d(ul, rr))).sum(0)
    if 3 in dims:
        shell = rr * rr - (ur * ur + ur * ul + ul * ul) / 3.0
        sizes[3] = (math.pi * kk * (ur - ul) * shell).sum(0)
    return lo, hi, sizes


def _spec_measure(region: str, spec: RegionSpec, dims=(1,)):
    lo, hi, sizes = _measure(region, dims, spec.radius_a, spec.radius_b,
                             spec.ellipse_ab, spec.ellipse_ba, np.array([spec.d_sep]))
    return float(lo[0]), float(hi[0]), {dim: float(size[0]) for dim, size in sizes.items()}


def axis_interval(region: str, spec: RegionSpec) -> tuple[float, float]:
    """Closed-form intersection (lo, hi) of "quantum", "lens_a" or "lens_b"
    with the station axis: empty when lo > hi, and (inf, -inf) when a sum
    cap below the station separation makes the region empty."""
    return _spec_measure(region, spec)[:2]


def region_sizes(spec: RegionSpec, dims=(1, 2, 3)) -> dict[int, dict[str, float]]:
    """Exact sizes {dim: {region: size}} of the REGIONS at the central values."""
    measured = [_spec_measure(name, spec, dims)[2] for name in REGIONS]
    return {dim: {name: m[dim] for name, m in zip(REGIONS, measured)} for dim in dims}


def classical_sizes(dim: int, quantum, lens_a, lens_b, d) -> dict:
    """Classical region sizes from the quantum and lens sizes: floats or arrays.

    The two lenses intersect exactly in the quantum region, so the "union"
    is lens_a + lens_b - quantum.  The "comparable" classical protocol is
    the summed lens lengths in 1D and the union above; the "ideal" one is
    the station segment d in 1D and has zero size above.
    """
    union = lens_a + lens_b - quantum
    if dim == 1:
        return {"union": union, "comparable": lens_a + lens_b, "ideal": d}
    return {"union": union, "comparable": union, "ideal": 0.0}


def region_size(region: str, spec: RegionSpec, dim: int) -> tuple[float, float]:
    """Exact size (length/area/volume) of "quantum", "lens_a", "lens_b" or
    "classical" (the lens union), as (size, error) with the error always 0."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    if region == "classical":
        sizes = region_sizes(spec, (dim,))[dim].values()
        return classical_sizes(dim, *sizes, spec.d_sep)["union"], 0.0
    return _spec_measure(region, spec, (dim,))[2][dim], 0.0


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


def _draw_parameters(tg: TimingGeometry, n: int, seed: int):
    rng = np.random.Generator(np.random.Philox(key=seed))
    s_vap = rng.normal(tg.s_vap_ns, tg.s_vap_sigma_ns, n)
    s_vb = rng.normal(tg.s_vb_ns, tg.s_vb_sigma_ns, n)
    r_vap = rng.normal(tg.r_vap_ns, tg.r_vap_sigma_ns, n)
    r_vb = rng.normal(tg.r_vb_ns, tg.r_vb_sigma_ns, n)
    d = rng.normal(tg.d_sep_m, tg.d_sep_sigma_m, n)
    return (*_region_lengths(s_vap, s_vb, r_vap, r_vb), d)


def quantum_advantages(tg: TimingGeometry, dims=(1, 2, 3), mc_outer: int = 100_000,
                       seed: int = 1) -> dict[int, dict[str, AdvantageResult] | EmptyRegionError]:
    """Ratios of classical to quantum target-region size under uncertainty.

    Draws mc_outer Gaussian parameter sets once, sizes each region of each
    draw exactly in every dim of dims from one pass (in separation-scaled
    coordinates), and returns {dim: {"ideal": ..., "comparable": ...}}: per
    classical comparator of classical_sizes, the mean of the per-draw ratios
    and their standard deviation; a comparator of zero size (ideal above 1D)
    is degenerate.  A dim without ratios maps to the EmptyRegionError saying
    why: a separation draw crossed zero, over 1% of draws give an empty
    quantum region, or none gives one of positive size in that dim.
    """
    if not dims or not set(dims) <= {1, 2, 3}:
        raise ValueError("dim must be 1, 2, or 3")
    if mc_outer < 1:
        raise ValueError("mc_outer must be at least 1")
    ra, rb, m_ab, m_ba, d = _draw_parameters(tg, mc_outer, seed)
    if (d <= 0).any():
        return dict.fromkeys(dims, EmptyRegionError(
            "separation draw crossed zero; uncertainties too large"))
    # Separation-scaled parameters; the ratio is scale invariant.
    scaled = (ra / d, rb / d, m_ab / d, m_ba / d)
    lo, hi, quantum = _measure("quantum", dims, *scaled)
    empty = lo > hi
    empty_fraction = float(empty.mean())
    if empty_fraction > 0.01:
        return dict.fromkeys(dims, EmptyRegionError(
            f"{empty_fraction:.1%} of parameter draws give an empty quantum region"))
    lens_a, lens_b = (_measure(name, dims, *scaled)[2] for name in REGIONS[1:])
    out = {}
    for dim in dims:
        q_size = quantum[dim]
        ok = ~empty & (q_size > 0)
        if not ok.any():
            out[dim] = EmptyRegionError("no parameter draw produced a nonempty quantum region")
            continue
        sizes = classical_sizes(dim, q_size, lens_a[dim], lens_b[dim], 1.0)
        out[dim] = {}
        for comparator in ("ideal", "comparable"):
            classical = sizes[comparator]
            degenerate = not np.any(classical)
            ratios = (np.array([]) if degenerate
                      else np.broadcast_to(classical, q_size.shape)[ok] / q_size[ok])
            out[dim][comparator] = AdvantageResult(
                ratio=math.inf if degenerate else float(ratios.mean()),
                sigma=math.nan if degenerate else float(ratios.std()), dim=dim,
                comparator=comparator, empty_fraction=empty_fraction,
                degenerate=degenerate, samples=ratios)
    return out


def quantum_advantage(tg: TimingGeometry, dim: int, mc_outer: int = 100_000,
                      seed: int = 1) -> dict[str, AdvantageResult]:
    """quantum_advantages for one dim; raises its EmptyRegionError instead of returning it."""
    result = quantum_advantages(tg, (dim,), mc_outer, seed)[dim]
    if isinstance(result, EmptyRegionError):
        raise result
    return result

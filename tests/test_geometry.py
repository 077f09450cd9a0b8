import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diqpv.errors import EmptyRegionError
from diqpv.geometry import (
    REGIONS,
    SPEED_OF_LIGHT_M_PER_NS,
    RegionSpec,
    TimingGeometry,
    axis_interval,
    classical_sizes,
    _measure,
    quantum_advantage,
    quantum_advantages,
    region_size,
    region_sizes,
    region_spec,
)
from diqpv.reference import timing_geometry

from golden import REFERENCE_ADVANTAGE, REFERENCE_LENGTHS, REFERENCE_TIMING
from oracles import (
    axis_scan,
    classical_lengths_ok,
    direct_3d_volume,
    measure_per_dim,
    point_in_classical_region,
    point_in_quantum_region,
    quantum_lengths_ok,
    region_size_mc,
    sphere_volume,
)

# Nonempty bounding box, empty region: the sum cap 10 is below d = 50.
HOLLOW = RegionSpec(radius_a=100.0, radius_b=100.0, ellipse_ab=10.0, ellipse_ba=10.0,
                    d_sep=50.0)


@pytest.fixture(scope="module")
def tg():
    return TimingGeometry(**REFERENCE_TIMING)


@pytest.fixture(scope="module")
def spec(tg):
    return region_spec(tg)


def test_derived_lengths(tg, spec):
    assert spec.radius_a == pytest.approx(157.28611309, abs=1e-5)
    assert spec.radius_b == pytest.approx(116.70920391, abs=1e-5)
    assert spec.ellipse_ab == pytest.approx(274.81974625, abs=1e-5)
    assert spec.ellipse_ba == pytest.approx(273.17088773, abs=1e-5)
    assert spec.d_sep == 195.1
    for name, published in REFERENCE_LENGTHS.items():
        assert abs(getattr(spec, name) - published) <= 0.3
    # The bundled survey is the same geometry.
    assert region_spec(timing_geometry()) == spec


def test_timing_validation():
    with pytest.raises(ValueError):
        TimingGeometry(s_vap_ns=10.0, s_vb_ns=0.0, r_vap_ns=5.0, r_vb_ns=1.0, d_sep_m=10.0)
    with pytest.raises(ValueError):
        TimingGeometry(s_vap_ns=0.0, s_vb_ns=0.0, r_vap_ns=5.0, r_vb_ns=5.0, d_sep_m=0.0)
    with pytest.raises(ValueError):
        TimingGeometry(
            s_vap_ns=0.0, s_vb_ns=0.0, r_vap_ns=5.0, r_vb_ns=5.0, d_sep_m=10.0,
            d_sep_sigma_m=-0.1,
        )


def test_zero_round_trip_collapses_region():
    tg0 = TimingGeometry(
        s_vap_ns=1000.0, s_vb_ns=1000.0, r_vap_ns=1000.0, r_vb_ns=2000.0, d_sep_m=50.0
    )
    spec0 = region_spec(tg0)
    assert spec0.radius_a == 0.0
    lo, hi = axis_interval("quantum", spec0)
    assert hi - lo <= 0.0
    assert region_size("quantum", spec0, 1) == (0.0, 0.0)


def test_point_examples(spec):
    d = spec.d_sep
    assert point_in_quantum_region((d / 2.0,), spec)
    assert point_in_quantum_region((d - 92.8,), spec)
    assert not point_in_quantum_region((0.0,), spec)
    assert point_in_classical_region((0.0,), spec)
    assert not point_in_quantum_region((500.0,), spec)
    assert not point_in_classical_region((500.0,), spec)
    assert point_in_quantum_region((d / 2.0, 50.0), spec)
    assert point_in_quantum_region((d / 2.0, 30.0, 40.0), spec)
    with pytest.raises(ValueError):
        point_in_quantum_region((1.0, 2.0, 3.0, 4.0), spec)


@given(
    st.floats(-400.0, 600.0),
    st.floats(-300.0, 300.0),
    st.floats(-300.0, 300.0),
)
@settings(max_examples=300, deadline=None)
def test_quantum_region_inside_classical(x, y, z):
    spec = region_spec(TimingGeometry(**REFERENCE_TIMING))
    if point_in_quantum_region((x, y, z), spec):
        assert point_in_classical_region((x, y, z), spec)


def test_rotational_symmetry(spec):
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(100):
        x = rng.uniform(-100, 300)
        rho = rng.uniform(0, 200)
        theta = rng.uniform(0, 2 * math.pi)
        variants = [
            (x, rho),
            (x, -rho),
            (x, rho, 0.0),
            (x, 0.0, rho),
            (x, rho * math.cos(theta), rho * math.sin(theta)),
        ]
        results = {point_in_quantum_region(p, spec) for p in variants}
        assert len(results) == 1
        results = {point_in_classical_region(p, spec) for p in variants}
        assert len(results) == 1


def test_regions_grow_with_timing_slack(tg, spec):
    later = TimingGeometry(**{**REFERENCE_TIMING, "r_vap_ns": tg.r_vap_ns + 100.0})
    bigger = region_spec(later)
    assert bigger.radius_a > spec.radius_a
    assert bigger.ellipse_ba > spec.ellipse_ba
    for region in ("quantum", "lens_a", "lens_b"):
        lo0, hi0 = axis_interval(region, spec)
        lo1, hi1 = axis_interval(region, bigger)
        assert hi1 - lo1 >= hi0 - lo0 - 1e-12


def _assert_axis_interval_matches_scan(region, spec):
    lo, hi = axis_interval(region, spec)
    first, last, step = axis_scan(region, spec)
    if first is None:
        # No grid point inside: empty, or shorter than one grid step.
        assert hi - lo < step
        return
    slack = 1e-9 * (1.0 + abs(first) + abs(last))
    assert first - step - slack < lo <= first + slack
    assert last - slack <= hi < last + step + slack


def test_axis_intervals_match_oracles(spec):
    for region in ("quantum", "lens_a", "lens_b"):
        _assert_axis_interval_matches_scan(region, spec)
    lo, hi = axis_interval("quantum", spec)
    assert lo == pytest.approx(78.391, abs=1e-3)
    assert hi == pytest.approx(157.286, abs=1e-3)
    with pytest.raises(ValueError):
        axis_interval("nowhere", spec)

    # An unreachable sum cap empties the region, though the disks overlap.
    for region in ("quantum", "lens_a", "lens_b"):
        lo, hi = axis_interval(region, HOLLOW)
        assert lo > hi
        assert axis_scan(region, HOLLOW)[0] is None
    assert not point_in_quantum_region((25.0,), HOLLOW)
    # A cap equal to d keeps the station segment.
    flat = RegionSpec(radius_a=40.0, radius_b=40.0, ellipse_ab=50.0, ellipse_ba=50.0,
                      d_sep=50.0)
    assert axis_interval("quantum", flat) == (10.0, 40.0)
    assert axis_interval("lens_a", flat) == (0.0, 40.0)

    rng = np.random.Generator(np.random.Philox(key=19))
    for _ in range(50):
        r = RegionSpec(
            radius_a=float(rng.uniform(1, 200)),
            radius_b=float(rng.uniform(1, 200)),
            ellipse_ab=float(rng.uniform(1, 400)),
            ellipse_ba=float(rng.uniform(1, 400)),
            d_sep=float(rng.uniform(1, 300)),
        )
        for region in ("quantum", "lens_a", "lens_b"):
            _assert_axis_interval_matches_scan(region, r)


def test_region_size_1d_matches_closed_form(spec):
    expectations = {
        "quantum": 78.895,
        "lens_a": 196.321,
        "lens_b": 156.570,
        "classical": 273.993,
    }
    lengths = {r: max(hi - lo, 0.0) for r in ("quantum", "lens_a", "lens_b")
               for lo, hi in [axis_interval(r, spec)]}
    lengths["classical"] = lengths["lens_a"] + lengths["lens_b"] - lengths["quantum"]
    for region, expect in expectations.items():
        size, err = region_size(region, spec, 1)
        assert err == 0.0
        assert size == pytest.approx(lengths[region], rel=1e-12, abs=1e-12)
        assert abs(size - expect) <= max(4.0 * err, 0.05)


def test_region_size_3d_sphere_limit():
    ball = RegionSpec(
        radius_a=10.0, radius_b=1e6, ellipse_ab=1e6, ellipse_ba=1e6, d_sep=20.0
    )
    assert region_size("quantum", ball, 3) == (
        pytest.approx(sphere_volume(10.0), rel=1e-12), 0.0)
    assert region_size("quantum", ball, 2) == (pytest.approx(math.pi * 100.0, rel=1e-12), 0.0)


def test_region_size_3d_matches_direct_oracle(spec):
    size, err = region_size("quantum", spec, 3)
    lo, hi = axis_interval("quantum", spec)
    span = hi - lo
    oracle, oerr = direct_3d_volume(
        quantum_lengths_ok, spec, (lo - 0.02 * span, hi + 0.02 * span),
        spec.radius_b * 1.02, 500_000, seed=33,
    )
    assert abs(size - oracle) <= 4.0 * math.hypot(err, oerr)
    union, uerr = region_size("classical", spec, 3)
    uoracle, uoerr = direct_3d_volume(
        classical_lengths_ok, spec, (-45.0, 240.0), spec.radius_a * 1.02,
        500_000, seed=37,
    )
    assert abs(union - uoracle) <= 4.0 * math.hypot(uerr, uoerr)


def test_region_size_deterministic(spec):
    for dim in (1, 2, 3):
        assert region_size("quantum", spec, dim) == region_size("quantum", spec, dim)


def test_region_size_hollow_region_is_zero():
    for dim in (1, 2, 3):
        assert region_size("quantum", HOLLOW, dim) == (0.0, 0.0)


def _oracle_specs():
    """The reference spec, 20 random specs and tangent or degenerate ones."""
    specs = [region_spec(TimingGeometry(**REFERENCE_TIMING))]
    rng = np.random.Generator(np.random.Philox(key=43))
    for _ in range(20):
        d = float(rng.uniform(20, 300))
        specs.append(RegionSpec(
            radius_a=float(rng.uniform(0.2, 1.2) * d),
            radius_b=float(rng.uniform(0.2, 1.2) * d),
            ellipse_ab=float(rng.uniform(0.9, 2.5) * d),
            ellipse_ba=float(rng.uniform(0.9, 2.5) * d),
            d_sep=d,
        ))
    specs += [
        RegionSpec(30.0, 200.0, 250.0, 260.0, 100.0),   # disk A inside both ellipses
        RegionSpec(80.0, 70.0, 100.0, 100.0, 100.0),    # cap = d
        HOLLOW,                                          # cap < d
        RegionSpec(40.0, 50.0, 300.0, 300.0, 100.0),    # disjoint disks
        RegionSpec(40.0, 60.0, 300.0, 300.0, 100.0),    # tangent disks
        RegionSpec(100.0, 300.0, 300.0, 300.0, 100.0),  # disk A tangent inside the ellipses
    ]
    return specs


def test_region_size_matches_monte_carlo_oracle():
    for spec in _oracle_specs():
        for region in ("quantum", "lens_a", "lens_b", "classical"):
            for dim in (1, 2, 3):
                size, err = region_size(region, spec, dim)
                assert err == 0.0
                oracle, oerr = region_size_mc(region, spec, dim, 1_000_000, seed=47)
                assert abs(size - oracle) <= 4.0 * oerr, (spec, region, dim, size, oracle)


def _bits(values):
    """dtype, shape and bytes: equal only for bit-identical arrays (-0.0 != 0.0)."""
    values = np.asarray(values)
    return values.dtype, values.shape, values.tobytes()


# Lengths as small integers make ties (cap == d, tangent disks) common.
_LENGTH = st.one_of(st.integers(0, 12).map(float),
                    st.floats(0.0, 12.0, allow_subnormal=False))
_SEPARATION = st.one_of(st.integers(1, 6).map(float), st.floats(0.5, 6.0))


@given(draws=st.lists(st.tuples(_LENGTH, _LENGTH, _LENGTH, _LENGTH, _SEPARATION),
                      min_size=1, max_size=30),
       scaled=st.booleans(), dims=st.sampled_from([(1,), (2,), (3,), (2, 3), (1, 2, 3)]))
# Hollow: both sum caps below the separation, though the disks overlap.
@example(draws=[(100.0, 100.0, 10.0, 10.0, 50.0)], scaled=False, dims=(1, 2, 3))
# One sum cap below the separation: the quantum region and one lens are empty.
@example(draws=[(2.0, 2.0, 0.5, 3.0, 1.0), (2.0, 2.0, 3.0, 0.5, 1.0)], scaled=True,
         dims=(1, 2, 3))
# Cap == separation: the quantum region is a segment of zero area.
@example(draws=[(80.0, 70.0, 100.0, 100.0, 100.0)], scaled=False, dims=(1, 2, 3))
# A single draw of the reference geometry.
@example(draws=[(157.28611309, 116.70920391, 274.81974625, 273.17088773, 195.1)],
         scaled=True, dims=(2,))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_one_pass_sizer_matches_per_dim_oracle(draws, scaled, dims):
    ra, rb, s_ab, s_ba, d = np.array(draws).T
    # As quantum_advantages (separation-scaled, d = 1) and region_sizes call it.
    args = (ra / d, rb / d, s_ab / d, s_ba / d, 1.0) if scaled else (ra, rb, s_ab, s_ba, d)
    for region in REGIONS:
        lo, hi, sizes = _measure(region, dims, *args)
        assert set(sizes) == {1, *dims}
        for dim in sizes:
            o_lo, o_hi, o_size = measure_per_dim(region, dim, *args)
            assert _bits(lo) == _bits(o_lo) and _bits(hi) == _bits(o_hi)
            assert _bits(sizes[dim]) == _bits(o_size), (region, dim)


# Subnormal lengths overflow the u / r of the 2D integrand.
_TINY_LENGTH = st.one_of(_LENGTH, st.floats(0.0, 1e-300),
                         st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]))


@given(draws=st.lists(st.tuples(_TINY_LENGTH, _TINY_LENGTH, _TINY_LENGTH, _TINY_LENGTH,
                                _SEPARATION), min_size=1, max_size=10))
@example(draws=[(5e-324, 5e-324, 5e-324, 5e-324, 1.0)])
@settings(derandomize=True, max_examples=60, deadline=None)
def test_sizer_is_warning_free_on_subnormal_lengths(draws):
    ra, rb, s_ab, s_ba, d = np.array(draws).T
    for region in REGIONS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi, sizes = _measure(region, (1, 2, 3), ra, rb, s_ab, s_ba, d)
        with np.errstate(all="ignore"):
            for dim in (1, 2, 3):
                o_lo, o_hi, o_size = measure_per_dim(region, dim, ra, rb, s_ab, s_ba, d)
                assert _bits(lo) == _bits(o_lo) and _bits(hi) == _bits(o_hi)
                assert _bits(sizes[dim]) == _bits(o_size), (region, dim)


def test_central_sizes_match_per_dim_oracle():
    for spec in _oracle_specs():
        args = (spec.radius_a, spec.radius_b, spec.ellipse_ab, spec.ellipse_ba,
                np.array([spec.d_sep]))
        sizes = region_sizes(spec)
        assert list(sizes) == [1, 2, 3]
        for region in REGIONS:
            o_lo, o_hi, _ = measure_per_dim(region, 1, *args)
            assert axis_interval(region, spec) == (float(o_lo[0]), float(o_hi[0]))
            for dim in (1, 2, 3):
                expect = float(measure_per_dim(region, dim, *args)[2][0])
                assert sizes[dim][region].hex() == expect.hex()
                assert region_size(region, spec, dim)[0].hex() == expect.hex()


def test_region_size_validation(spec):
    with pytest.raises(ValueError):
        region_size("quantum", spec, 4)
    with pytest.raises(ValueError):
        region_size("donut", spec, 2)


def test_classical_sizes_union_and_comparators():
    # Floats: the union counts the lens overlap (the quantum region) once.
    assert classical_sizes(1, 3.0, 5.0, 4.0, 2.0) == {
        "union": 6.0, "comparable": 9.0, "ideal": 2.0}
    for dim in (2, 3):
        assert classical_sizes(dim, 3.0, 5.0, 4.0, 2.0) == {
            "union": 6.0, "comparable": 6.0, "ideal": 0.0}
    # Arrays of draws, one entry per draw.
    q, a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0]), np.array([4.0, 6.0])
    one = classical_sizes(1, q, a, b, 1.0)
    np.testing.assert_array_equal(one["union"], [6.0, 9.0])
    np.testing.assert_array_equal(one["comparable"], [7.0, 11.0])
    assert one["ideal"] == 1.0
    np.testing.assert_array_equal(classical_sizes(3, q, a, b, 1.0)["comparable"], [6.0, 9.0])


def test_quantum_advantage_returns_both_comparators(tg):
    res = quantum_advantage(tg, 1, mc_outer=1_000, seed=2)
    assert list(res) == ["ideal", "comparable"]
    assert [r.comparator for r in res.values()] == ["ideal", "comparable"]
    assert all(r.dim == 1 and not r.degenerate for r in res.values())
    res3 = quantum_advantage(tg, 3, mc_outer=1_000, seed=2)
    assert res3["ideal"].degenerate and not res3["comparable"].degenerate
    assert res3["ideal"].empty_fraction == res3["comparable"].empty_fraction


def test_quantum_advantage_reference_bands(tg):
    for (dim, comparator), (expect, spread) in REFERENCE_ADVANTAGE.items():
        res = quantum_advantage(tg, dim, mc_outer=20_000, seed=11)[comparator]
        assert not res.degenerate
        assert res.empty_fraction <= 0.01
        assert abs(res.ratio - expect) <= 3.0 * max(spread, 0.02) + 0.05
        assert res.sigma == pytest.approx(spread, abs=3.0 * spread)
        assert res.samples.size <= 20_000


def test_quantum_advantage_deterministic(tg):
    a = quantum_advantage(tg, 1, mc_outer=5_000, seed=7)["comparable"]
    b = quantum_advantage(tg, 1, mc_outer=5_000, seed=7)["comparable"]
    assert a.ratio == b.ratio and a.sigma == b.sigma


def test_quantum_advantage_1d_comparable_is_ideal_plus_two(tg):
    # lens A + lens B = d + 2 quantum on the axis, draw by draw.
    ideal = quantum_advantage(tg, 1, mc_outer=20_000, seed=13)["ideal"]
    comp = quantum_advantage(tg, 1, mc_outer=20_000, seed=13)["comparable"]
    assert ideal.samples.size == comp.samples.size == 20_000
    np.testing.assert_allclose(comp.samples, ideal.samples + 2.0, rtol=1e-12, atol=0)


def test_quantum_advantage_zero_uncertainty_matches_closed_form(tg):
    exact = TimingGeometry(
        s_vap_ns=tg.s_vap_ns, s_vb_ns=tg.s_vb_ns,
        r_vap_ns=tg.r_vap_ns, r_vb_ns=tg.r_vb_ns, d_sep_m=tg.d_sep_m,
    )
    spec = region_spec(exact)
    q, a, b = (hi - lo for lo, hi in (axis_interval(r, spec)
                                      for r in ("quantum", "lens_a", "lens_b")))
    res = quantum_advantage(exact, 1, mc_outer=200, seed=3)["comparable"]
    assert res.sigma <= 1e-12
    assert res.ratio == pytest.approx((a + b) / q, rel=1e-12)
    assert res.ratio == pytest.approx((196.321 + 156.570) / 78.895, rel=0.02)
    ideal = quantum_advantage(exact, 1, mc_outer=200, seed=3)["ideal"]
    assert ideal.ratio == pytest.approx(spec.d_sep / q, rel=1e-12)
    assert ideal.ratio == pytest.approx(195.1 / 78.895, rel=0.02)


def test_quantum_advantage_ideal_degenerate_above_1d(tg):
    for dim in (2, 3):
        res = quantum_advantage(tg, dim, mc_outer=2_000, seed=5)["ideal"]
        assert res.degenerate
        assert res.ratio == math.inf
        assert res.samples.size == 0


def test_quantum_advantages_draws_once_for_every_dim(tg):
    shared = quantum_advantages(tg, (1, 2, 3), mc_outer=2_000, seed=4)
    assert list(shared) == [1, 2, 3]
    for dim in (1, 2, 3):
        alone = quantum_advantage(tg, dim, mc_outer=2_000, seed=4)
        for comparator in ("ideal", "comparable"):
            a, b = shared[dim][comparator], alone[comparator]
            assert _bits(a.samples) == _bits(b.samples)
            assert (a.dim, a.comparator, a.degenerate) == (b.dim, b.comparator, b.degenerate)
            assert a.ratio == b.ratio and a.empty_fraction == b.empty_fraction
            assert a.sigma == b.sigma or (math.isnan(a.sigma) and math.isnan(b.sigma))
    assert list(quantum_advantages(tg, (3, 1), mc_outer=50, seed=4)) == [3, 1]
    with pytest.raises(ValueError):
        quantum_advantages(tg, ())
    with pytest.raises(ValueError):
        quantum_advantages(tg, (1, 4))


def test_quantum_advantages_report_empty_regions_per_dim():
    # A sum cap equal to the separation: a segment of zero area and volume.
    flat = TimingGeometry(s_vap_ns=2000.0, s_vb_ns=0.0, r_vap_ns=4000.0, r_vb_ns=3000.0,
                          d_sep_m=SPEED_OF_LIGHT_M_PER_NS * 1000.0)
    res = quantum_advantages(flat, (1, 2, 3), mc_outer=20)
    assert res[1]["ideal"].ratio == pytest.approx(1.0, rel=1e-12)
    for dim in (2, 3):
        assert isinstance(res[dim], EmptyRegionError)
        assert str(res[dim]) == "no parameter draw produced a nonempty quantum region"
        with pytest.raises(EmptyRegionError, match="no parameter draw"):
            quantum_advantage(flat, dim, mc_outer=20)
    # Run-wide failures leave every dim without ratios.
    marginal = TimingGeometry(s_vap_ns=1000.0, s_vb_ns=1000.0, r_vap_ns=1000.1,
                              r_vb_ns=2000.0, d_sep_m=50.0, r_vap_sigma_ns=0.5)
    res = quantum_advantages(marginal, (1, 3), mc_outer=5_000)
    assert list(res) == [1, 3] and res[1] is res[3]
    assert "of parameter draws give an empty quantum region" in str(res[1])


def test_quantum_advantage_empty_aborts():
    marginal = TimingGeometry(
        s_vap_ns=1000.0, s_vb_ns=1000.0, r_vap_ns=1000.1, r_vb_ns=2000.0,
        d_sep_m=50.0, r_vap_sigma_ns=0.5,
    )
    with pytest.raises(EmptyRegionError, match="empty quantum region"):
        quantum_advantage(marginal, 1, mc_outer=5_000)["comparable"]
    shaky_d = TimingGeometry(
        s_vap_ns=1000.0, s_vb_ns=1000.0, r_vap_ns=2000.0, r_vb_ns=2000.0,
        d_sep_m=0.5, d_sep_sigma_m=0.3,
    )
    with pytest.raises(EmptyRegionError, match="separation"):
        quantum_advantage(shaky_d, 1, mc_outer=5_000)["comparable"]


def test_quantum_advantage_counts_unreachable_cap_as_empty():
    # ellipse_ba = c * 300 ns = 89.94 m; d = 87.36 +- 1 m exceeds it in
    # about 0.5% of draws, whose quantum region is empty although the
    # disks overlap.
    tight = TimingGeometry(
        s_vap_ns=0.0, s_vb_ns=100.0, r_vap_ns=400.0, r_vb_ns=500.0,
        d_sep_m=87.36, d_sep_sigma_m=1.0,
    )
    res = quantum_advantage(tight, 1, mc_outer=20_000, seed=3)["comparable"]
    assert 0.003 <= res.empty_fraction <= 0.007
    assert res.samples.size == round(20_000 * (1.0 - res.empty_fraction))


def test_quantum_advantage_validation(tg):
    with pytest.raises(ValueError):
        quantum_advantage(tg, 4, mc_outer=100)
    with pytest.raises(ValueError, match="mc_outer must be at least 1"):
        quantum_advantage(tg, 1, mc_outer=0)


def test_speed_of_light_constant():
    assert SPEED_OF_LIGHT_M_PER_NS == pytest.approx(0.299792458, rel=0.0)

"""Region membership, sampling and volume tests.

Monte Carlo volumes are cross-checked against closed forms where they
exist and against an independent one-dimensional cross-section quadrature
(the regions are solids of revolution about the x1 axis) where they do
not.
"""

import math
import tracemalloc

import numpy as np
import pytest

from vexlp import norms, regions
from vexlp.cli import region_from_dict
from vexlp.cutoff import make_cutoff
from vexlp.errors import (
    AnalyticUnavailableError, QuadratureDomainError, SamplingBudgetError, UnboundedRegionError)
from vexlp.exponents import PresetSpec, preset
from vexlp.norms import _meridian
from vexlp.regions import (
    _CHUNK,
    Annulus,
    Ball,
    Box,
    Complement,
    Cusp,
    Cylinder,
    Diff,
    Intersect,
    PowerCusp,
    ShrinkCusp,
    row_norm,
)


def pt(*coords):
    return np.array(coords, dtype=float)


# ---------------------------------------------------------------------------
# row norms


@pytest.mark.parametrize("width", [3, 2])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-310, 1e154, 1e200],
                         ids=["unit", "squares-subnormal", "subnormal", "near-overflow", "overflow"])
def test_row_norm_equals_linalg_norm_bit_for_bit(width, scale):
    rng = np.random.default_rng(width)
    v = rng.standard_normal((5_000, width)) * scale
    v[::7] = 0.0
    v[::11, 0] = np.nan
    v[::13, -1] = -np.inf
    v[::17, 1] = 5e-324  # the smallest subnormal
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(v, axis=1)
        got = row_norm(v)
    assert got.tobytes() == want.tobytes()
    if scale == 1e200:
        assert np.isinf(got[1:7]).all()  # squares overflow to inf, as in linalg.norm


def test_row_norm_reads_integer_rows_as_floats():
    assert row_norm([[3, 4], [0, 0]]).tolist() == [5.0, 0.0]


# ---------------------------------------------------------------------------
# membership


def test_cylinder_membership():
    c = Cylinder()
    assert c.contains(pt(5, 0.5, 0.5))          # 0.25 + 0.25 <= 1
    assert c.contains(pt(-100, 1.0, 0.0))       # boundary is closed
    assert not c.contains(pt(0, 1.0, 0.5))


def test_annulus_membership():
    a = Annulus(1, 2)
    assert not a.contains(pt(0, 0, 3))
    assert a.contains(pt(0, 0, 1.5))
    assert a.contains(pt(1, 0, 0)) and a.contains(pt(2, 0, 0))


def test_power_cusp_membership_radius_reading():
    # cross-section radius x1^gamma: at x1 = 4, gamma = 1/2 the radius is 2
    s = PowerCusp(0.5)
    assert s.contains(pt(4, 1, 1))              # axis distance sqrt(2) < 2
    assert s.contains(pt(4, 2, 0))              # on the boundary
    assert not s.contains(pt(4, 2, 1))          # sqrt(5) > 2
    assert not s.contains(pt(-1, 0, 0))         # x1 > 0 required
    assert not s.contains(pt(0, 0, 0))


def test_shrink_cusp_membership():
    n = ShrinkCusp(0.5)
    assert n.contains(pt(1, 0.1, 0))            # radius bound 1 at x1 = 1
    assert n.contains(pt(16, 0.4, 0.2))         # bound 16^(-1/4) = 0.5
    assert not n.contains(pt(16, 0.5, 0.2))
    assert n.contains(pt(1e-6, 10, 10))         # flares out near x1 = 0


def test_membership_is_pure():
    regions = [Ball(radius=2), Annulus(1, 3), PowerCusp(0.4), ShrinkCusp(0.6)]
    pts = np.random.default_rng(0).normal(scale=3, size=(500, 3))
    for r in regions:
        first = r.contains(pts)
        assert np.array_equal(first, r.contains(pts))


def test_boolean_membership_matches_pointwise_logic():
    a, b = Annulus(1, 2), Cylinder()
    pts = np.random.default_rng(1).uniform(-3, 3, size=(2000, 3))
    np.testing.assert_array_equal(
        Diff(a, b).contains(pts), a.contains(pts) & ~b.contains(pts)
    )
    np.testing.assert_array_equal(
        Intersect(a, b).contains(pts), a.contains(pts) & b.contains(pts)
    )
    np.testing.assert_array_equal(Complement(b).contains(pts), ~b.contains(pts))


@pytest.mark.parametrize("keep", [Annulus(32, 64), ShrinkCusp(0.5, 16),
                                  Intersect(Annulus(8, 16), PowerCusp(0.5))],
                         ids=["shell", "shrink-cusp", "shell-and-cusp"])
def test_diff_is_an_intersection_with_a_complement(keep):
    # the complement's extent is infinite, so keep's boxes and tail bound stand
    diff = Diff(keep, Cylinder())
    assert diff.envelope() == keep.envelope()
    assert diff.volume("monte_carlo", n=20_000, seed=5) == \
        Intersect(keep, Complement(Cylinder())).volume("monte_carlo", n=20_000, seed=5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Annulus(2, 1)
    with pytest.raises(ValueError):
        Annulus(-1, 1)
    with pytest.raises(ValueError):
        PowerCusp(1.0)
    with pytest.raises(ValueError):
        ShrinkCusp(0.0)
    with pytest.raises(ValueError):
        Ball(radius=0.0)


# ---------------------------------------------------------------------------
# analytic volumes


def test_analytic_volumes():
    assert Cylinder(10).volume().value == pytest.approx(20 * math.pi)
    assert PowerCusp(0.5, 4).volume().value == pytest.approx(8 * math.pi)
    assert ShrinkCusp(0.5, 16).volume().value == pytest.approx(8 * math.pi)
    assert Ball(radius=2).volume().value == pytest.approx(32 * math.pi / 3)
    assert Annulus(1, 2).volume().value == pytest.approx(4 * math.pi / 3 * 7)


def test_volume_errors():
    with pytest.raises(UnboundedRegionError):
        Cylinder().volume()
    with pytest.raises(UnboundedRegionError):
        PowerCusp(0.5).volume()
    with pytest.raises(AnalyticUnavailableError):
        Intersect(Ball(radius=1), Cylinder()).volume()
    with pytest.raises(UnboundedRegionError):
        Complement(Ball(radius=1)).volume("monte_carlo", n=100)


# ---------------------------------------------------------------------------
# Monte Carlo vs analytic: 3 reported standard errors


def _bounded_family(kind: str, **params):
    """A bounded axial family built from its config grammar entry; its id is
    the entry's name in CamelCase with the parameters, the name the case
    has always had in this suite."""
    name = kind.title().replace("_", "")
    args = ", ".join(f"{k}={v!r}" for k, v in params.items())
    return pytest.param(region_from_dict({"type": kind, **params}), id=f"{name}({args})")


MC_CASES = []
for R in (2.0, 8.0, 32.0):
    MC_CASES.append(Ball(radius=R))
    MC_CASES.append(Annulus(R / 2, R))
    MC_CASES.append(_bounded_family("cylinder_segment", half_length=R))
for e in (0.25, 0.5, 0.75):
    for R in (2.0, 8.0, 32.0):
        MC_CASES.append(_bounded_family("truncated_power_cusp", gamma=e, length=R))
        MC_CASES.append(_bounded_family("truncated_shrink_cusp", sigma=e, length=R))


@pytest.mark.parametrize("region", MC_CASES, ids=lambda r: repr(r))
def test_monte_carlo_agrees_with_analytic(region):
    exact = region.volume().value
    est = region.volume("monte_carlo", n=200_000, seed=20)
    assert abs(est.value - exact) <= 3.0 * est.std_error + 1e-12 * exact


# ---------------------------------------------------------------------------
# chunked Monte Carlo volume: the draws and the counts of one whole draw


def _one_shot_volume(region, n, seed):
    """The stratified estimate with each stratum drawn and tested at once."""
    env = region.envelope()
    total = var = 0.0
    for box, vol, n_i, rng in env.strata(n, seed):
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        p = float(np.mean(region.contains(lo + rng.random((n_i, 3)) * (hi - lo))))
        total += vol * p
        var += vol**2 * p * (1.0 - p) / n_i
    return total, math.sqrt(var) + env.tail_bound


@pytest.mark.parametrize("region, n, boxes", [
    (Ball(radius=1), 2 * _CHUNK + 7, 1),
    (Intersect(Annulus(128, 256), ShrinkCusp(0.5)), 3 * _CHUNK, 120),
], ids=["one-box", "shell-cusp"])
def test_chunked_volume_equals_one_shot_draw(region, n, boxes):
    assert len(region.envelope().boxes) == boxes
    est = region.volume("monte_carlo", n=n, seed=4)
    assert (est.value, est.std_error) == _one_shot_volume(region, n, 4)


def test_box_sample_equals_broadcast_affine_step():
    box = Box((-1.0, 2.0, -3.5), (0.5, 7.0, 1e-3))
    n = _CHUNK + 3
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    expected = lo + np.random.default_rng(9).random((n, 3)) * (hi - lo)
    assert (box.sample(np.random.default_rng(9), n) == expected).all()
    out = np.empty((n, 3))
    assert box.sample(np.random.default_rng(9), n, out=out) is out
    assert (out == expected).all()


def test_monte_carlo_volume_memory_does_not_grow_with_samples():
    tracemalloc.start()
    try:
        Annulus(1, 2).volume("monte_carlo", n=4_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# decided strata: a box whose draws are all members, or none, is not drawn


def _decided_boxes():
    """(region, box) pairs: random boxes and boxes built to sit on a boundary."""
    rng = np.random.default_rng(17)
    shell, ball = Annulus(2.0, 4.0), Ball((3.0, -2.0, 1.0), 1.5)
    far_ball = Ball((1e8, 0.0, 0.0), 1.0)  # x - c cancels; ulps of x are 1.5e-8
    cases = []
    for region in (shell, ball, Annulus(0.0, 3.0)):
        c = np.asarray(getattr(region, "center", (0.0, 0.0, 0.0)))
        for _ in range(300):  # random boxes of every size about the centre
            a, b = np.sort(c + rng.normal(size=(2, 3)) * rng.choice([0.3, 1.0, 3.0]), axis=0)
            cases.append((region, Box(tuple(a), tuple(b))))
    # corners exactly on r_inner and r_outer, on an axis and on a diagonal
    for r in (2.0, 4.0):
        d = r / math.sqrt(3.0)
        for lo, hi in [((r, 0.0, 0.0), (r, 0.0, 0.0)), ((0.0, 0.0, 0.0), (r, 0.0, 0.0)),
                       ((r, -0.0, 0.0), (5.0, 0.0, 0.0)), ((0.0, 0.0, 0.0), (d, d, d)),
                       ((d, d, d), (5.0, 5.0, 5.0)), ((-d, -d, -d), (d, d, d)),
                       ((-r, 0.0, 0.0), (r, 0.0, 0.0)), ((-5.0, -r, -0.5), (-r, r, 0.5))]:
            cases.append((shell, Box(lo, hi)))
        for k in range(-4, 5):  # a few floats wide, with the sphere inside or at an end
            x = float(np.nextafter(r, r + k)) if k else r
            for w in (1, 3, 40):
                cases.append((shell, Box((x, 0.0, 0.0), (x + w * math.ulp(x), 0.0, 0.0))))
                cases.append((shell, Box((d, d, d), (d + w * math.ulp(d),) * 3)))
    for k in range(-3, 4):  # straddling 0, and far from the origin
        cases.append((shell, Box((-1.0, -1.0, -1.0), (1.0 + k * 1e-16, 1.0, 1.0))))
        x = 1e8 + 1.0 + k * math.ulp(1e8)
        cases.append((far_ball, Box((x, 0.0, 0.0), (x + 4 * math.ulp(1e8), 0.0, 0.0))))
        cases.append((far_ball, Box((1e8 - 0.5, -0.5, -0.5), (x, 0.5, 0.5))))
    for R in (8.0, 256.0):  # the 120 geometric strata of the shrinking cusp
        region = Intersect(Annulus(R / 2, R), ShrinkCusp(0.5))
        cases += [(region, box) for box in region.envelope().boxes]
    return cases


def test_a_decided_box_agrees_with_membership_on_its_draws_and_corners():
    rng = np.random.default_rng(3)
    decided = {True: 0, False: 0}
    for region, box in _decided_boxes():
        verdict = region._decides(box)
        if verdict is None:
            continue
        decided[verdict] += 1
        corners = np.array(np.meshgrid(*zip(box.lo, box.hi), indexing="ij")).reshape(3, -1).T
        pts = np.vstack([box.sample(rng, 2000), corners])
        assert (region.contains(pts) == verdict).all(), (region, box, verdict)
    assert min(decided.values()) >= 50, decided


VOLUME_GROWTH = {
    "tube": lambda R: Intersect(Annulus(R / 2, R), Cylinder()),
    "widening_cusp": lambda R: Intersect(Annulus(R / 2, R), PowerCusp(0.5)),
    "shrinking_cusp": lambda R: Intersect(Annulus(R / 2, R), ShrinkCusp(0.5)),
    "outside_tube": lambda R: Diff(Annulus(R / 2, R), Cylinder()),
}


@pytest.mark.parametrize("R", [8.0, 256.0])
@pytest.mark.parametrize("kind", sorted(VOLUME_GROWTH))
def test_volume_skips_decided_strata_with_the_bits_of_the_full_draw(kind, R, monkeypatch):
    region = VOLUME_GROWTH[kind](R)
    decided = [box for box in region.envelope().boxes if region._decides(box) is not None]
    assert bool(decided) == kind.endswith("cusp")
    drawn, sample = [], Box.sample
    monkeypatch.setattr(Box, "sample", lambda box, *a, **k: drawn.append(box) or sample(box, *a, **k))
    est = region.volume("monte_carlo", n=300_000, seed=6)
    assert not set(drawn) & set(decided)
    assert (est.value, est.std_error) == _one_shot_volume(region, 300_000, 6)


# ---------------------------------------------------------------------------
# sampling


def test_sampler_points_are_members():
    for region in (Ball(radius=1), Annulus(1, 2), ShrinkCusp(0.5, 16)):
        pts = region.sample(1000, seed=7)
        assert 0 < pts.shape[0] <= 1000 and pts.shape[1] == 3
        assert bool(region.contains(pts).all())
        np.testing.assert_array_equal(pts, region.sample(1000, seed=7))


def test_sampler_intersection():
    region = Intersect(Annulus(1, 2), Cylinder())
    pts = region.sample(500, seed=3)
    assert bool(Annulus(1, 2).contains(pts).all())
    assert bool(Cylinder().contains(pts).all())


def test_ball_sample_mean_is_centered():
    n = 100_000
    pts = Ball(radius=1).sample(n, seed=11)
    # componentwise variance of a uniform ball coordinate is 1/5
    se = math.sqrt(1.0 / 5.0 / n)
    assert np.all(np.abs(pts.mean(axis=0)) <= 3.0 * se)


def test_sampler_deterministic():
    a = Annulus(1, 2).sample(100, seed=5)
    b = Annulus(1, 2).sample(100, seed=5)
    np.testing.assert_array_equal(a, b)


def test_sample_unbounded_raises():
    with pytest.raises(UnboundedRegionError):
        Cylinder().sample(10, seed=0)
    # a box volume that underflows to 0 leaves no sampling weights
    with pytest.raises(UnboundedRegionError, match="envelope is empty"):
        Ball(radius=5e-324).sample(10, seed=0)


def test_sample_empty_region_fails_at_once():
    with pytest.raises(SamplingBudgetError, match="holds none of its 10 draws"):
        Diff(Ball(radius=1), Ball(radius=2)).sample(10, 0)


def test_sample_thin_region_returns_its_members():
    # a thin shell through the tube holds about 0.3% of its envelope draws
    thin = Intersect(Annulus(255, 256), Cylinder())
    pts = thin.sample(100_000, seed=1)
    assert 0 < pts.shape[0] < 1000
    assert np.all(thin.contains(pts))


# ---------------------------------------------------------------------------
# independent cross-section oracle for shell intersections


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def shell_intersection_volume_oracle(R, rho_max_of_x1):
    """1D quadrature of the revolved cross-section of shell /\\ region.

    The shell is R/2 <= |x| <= R; the region constrains the axis distance
    to rho_max_of_x1(x1).  Only regions living in x1 > 0 are handled.
    """
    x = np.unique(
        np.concatenate([np.geomspace(1e-30, R, 200_001), np.linspace(1e-12, R, 200_001)])
    )
    rmax2 = np.minimum(rho_max_of_x1(x) ** 2, np.maximum(R**2 - x**2, 0.0))
    rmin2 = np.maximum(R**2 / 4 - x**2, 0.0)
    area = np.pi * np.maximum(rmax2 - rmin2, 0.0)
    return float(_trapezoid(area, x))


@pytest.mark.parametrize(
    "region,rho",
    [
        (PowerCusp(0.5), lambda x: x**0.5),
        (ShrinkCusp(0.5), lambda x: np.where(x > 0, x**-0.25, np.inf)),
    ],
    ids=["power_cusp", "shrink_cusp"],
)
@pytest.mark.parametrize("R", [2.0, 16.0])
def test_shell_intersection_volume_against_oracle(region, rho, R):
    oracle = shell_intersection_volume_oracle(R, rho)
    est = Intersect(Annulus(R / 2, R), region).volume("monte_carlo", n=400_000, seed=9)
    assert abs(est.value - oracle) <= 4.0 * est.std_error + 0.01 * oracle


def test_shrink_cusp_flare_dominates_small_radii():
    # the shrinking cusp flares near x1 = 0, so shell-intersection volumes
    # carry an O(1) pancake at small R on top of the R^(1-sigma) tube; the
    # clean growth rate emerges once the fit window moves outward
    from vexlp.estimates import fit_decay

    sigma = 0.5
    rho = lambda x: np.where(x > 0, x ** (-sigma / 2.0), np.inf)
    radii = [2.0**k for k in range(1, 9)]
    vols = [shell_intersection_volume_oracle(R, rho) for R in radii]
    full_fit = fit_decay(radii, vols).slope
    late_fit = fit_decay(radii[3:], vols[3:]).slope
    assert abs(late_fit - (1.0 - sigma)) <= 0.1
    assert full_fit < late_fit - 0.05  # the pancake drags the early fit down


def test_shell_tube_growth_slopes_tight_band():
    # the tube family grows within R^1 and its complement within R^3, each
    # to the tighter 0.05 band (the cusp families get 0.1 in the gate)
    from vexlp.estimates import fit_decay

    radii = [2.0**k for k in range(1, 9)]
    tube = [
        Intersect(Annulus(R / 2, R), Cylinder())
        .volume("monte_carlo", n=150_000, seed=140 + i)
        .value
        for i, R in enumerate(radii)
    ]
    rest = [
        Diff(Annulus(R / 2, R), Cylinder())
        .volume("monte_carlo", n=150_000, seed=150 + i)
        .value
        for i, R in enumerate(radii)
    ]
    assert abs(fit_decay(radii, tube).slope - 1.0) <= 0.05
    assert abs(fit_decay(radii, rest).slope - 3.0) <= 0.05


def test_shell_minus_cylinder_volume():
    R = 8.0
    # exact: shell volume minus the two clipped tube pieces
    x = np.linspace(0, R, 400_001)
    rmax2 = np.minimum(1.0, np.maximum(R**2 - x**2, 0.0))
    rmin2 = np.maximum(R**2 / 4 - x**2, 0.0)
    tube = 2.0 * float(_trapezoid(np.pi * np.maximum(rmax2 - rmin2, 0.0), x))
    exact = Annulus(R / 2, R).volume().value - tube
    est = Diff(Annulus(R / 2, R), Cylinder()).volume("monte_carlo", n=300_000, seed=4)
    assert abs(est.value - exact) <= 4.0 * est.std_error + 1e-3 * exact


def test_one_class_per_cusp_family():
    assert Cylinder().half_length == math.inf
    for unbounded in (Cylinder(), PowerCusp(0.5), ShrinkCusp(0.5)):
        with pytest.raises(UnboundedRegionError):
            unbounded.analytic_volume()
    pts = np.random.default_rng(0).uniform(-1.0, 20.0, (20_000, 3))
    clipped = Cylinder(10).contains(pts)
    assert (clipped == (Cylinder().contains(pts) & (np.abs(pts[:, 0]) <= 10))).all()
    assert clipped.any() and (Cylinder().contains(pts) & ~clipped).any()
    for cusp in (PowerCusp, ShrinkCusp):
        clipped = cusp(0.5, 4).contains(pts)
        assert (clipped == (cusp(0.5).contains(pts) & (pts[:, 0] <= 4))).all()
        assert clipped.any()
        with pytest.raises(ValueError, match="length must be positive"):
            cusp(0.5, 0)
    # both cusp families are one Cusp(power, length), power 2 gamma or -sigma
    assert PowerCusp(0.3, 4.0) == Cusp(0.6, 4.0) and ShrinkCusp(0.3, 4.0) == Cusp(-0.3, 4.0)
    for power in (0.0, -1.0, -1.5, 2.0, 3.0, math.nan):
        with pytest.raises(ValueError, match="cusp power must lie in"):
            Cusp(power)
    for length in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="length must be positive"):
            Cusp(0.5, length)
    # the hand-written growth d of the cusp piece is the region's power + 1
    for kind, shape in (("power_cusp", "gamma"), ("shrink_cusp", "sigma")):
        for value in ("3/10", "14/25"):
            spec = PresetSpec.make(kind, outer=4, inner=5, **{shape: value})
            (_, _, growth), _ = spec.pieces()
            assert spec.inner_region().power + 1.0 == pytest.approx(float(growth), rel=1e-15)


def test_ball_center_needs_three_finite_coordinates():
    for center in ((1.0, 0.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match="three finite coordinates"):
            Ball(center, 1.0)
    with pytest.raises(ValueError, match="radius must be positive"):
        Ball(radius=math.nan)
    with pytest.raises(ValueError, match="half_length must be positive"):
        Cylinder(math.nan)


# ---------------------------------------------------------------------------
# polar breaks: where a sphere about the origin crosses a region's boundary

SHAPES = (0.01, 0.5, 0.99)
# the regions with one boundary surface, where every break is a crossing;
# an axial bound or a Diff adds breaks that may fall outside the region
ONE_SURFACE = {
    "tube": Cylinder(),
    **{f"power-cusp-{g}": PowerCusp(g) for g in SHAPES},
    **{f"shrink-cusp-{s}": ShrinkCusp(s) for s in SHAPES},
    "ball-behind": Ball((-3.0, 0.0, 0.0), 2.0),
    "ball-ahead": Ball((40.0, 0.0, 0.0), 30.0),
    "ball-about-the-origin": Ball((1.0, 0.0, 0.0), 3.0),
}
BREAK_REGIONS = {
    **ONE_SURFACE,
    "tube-segment": Cylinder(5.0),
    **{f"power-cusp-{g}-length": PowerCusp(g, 5.0) for g in SHAPES},
    **{f"shrink-cusp-{s}-length": ShrinkCusp(s, 5.0) for s in SHAPES},
    "diff": Diff(Cylinder(40.0), Ball(radius=2.0)),
}


@pytest.mark.parametrize("name", sorted(BREAK_REGIONS))
def test_polar_breaks_are_where_membership_changes(name):
    # on the meridian of each radius, membership is constant between
    # neighbouring breaks, checked just inside each end of each arc and at
    # its midpoint; on one boundary surface, each break flips it, unless
    # an even number of them coincide
    region = BREAK_REGIONS[name]
    r = np.exp(np.random.default_rng(11).uniform(math.log(0.5), math.log(512.0), 400))
    breaks = region.polar_breaks(r)
    assert breaks.shape[0] == r.size
    for radius, row in zip(r, breaks):
        cuts = np.unique(np.concatenate([[0.0, math.pi], row[np.isfinite(row)]]))
        assert 0.0 <= cuts[0] and cuts[-1] <= math.pi
        step = np.minimum(1e-9, 0.25 * np.diff(cuts))
        lo, hi = cuts[:-1] + step, cuts[1:] - step
        inside = [region.contains(_meridian(np.full_like(t, radius), t))
                  for t in (lo, 0.5 * (lo + hi), hi)]
        assert (inside[0] == inside[1]).all() and (inside[1] == inside[2]).all(), radius
        if name in ONE_SURFACE:
            odd = np.array([np.count_nonzero(row == b) % 2 == 1 for b in cuts[1:-1]], dtype=bool)
            assert (odd == (inside[2][:-1] != inside[0][1:])).all(), radius


def _flips(region, radius: float):
    """How often membership flips along the meridian of one radius; None
    where two breaks are one float (an arc thinner than an ulp of its angle)."""
    row = region.polar_breaks(np.array([radius]))[0]
    row = row[np.isfinite(row)]
    if np.unique(row).size < row.size:
        return None
    cuts = np.unique(np.concatenate([[0.0, math.pi], row]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    inside = region.contains(_meridian(np.full_like(mid, radius), mid))
    return int(np.count_nonzero(inside[1:] != inside[:-1]))


@pytest.mark.parametrize("name", sorted(BREAK_REGIONS))
def test_radial_breaks_bound_the_radii_where_the_crossings_change(name):
    # between neighbouring radial breaks a sphere crosses the boundary the
    # same number of times, so the crossing angles move smoothly with r
    region = BREAK_REGIONS[name]
    r = np.exp(np.random.default_rng(12).uniform(math.log(0.5), math.log(512.0), 400))
    cell = np.searchsorted(sorted(region.radial_breaks()), r)
    flips = {}
    for radius, c in zip(r, cell):
        flips.setdefault(c, set()).add(_flips(region, radius))
    assert all(len(counts - {None}) <= 1 for counts in flips.values()), flips


def test_polar_breaks_refuse_a_ball_off_the_axis():
    with pytest.raises(QuadratureDomainError, match="solids of revolution"):
        Ball((0.0, 6.0, 0.0), 1.0).polar_breaks(np.array([4.0, 8.0]))
    assert np.isnan(Ball(radius=3.0).polar_breaks(np.array([2.0, 3.0, 4.0]))).all()


def bisected_breaks(r, power, length):
    """The cusp breaks with every root from the full 63-step bisection of
    the floats' bit patterns: the reference `_cusp_breaks` must equal."""
    r = r[:, None]
    s0 = np.full_like(r, (-0.5 * power) ** (1.0 / (2.0 - power)) if power < 0 else math.nan)
    lo, hi = (np.hstack([0.0 * r, s0]), np.hstack([s0, r])) if power < 0 else (0.0 * r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        def excess(s):
            return s * s + s**power - r * r
        lo, hi = lo.view(np.int64), hi.view(np.int64)
        positive = excess(lo.view(float)) > 0.0
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            same = (excess(mid.view(float)) > 0.0) == positive
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        s = np.where(excess(s0) > 0.0, math.nan, hi.view(float))
        flare = np.full_like(r, 0.5 * math.pi if power < 0 else math.nan)
        return np.hstack([np.arctan2(s ** (0.5 * power), s), flare, np.arccos(length / r)])


# 2 gamma and -sigma: grids over both families, every two-decimal shape of
# the benchmark's preset bands (gamma in [0.45, 0.55], sigma in [0.4, 0.6])
# and SHAPES
CUSP_POWERS = sorted({
    *np.round(np.linspace(0.5, 1.5, 11), 2), *np.round(np.arange(90, 111, 2) / 100, 2),
    *np.round(-np.linspace(0.2, 1.8, 17), 2), *np.round(-np.arange(40, 61) / 100, 2),
    *(2.0 * g for g in SHAPES), *(-s for s in SHAPES),
})


@pytest.mark.parametrize("power", CUSP_POWERS)
def test_cusp_breaks_equal_the_full_bisection(power):
    rng = np.random.default_rng(int(1000 * abs(power)))
    r = [np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 600))]
    if power < 0:  # the shrinking cusp: above its tangency radius, and below it (no root)
        s0 = (-0.5 * power) ** (1.0 / (2.0 - power))
        tangent = math.sqrt(s0**2 + s0**power)
        r += [tangent * np.linspace(1.0, 1.2, 1200),
              tangent * (1.0 + np.geomspace(1e-16, 1e-3, 300)),
              tangent * np.linspace(0.5, 1.0, 60, endpoint=False)]
    r = np.concatenate(r)
    for length in (math.inf, 5.0):
        got, want = regions._cusp_breaks(r, power, length), bisected_breaks(r, power, length)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), power
    if power < 0:
        assert np.isnan(got[-60:, :-2]).all()


@pytest.mark.parametrize("spec", [PresetSpec.make("power_cusp", gamma="0.5", inner=5, outer=4),
                                  PresetSpec.make("shrink_cusp", sigma="0.5", outer=4)],
                         ids=lambda spec: spec.kind)
def test_cusp_breaks_temporaries_do_not_grow_with_the_grid(spec, monkeypatch):
    # the one call of the README decay grid's rule pass, R = 8 * 2^k: 576
    # radii (the fine and the half-order rule of 6 shells) in a few
    # (576, 2) arrays, not a window of floats per root (1.9-3.7 MB)
    p, calls, breaks = preset(spec, validate=False), [], regions._cusp_breaks
    monkeypatch.setattr(regions, "_cusp_breaks", lambda *args: calls.append(args) or breaks(*args))
    monkeypatch.setattr(norms, "_prebuilt", {})
    norms.radial_grid([make_cutoff(8.0 * 2.0**k).size("laplacian") for k in range(6)], p)
    [(r, power, length)] = calls
    assert r.size == 576
    tracemalloc.start()
    try:
        breaks(r, power, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19

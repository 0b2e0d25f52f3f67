"""Modular and Luxemburg norm tests against closed forms and root oracles."""

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from vexlp import norms
from vexlp.cli import exponent_from_dict, field_from_dict
from vexlp.cutoff import RadialCutoff, make_cutoff
from vexlp.errors import (
    ExponentRangeError,
    ExponentRelationError,
    QuadratureDomainError,
    UnboundedRegionError,
)
from vexlp.estimates import alpha_term, beta_terms, shell_terms
from vexlp.exponents import ExponentField, PresetSpec, constant_field, preset, two_piece_field
from vexlp.fields import (
    decaying_solenoidal,
    gaussian_scalar,
    gradient_counterexample,
    inverse_quadratic_scalar,
    zero_scalar,
)
from vexlp.norms import (
    Quadrature,
    _build_nodes,
    _compact,
    _log_moments,
    _modular_at,
    constant_one,
    holder_check,
    integrate,
    integrate_many,
    lemma1_check,
    lemma2_check,
    luxemburg_norm,
    magnitude_power,
    masked,
    modular,
    pointwise_product,
    power_identity_check,
    restriction_identity_check,
)
from vexlp.regions import (
    Annulus,
    Ball,
    Complement,
    Cylinder,
    Diff,
    Intersect,
    PowerCusp,
    Region,
    ShrinkCusp,
    row_norm,
)

MC = Quadrature(n=100_000, seed=0)
RADIAL = Quadrature(scheme="radial")


def bisect_oracle(fn, lo, hi, iters=200):
    """Plain scalar bisection, independent of the norm engine."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# modular


def test_modular_constant_field():
    # c^p * |domain| for constant field and exponent
    val, err = modular(lambda pts: np.full(pts.shape[0], 2.0), constant_field(3.0),
                       Ball(radius=1), MC)
    exact = 8.0 * 4.0 / 3.0 * math.pi
    assert val == pytest.approx(exact, rel=5e-3)
    assert abs(val - exact) <= 4 * err


def test_modular_zero_field():
    val, _ = modular(zero_scalar(), constant_field(3.0), Ball(radius=1), MC)
    assert val == 0.0


def test_modular_infinite_piece_indicator_convention():
    # twice the indicator of the infinite-exponent region: sup exceeds 1
    shrink_field = preset(PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"))
    f = lambda pts: 2.0 * ShrinkCusp(0.5).contains(pts)
    val, _ = modular(f, shrink_field, Annulus(1, 2), Quadrature(n=50_000, seed=1))
    assert math.isinf(val)
    # scaled below one the same field contributes nothing on that piece
    g = lambda pts: 0.5 * ShrinkCusp(0.5).contains(pts)
    val2, _ = modular(g, shrink_field, Annulus(1, 2), Quadrature(n=50_000, seed=1))
    assert math.isfinite(val2)


# ---------------------------------------------------------------------------
# Luxemburg norm


def test_norm_constant_field_closed_form():
    res = luxemburg_norm(constant_one, constant_field(3.0), Ball(radius=1), MC)
    exact = (4.0 * math.pi / 3.0) ** (1.0 / 3.0)
    assert res.status == "finite"
    assert abs(res.value - exact) <= 3 * res.abs_error + 1e-3 * exact


@pytest.mark.parametrize("p0", [2, 3, 4, 6])
def test_norm_gaussian_closed_form(p0):
    res = luxemburg_norm(gaussian_scalar(), constant_field(float(p0)), None, RADIAL)
    exact = (math.pi / p0) ** (3.0 / (2.0 * p0))
    assert res.value == pytest.approx(exact, rel=1e-3)


def test_norm_two_piece_root_oracle():
    # |O1| = 1 with exponent 2, |O2| = 2 with exponent 4: the norm solves
    # lam^-2 + 2 lam^-4 = 1, whose root is exactly sqrt(2)
    oracle = bisect_oracle(lambda lam: lam**-2 + 2 * lam**-4, 1.0, 4.0)
    assert oracle == pytest.approx(math.sqrt(2.0), abs=1e-12)

    r1 = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    r2 = (9.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    field = two_piece_field(Ball(radius=r1), 2.0, 4.0)
    res = luxemburg_norm(constant_one, field, Ball(radius=r2),
                         Quadrature(n=200_000, seed=5))
    assert res.value == pytest.approx(math.sqrt(2.0), abs=0.01)


def test_norm_zero_field():
    res = luxemburg_norm(zero_scalar(), constant_field(3.0), Ball(radius=1), MC)
    assert res.status == "zero" and res.value == 0.0


def test_norm_unit_ball_property():
    res = luxemburg_norm(gaussian_scalar(), constant_field(2.0), None, RADIAL)
    val, _ = modular(lambda pts: gaussian_scalar()(pts) / res.value,
                     constant_field(2.0), None, RADIAL)
    assert val == pytest.approx(1.0, abs=5 * RADIAL.rel_tol)


def test_norm_infinite_piece_reduces_to_sup():
    # field supported only on the infinite-exponent piece: norm = sampled sup
    shrink_field = preset(PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"))
    f = lambda pts: 2.0 * ShrinkCusp(0.5).contains(pts)
    res = luxemburg_norm(f, shrink_field, Annulus(1, 2), Quadrature(n=50_000, seed=2))
    assert res.status == "finite"
    assert res.value == pytest.approx(2.0)


def test_monte_carlo_sups_come_from_the_norms_own_nodes(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a Monte Carlo sup draws no points beside the norm's nodes")

    monkeypatch.setattr(Region, "sample", no_sampling)
    f = decaying_solenoidal(2.0)
    p = preset(PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"))
    domain, quad = Ball(radius=16), Quadrature(n=20_000, seed=7)
    pts = norms._mc_nodes(domain, quad).in_domain[1]
    mag, on_piece = np.linalg.norm(f(pts), axis=1), ~np.isfinite(p(pts))
    assert on_piece.any()
    res = luxemburg_norm(f, p, domain, quad)
    assert norms._frozen(f, p, domain, quad)[2] == mag[on_piece].max() <= res.value
    rep = lemma2_check(f, p, domain, quad)
    assert rep.rhs == mag.max() * luxemburg_norm(constant_one, p, domain, quad).value


def test_norm_counts_evaluations():
    res = luxemburg_norm(constant_one, constant_field(3.0), Ball(radius=1), MC)
    assert res.evaluations > 5


# ---------------------------------------------------------------------------
# moment-form modular: sum_j lam^(-p_j) M_j against the pass over every node

PRESETS = {
    "cylinder": PresetSpec.make("cylinder", inner=5, outer=4),
    "power_cusp": PresetSpec.make("power_cusp", gamma="1/2", inner=5, outer=4),
    "shrink_cusp": PresetSpec.make("shrink_cusp", sigma="1/2", outer=4),
}


def cutoff_term(k: int, radius: float):
    """The cutoff derivative paired with the k-conjugate, as the decay runs pair them."""
    cut = make_cutoff(radius)
    if k == 2:
        return (lambda pts: np.abs(cut.laplacian(pts))), cut.support()
    return (lambda pts: np.linalg.norm(cut.grad(pts), axis=1)), cut.support()


def node_modular(nodes, f, p, lam):
    """The modular of f/lam as a weighted exp/log pass over every in-domain
    node, evaluating f and p afresh."""
    pts, w = nodes.points[nodes.inside], nodes.weights[nodes.inside]
    mag, pv = np.abs(f(pts)), p(pts)
    m = np.isfinite(pv) & (mag > 0.0)
    return float(np.sum(w[m] * np.exp(pv[m] * (np.log(mag[m]) - math.log(lam)))))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_moment_modular_matches_node_pass(kind, k):
    p = preset(PRESETS[kind]).conjugate(k)
    f, shell = cutoff_term(k, 16.0)
    nodes = _build_nodes(shell, Quadrature(n=50_000, seed=3))
    compact, _ = _compact(nodes, f, p)
    exps, log_m = _log_moments(compact)
    assert exps.size == 2  # one moment per preset piece
    rho = _modular_at(exps, log_m)
    overflowed = 0
    for lam in np.geomspace(1e-300, 1e3, 61):
        with np.errstate(over="ignore"):
            node = node_modular(nodes, f, p, lam)
        moment = rho(float(lam))
        if math.isinf(node):
            overflowed += 1
            assert math.isinf(moment), lam
        else:
            assert moment == pytest.approx(node, rel=1e-12, abs=0.0), lam
    assert 0 < overflowed < 61


def _array_modular(exps, log_m, lam):
    """The modular's terms as one array, summed by numpy's own reduce."""
    with np.errstate(over="ignore"):
        return float(np.add.reduce(np.exp(log_m - exps * math.log(lam))))


def _bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 40])
def test_moment_modular_is_the_sum_of_its_terms_bit_for_bit(size):
    # every bit of the array kernel on either side of numpy's pairwise
    # threshold of 8 terms, overflow to +inf included, and no warning
    # without an errstate around the call
    rng = np.random.default_rng(size)
    exps, log_m = rng.uniform(1.0, 8.0, size), rng.uniform(-50.0, 50.0, size)
    lams = np.geomspace(1e-300, 1e300, 601).tolist()
    want = [_array_modular(exps, log_m, lam) for lam in lams]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = _modular_at(exps, log_m)
        got = [rho(lam) for lam in lams]
    assert _bits(got) == _bits(want)
    assert math.isinf(got[0]) and got[-1] < 1e-300


def test_moment_modular_overflows_where_exp_does():
    # at lam = 1 a term is exp(log M_j) itself: the last finite argument
    # of np.exp and the next float past it
    edge = math.log(np.finfo(float).max)
    for top in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), np.inf):
        exps, log_m = np.array([1.0, 2.0]), np.array([top, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _modular_at(exps, log_m)(1.0)
        assert _bits([got]) == _bits([_array_modular(exps, log_m, 1.0)]), top
        assert math.isinf(got) == (top > edge)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_moment_norm_matches_node_pass_norm(kind, k):
    p = preset(PRESETS[kind]).conjugate(k)
    f, shell = cutoff_term(k, 32.0)
    quad = Quadrature(n=50_000, seed=4)
    moment = luxemburg_norm(f, p, shell, quad)
    # the same bracketing and bisection on the node pass
    nodes = _build_nodes(shell, quad)
    steps = []

    def rho(lam):
        steps.append(lam)
        with np.errstate(over="ignore"):
            return node_modular(nodes, f, p, lam)

    root, _ = norms._bisect_root(rho, quad.rel_tol)
    assert moment.evaluations == len(steps)
    assert moment.status == "finite"
    assert moment.value == pytest.approx(root, rel=1e-12)


# ---------------------------------------------------------------------------
# restriction identity


def test_restriction_identity_constant():
    rep = restriction_identity_check(constant_one, constant_field(3.0),
                                     Ball(radius=1), MC)
    assert rep.passed


def test_restriction_identity_piecewise():
    cyl_field = preset(PresetSpec.make("cylinder", outer=4, inner=5))

    def poly(pts):
        return 1.0 + 0.3 * pts[:, 0] ** 2 + 0.1 * pts[:, 1] * pts[:, 2]

    rep = restriction_identity_check(poly, cyl_field, Annulus(1, 2),
                                     Quadrature(n=150_000, seed=3))
    assert rep.passed


def test_restriction_identity_zero():
    rep = restriction_identity_check(zero_scalar(), constant_field(3.0),
                                     Ball(radius=1), MC)
    assert rep.deviation == 0.0


def test_masked_wrapper():
    f = masked(constant_one, Ball(radius=1))
    pts = np.array([[0.5, 0, 0], [2.0, 0, 0]])
    np.testing.assert_array_equal(f(pts), [1.0, 0.0])


# ---------------------------------------------------------------------------
# the two norm lemmas


def test_lemma1_constant_exponent():
    rep = lemma1_check(constant_field(3.0), Ball(radius=1), MC)
    assert rep.passed
    assert rep.lhs == pytest.approx((4 * math.pi / 3) ** (1 / 3), rel=5e-3)


def test_lemma1_two_piece_frozen_values():
    # lhs = sqrt(2) from the root oracle; rhs = 2 max(3^(1/2), 3^(1/4)) = 2 sqrt(3)
    r1 = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    r2 = (9.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    field = two_piece_field(Ball(radius=r1), 2.0, 4.0)
    rep = lemma1_check(field, Ball(radius=r2), Quadrature(n=150_000, seed=4))
    assert rep.passed
    assert rep.lhs == pytest.approx(math.sqrt(2.0), abs=0.02)
    assert rep.rhs == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-9)


def test_lemma1_preset_over_annulus():
    cyl_field = preset(PresetSpec.make("cylinder", outer=4, inner=5))
    rep = lemma1_check(cyl_field, Annulus(2, 4), Quadrature(n=100_000, seed=5))
    assert rep.passed


# p's least and greatest value over a region: a two-piece preset over a
# shell crossing both pieces, a constant, a piece whose ball (volume 3.4e-5)
# a 4,096-point draw over the shell misses (rhs 2 |O|^(1/6) =
# 1.7030144355725443, not 2 |O|^(1/4)), and an inner ball whose first
# matching piece sets p = 6 inside a region equal to the piece of 5 (rhs
# 1.966921627731905, not 2 |O|^(1/5))
LEMMA1_BOUNDS = {
    "cylinder-shell": (preset(PresetSpec.make("cylinder", outer=4, inner=5)), Annulus(4, 8), 4, 5),
    "constant": (constant_field(3.0), Ball(radius=5), 3, 3),
    "thin-piece": (two_piece_field(Ball((0.55, 0, 0), 0.02), 6, 4), Annulus(0.5, 0.6), 4, 6),
    "overlapping-pieces": (ExponentField(((Ball(radius=0.5), 6), (Ball(radius=0.6), 5)), 4),
                           Ball(radius=0.6), 5, 6),
}


@pytest.mark.parametrize("case", LEMMA1_BOUNDS)
@pytest.mark.parametrize("quad", [Quadrature("radial"), Quadrature()], ids=["radial", "mc"])
def test_lemma1_reads_p_bounds_off_its_norms_nodes(quad, case):
    p, region, lower, upper = LEMMA1_BOUNDS[case]
    vol = region.analytic_volume()
    rep = lemma1_check(p, region, quad)
    assert rep.passed
    assert rep.rhs == 2.0 * max(vol ** (1.0 / lower), vol ** (1.0 / upper))


def test_lemma1_needs_a_samplable_region():
    with pytest.raises(UnboundedRegionError, match="no finite sampling envelope"):
        lemma1_check(preset(PresetSpec.make("cylinder", outer=4, inner=5)),
                     Complement(Ball(radius=1)), MC)


def test_lemma2_constant_equality():
    rep = lemma2_check(lambda pts: np.full(pts.shape[0], 2.5), constant_field(3.0),
                       Ball(radius=1), MC)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-2)


def test_lemma2_radius_field():
    f = lambda pts: np.linalg.norm(pts, axis=1)
    rep = lemma2_check(f, constant_field(3.0), Ball(radius=1), MC)
    assert rep.passed


def test_lemma2_zero():
    rep = lemma2_check(zero_scalar(), constant_field(3.0), Ball(radius=1), MC)
    assert rep.passed and rep.lhs == 0.0


# ---------------------------------------------------------------------------
# power identity and Hoelder


def test_power_identity_gaussian():
    rep = power_identity_check(gaussian_scalar(), constant_field(4.0), 2,
                               None, RADIAL)
    assert rep.deviation <= 1e-3
    assert rep.passed


def test_power_identity_constant_s3():
    rep = power_identity_check(constant_one, constant_field(6.0), 3,
                               Ball(radius=1), MC)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-3)


def test_power_identity_requires_margin():
    with pytest.raises(ExponentRangeError):
        power_identity_check(constant_one, constant_field(2.0), 2, Ball(radius=1), MC)


def test_power_identity_zero():
    rep = power_identity_check(zero_scalar(), constant_field(5.0), 2,
                               Ball(radius=1), MC)
    assert rep.deviation == 0.0


def test_holder_constant_fields_ratio_one():
    rep = holder_check(constant_one, constant_one, constant_field(2.0),
                       constant_field(4.0), constant_field(4.0), Ball(radius=1), MC)
    assert rep.deviation == pytest.approx(1.0, rel=5e-3)
    assert rep.passed


def test_holder_bump_fields():
    bump = gaussian_scalar()
    rep = holder_check(bump, bump, constant_field(2.0), constant_field(4.0),
                       constant_field(4.0), Ball(radius=3), MC)
    assert rep.deviation <= 2.0


def test_holder_zero_flag():
    rep = holder_check(constant_one, zero_scalar(), constant_field(2.0),
                       constant_field(4.0), constant_field(4.0), Ball(radius=1), MC)
    assert rep.note == "zero" and rep.deviation == 0.0


def test_holder_relation_violation():
    with pytest.raises(ExponentRelationError):
        holder_check(constant_one, constant_one, constant_field(2.0),
                     constant_field(3.0), constant_field(4.0), Ball(radius=1), MC)


def test_holder_relation_is_read_off_the_tables(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the relation check draws no points")

    monkeypatch.setattr(Region, "sample", no_sampling)
    rep = holder_check(constant_one, constant_one, constant_field(2.0),
                       constant_field(4.0), constant_field(4.0), Ball(radius=1), MC)
    assert rep.passed
    # a two-piece preset against its doubled exponent: 1/p = 1/(2p) + 1/(2p)
    p = preset(PresetSpec.make("cylinder", outer=4, inner=5))
    rep = holder_check(constant_one, constant_one, p, p.divided_by(0.5), p.divided_by(0.5),
                       Ball(radius=2), RADIAL)
    assert rep.passed


def test_holder_refuses_exponents_on_other_regions():
    # q equals 4 everywhere, but its table lists a piece p does not have
    q = two_piece_field(PowerCusp(0.5), 4.0, 4.0)
    with pytest.raises(ExponentRelationError, match="piece regions"):
        holder_check(constant_one, constant_one, constant_field(2.0), q,
                     constant_field(4.0), Ball(radius=1), MC)


def test_pointwise_product_vector_dot():
    f = lambda pts: np.stack([pts[:, 0], pts[:, 1], pts[:, 2]], axis=1)
    prod = pointwise_product(f, f)
    pts = np.array([[1.0, 2.0, 2.0]])
    assert prod(pts)[0] == pytest.approx(9.0)


def test_pointwise_product_scales_a_vector_by_a_scalar():
    f = lambda pts: np.stack([pts[:, 0], pts[:, 1], pts[:, 2]], axis=1)
    g = lambda pts: np.full(pts.shape[0], -2.0)
    pts = np.array([[1.0, 2.0, 2.0]])
    np.testing.assert_array_equal(pointwise_product(f, g)(pts), [[-2.0, -4.0, -4.0]])
    np.testing.assert_array_equal(pointwise_product(g, f)(pts), [[-2.0, -4.0, -4.0]])


def test_magnitude_power():
    f = lambda pts: np.stack([pts[:, 0], pts[:, 1], pts[:, 2]], axis=1)
    assert magnitude_power(f, 2)(np.array([[1.0, 2.0, 2.0]]))[0] == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# quick property sweeps (the full 200-case suites live in the acceptance run)


def random_cases(rng, count):
    for _ in range(count):
        radius = rng.uniform(0.5, 2.5)
        if rng.random() < 0.5:
            p = constant_field(rng.uniform(1.5, 6.0))
        else:
            p = two_piece_field(
                Ball(radius=radius * 0.5), rng.uniform(1.5, 6.0), rng.uniform(1.5, 6.0)
            )
        c, a, d = rng.uniform(0.2, 5.0), rng.uniform(0.1, 1.5), rng.uniform(0.0, 1.0)
        f = (lambda pts, c=c, a=a, d=d:
             c * (1.0 + d * pts[:, 0] ** 2) * np.exp(-a * np.einsum("ij,ij->i", pts, pts)))
        yield f, p, Ball(radius=radius)


def test_homogeneity_quick():
    rng = np.random.default_rng(10)
    for i, (f, p, dom) in enumerate(random_cases(rng, 20)):
        quad = Quadrature(n=4096, seed=100 + i)
        c = rng.uniform(0.1, 10.0)
        base = luxemburg_norm(f, p, dom, quad).value
        scaled = luxemburg_norm(lambda pts: c * f(pts), p, dom, quad).value
        assert scaled == pytest.approx(c * base, rel=2 * quad.rel_tol)


def test_monotonicity_quick():
    rng = np.random.default_rng(11)
    for i, (f, p, dom) in enumerate(random_cases(rng, 20)):
        quad = Quadrature(n=4096, seed=200 + i)
        g = lambda pts: f(pts) + 0.5
        nf = luxemburg_norm(f, p, dom, quad).value
        ng = luxemburg_norm(g, p, dom, quad).value
        assert nf <= ng + 2 * quad.rel_tol * max(1.0, ng)


def test_dilation_invariance_constant_exponent():
    # ||f(./s)|| over the dilated ball equals s^(3/p) times the original:
    # exercises node generation and bisection jointly under rescaling
    p0, s = 3.0, 2.5
    f = gaussian_scalar()
    base = luxemburg_norm(f, constant_field(p0), Ball(radius=1.0), RADIAL)
    dil = luxemburg_norm(lambda pts: f(pts / s), constant_field(p0),
                         Ball(radius=s), RADIAL)
    assert dil.value == pytest.approx(s ** (3.0 / p0) * base.value, rel=1e-3)


def test_constant_exponent_reduction_randomized():
    # for constant p the Luxemburg norm is the classical one: modular^(1/p)
    rng = np.random.default_rng(12)
    for i in range(50):
        p0 = rng.uniform(1.2, 6.0)
        radius = rng.uniform(0.5, 2.5)
        c, a = rng.uniform(0.2, 5.0), rng.uniform(0.1, 1.5)
        f = (lambda pts, c=c, a=a:
             c * np.exp(-a * np.einsum("ij,ij->i", pts, pts)))
        quad = Quadrature(n=4096, seed=300 + i)
        dom = Ball(radius=radius)
        norm = luxemburg_norm(f, constant_field(p0), dom, quad).value
        classical = modular(f, constant_field(p0), dom, quad)[0] ** (1.0 / p0)
        assert norm == pytest.approx(classical, rel=2 * quad.rel_tol)


@pytest.mark.parametrize("bad", [
    {"n": 0}, {"n": -5}, {"seed": -1}, {"rel_tol": 0.0}, {"rel_tol": -1.0},
    {"rel_tol": 1.0}, {"rel_tol": math.nan}, {"rel_tol": math.inf},
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_quadrature_rejects_unusable_budgets(bad):
    with pytest.raises(ValueError):
        Quadrature(**bad)


# ---------------------------------------------------------------------------
# the node set


@pytest.mark.parametrize("region", [
    Intersect(Annulus(8, 16), Cylinder()), ShrinkCusp(0.5, 16.0),
], ids=["shell-tube", "shrink-cusp"])
def test_mc_volume_counts_the_norm_nodes(region):
    # one stratified draw: the volume's hit count is the in-domain weight
    # of the node set built from the same budget and seed
    n, seed = 30_000, 4
    est = region.volume("monte_carlo", n=n, seed=seed)
    nodes = _build_nodes(region, Quadrature(n=n, seed=seed))
    weight = float(np.sum(nodes.weights[nodes.inside]))
    assert est.value == pytest.approx(weight, rel=1e-12, abs=0.0)


def test_domain_without_nodes_integrates_to_zero():
    empty = Intersect(Annulus(8, 16), Cylinder(0.001))
    quad = Quadrature(n=20_000, seed=1)
    assert not _build_nodes(empty, quad).inside.any()
    assert integrate(constant_one, empty, quad) == (0.0, 0.0)
    res = luxemburg_norm(constant_one, constant_field(3.0), empty, quad)
    assert res.status == "zero" and res.value == 0.0


def test_same_request_returns_the_same_read_only_nodes():
    shell, quad = Annulus(8, 16), Quadrature(n=20_000, seed=2)
    nodes = _build_nodes(shell, quad)
    # equal keys built separately hit the slot too: they compare by value
    assert _build_nodes(Annulus(8.0, 16.0), Quadrature(n=20_000, seed=2)) is nodes
    for array in (nodes.points, nodes.weights, nodes.inside):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("domain, quad", [
    (Annulus(8, 16), Quadrature(n=20_000, seed=3)),
    (Annulus(8, 16), Quadrature(n=30_000, seed=2)),
    (Annulus(16, 32), Quadrature(n=20_000, seed=2)),
], ids=["seed", "n", "domain"])
def test_another_request_gets_a_fresh_set_equal_to_a_cold_build(domain, quad, monkeypatch):
    first = _build_nodes(Annulus(8, 16), Quadrature(n=20_000, seed=2))
    warm = _build_nodes(domain, quad)
    assert warm is not first
    monkeypatch.setattr(norms, "_memo", None)
    cold = _build_nodes(domain, quad)
    assert cold is not warm
    for name in ("points", "weights", "inside", "slices", "tail_bound"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name)), name


def test_a_miss_releases_the_previous_set_before_drawing():
    alive_during_build = []

    class Probe(Annulus):  # an annulus that looks back while its nodes are tested
        def _contains_batch(self, pts):
            gc.collect()
            alive_during_build.append(old() is not None)
            return super()._contains_batch(pts)

    first = _build_nodes(Annulus(8, 16), Quadrature(n=20_000, seed=2))
    first.on_domain(lambda pts: [pts[:, 0]])  # fills its in-domain gather
    watched = [weakref.ref(first), *(weakref.ref(array) for array in first.in_domain)]
    old = lambda: next((ref() for ref in watched if ref() is not None), None)  # noqa: E731
    del first
    _build_nodes(Probe(8, 16), Quadrature(n=20_000, seed=2))
    gc.collect()
    assert alive_during_build == [False] and old() is None


def test_results_do_not_depend_on_the_slot(monkeypatch):
    p = preset(PRESETS["cylinder"]).conjugate(2)
    cut = make_cutoff(16.0)
    f, shell, quad = cut.size("laplacian"), cut.support(), Quadrature(n=20_000, seed=7)

    def both():
        (value,), (error,) = norms.integrate_many(lambda pts: [f(pts)], shell, quad)
        return luxemburg_norm(f, p, shell, quad), value, error

    monkeypatch.setattr(norms, "_memo", None)
    cold = both()
    assert norms._memo is not None
    assert both() == cold
    monkeypatch.setattr(norms, "_memo", None)
    assert both() == cold


def test_the_in_domain_gather_is_kept_read_only_and_equals_a_cold_gather():
    nodes = _build_nodes(Annulus(8, 16), Quadrature(n=20_000, seed=2))
    idx, pts = nodes.in_domain
    assert nodes.in_domain[1] is pts  # gathered once per set
    assert np.array_equal(idx, np.flatnonzero(nodes.inside))
    assert np.array_equal(pts, nodes.points[nodes.inside])
    for array in (idx, pts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_radial_set_gathers_its_points_without_a_copy():
    nodes = _build_nodes(Annulus(8, 16), RADIAL)
    idx, pts = nodes.in_domain
    assert idx is None and np.shares_memory(pts, nodes.points)
    assert np.array_equal(pts, nodes.points) and not pts.flags.writeable


def test_on_domain_writes_each_row_and_zero_off_the_domain():
    nodes = _build_nodes(Annulus(8, 16), Quadrature(n=20_000, seed=2))
    out = nodes.on_domain(lambda pts: [pts[:, 0], np.ones(len(pts), dtype=bool)])
    assert [(row.shape, row.dtype) for row in out] == [(nodes.inside.shape, float)] * 2
    assert np.array_equal(out[0], np.where(nodes.inside, nodes.points[:, 0], 0.0))
    assert np.array_equal(out[1], nodes.inside.astype(float))


@pytest.mark.parametrize("quad", [Quadrature(n=100_000, seed=5), RADIAL], ids=["mc", "radial"])
def test_norm_and_integral_passes_keep_no_per_node_array(quad, monkeypatch):
    # once a call returns, per-node memory is held by the memo'd node sets
    # and the Monte Carlo set's in-domain gather alone; each call below
    # leaves at least 40k per-node values behind if it keeps any other
    p = preset(PRESETS["cylinder"]).conjugate(2)
    cut = make_cutoff(16.0)
    f, shell = (lambda pts: np.abs(cut.laplacian(pts))), cut.support()
    calls = (lambda: luxemburg_norm(f, p, shell, quad),
             lambda: modular(f, p, shell, quad),
             lambda: integrate_many(lambda pts: [f(pts), f(pts) ** 2], shell, quad))
    monkeypatch.setattr(norms, "_memo", None)  # restored after the test
    for call in calls:  # the memo, its gather and first-use caches
        call()
    gc.collect()
    tracemalloc.start()
    try:
        for call in calls:
            call()
        norms._memo = None  # the last set may stay alive: let it go
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 64 * 2**10


# ---------------------------------------------------------------------------
# the piece-aware radial rule

PRESETS = {
    "cylinder": PresetSpec.make("cylinder", outer=4, inner=5),
    "power_cusp": PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1/2"),
    "shrink_cusp": PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"),
}


@pytest.mark.parametrize("R, reference", [(8, 11.806036), (64, 4.106474), (256, 2.051485)])
def test_radial_rule_reproduces_the_cylinder_reference(R, reference):
    # Laplacian-cutoff norm against the 2-conjugate of the cylinder preset on
    # R/2 <= |x| <= R; the reference is a 2-D Gauss-Legendre rule in
    # (x1, rho) split at the tube boundary, stable to 2e-9 under doubling
    cut = make_cutoff(R)
    res = luxemburg_norm(cut.size("laplacian"), preset(PRESETS["cylinder"]).conjugate(2),
                         cut.support(), Quadrature(scheme="radial", rel_tol=1e-10))
    assert res.value == pytest.approx(reference, rel=1e-6)


def test_cylinder_arc_measure_is_exact():
    # the meridian at radius r lies in the unit tube for sin(theta) <= 1/r:
    # its arcs there have cos-measure 2 (1 - sqrt(1 - 1/r^2))
    r = np.array([1.25, 4.0, 8.0, 100.0, 256.0])
    p = preset(PRESETS["cylinder"])
    row, a, b, _ = norms._polar_arcs(r, p)
    inner = p(norms._meridian(r[row], 0.5 * (a + b))) == 5.0
    measure = 2.0 * np.sin(0.5 * (a + b)) * np.sin(0.5 * (b - a))  # cos a - cos b
    got = np.bincount(row[inner], weights=measure[inner], minlength=r.size)
    want = 2.0 / (r**2 * (1.0 + np.sqrt(1.0 - 1.0 / r**2)))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_thin_shrink_cusp_arcs_are_labelled_throughout():
    # near r = 1.285 the sphere leaves the sigma = 1/2 cusp on an arc of
    # cos-width 0.039 about tan^2 theta = 2/sigma, thinner than a coarse
    # polar grid; each arc's label must hold across its interior
    p = preset(PRESETS["shrink_cusp"])
    r = np.linspace(1.27, 1.30, 3001)
    row, a, b, piece = norms._polar_arcs(r, p)
    label = p(norms._meridian(r[row], 0.5 * (a + b)))
    assert np.array_equal(np.array(p.values())[piece], label)
    for t in np.linspace(0.05, 0.95, 8):
        assert (p(norms._meridian(r[row], a + t * (b - a))) == label).all()


# each piece region as the first piece of a two-piece exponent (5 inside, 4 outside)
PIECE_REGIONS = {
    **{name: spec.inner_region() for name, spec in PRESETS.items()},
    "ball-ahead": Ball((12.0, 0.0, 0.0), 3.0),
    "ball-behind": Ball((-10.0, 0.0, 0.0), 4.0),
    "cylinder_segment": Cylinder(12.0),
    "truncated_power_cusp": PowerCusp(0.5, 12.0),
    "truncated_shrink_cusp": ShrinkCusp(0.5, 12.0),
    "diff": Diff(Cylinder(), Ball((12.0, 0.0, 0.0), 3.0)),
}


@pytest.mark.parametrize("name", sorted(PIECE_REGIONS))
def test_radial_rule_piece_weights_match_mc_volumes(name):
    region = PIECE_REGIONS[name]
    p = two_piece_field(region, 5.0, 4.0)
    cut = make_cutoff(16.0)
    nodes = _build_nodes(cut.support(), RADIAL, cut.size("laplacian"), p)
    inner = p(nodes.points) == 5.0
    est = Intersect(cut.support(), region).volume("monte_carlo", n=200_000, seed=5)
    assert abs(float(nodes.weights[inner].sum()) - est.value) <= 3.0 * est.std_error
    assert float(nodes.weights.sum()) == pytest.approx(cut.support().analytic_volume(), rel=1e-12)


@pytest.mark.parametrize("R", [8.0, 256.0])
@pytest.mark.parametrize("kind", ["laplacian", "gradient"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_radial_rule_error_covers_the_doubled_order(name, kind, R, monkeypatch):
    cut = make_cutoff(R)
    p = preset(PRESETS[name]).conjugate(2 if kind == "laplacian" else 3)
    quad = Quadrature(scheme="radial", rel_tol=1e-10)
    res = luxemburg_norm(cut.size(kind), p, cut.support(), quad)
    monkeypatch.setattr(norms, "_RADIAL_ORDER", 2 * norms._RADIAL_ORDER)
    doubled = luxemburg_norm(cut.size(kind), p, cut.support(), quad)
    assert abs(doubled.value - res.value) <= res.abs_error


def test_radial_rule_refuses_a_piece_off_the_axis():
    p = two_piece_field(Ball(center=(0.0, 6.0, 0.0), radius=1.0), 5.0, 4.0).conjugate(2)
    cut = make_cutoff(8.0)
    for f in (cut.size("laplacian"), gaussian_scalar()):
        with pytest.raises(QuadratureDomainError, match="solids of revolution"):
            luxemburg_norm(f, p, cut.support(), RADIAL)


@pytest.mark.parametrize("R, reference", [
    (8, 6.562844890051), (64, 31.306689534286), (256, 88.552889228912)])
def test_radial_norm_of_one_against_the_cylinder_closed_form(R, reference):
    # the root of V_tube lam^-5 + V_out lam^-4 = 1 on R/2 <= |x| <= R, with
    # V_tube = 2 (2 pi / 3) [(R^3 - (R^2 - 1)^(3/2)) - (R^3/8 - (R^2/4 - 1)^(3/2))]
    res = luxemburg_norm(constant_one, preset(PRESETS["cylinder"]), Annulus(R / 2, R),
                         Quadrature(scheme="radial", rel_tol=1e-10))
    assert abs(res.value - reference) <= res.abs_error


def test_radial_restriction_identity_on_the_readme_region():
    # the masked integrand jumps at r = 2 and r = 4, its kinks
    f, region = inverse_quadratic_scalar(), Annulus(2.0, 4.0)
    assert masked(f, region).kinks == (2.0, 4.0)
    rep = restriction_identity_check(f, preset(PRESETS["cylinder"]), region, RADIAL)
    assert rep.deviation <= rep.tolerance and rep.deviation < 3.3e-3


# ---------------------------------------------------------------------------
# field orders: octave cells of 24 radii

README_GRID = [8.0 * 2**k for k in range(6)]
# the fields of the `liouville` benchmark jobs; the shell terms do not read
# the exponent, so the cylinder and power-cusp jobs share the first entry
SHELL_FIELDS = {
    "decaying_solenoidal": (decaying_solenoidal(2.0), zero_scalar()),
    "counterexample": gradient_counterexample(),
}
# the radial `norm` runs of tests/cli_snapshot.py, as (field, exponent) specs
SNAPSHOT_NORMS = {
    "norm": ({"name": "gaussian"}, {"constant": 2}),
    "norm-pieces": ({"name": "inverse_quadratic"},
                    {"pieces": [{"region": {"type": "cylinder"}, "value": 5}], "default": 4}),
    "norm-pieces-bounded": ({"name": "inverse_quadratic"}, {"pieces": [
        {"region": {"type": "ball", "center": [-3, 0, 0], "radius": 2}, "value": 6},
        {"region": {"type": "truncated_power_cusp", "gamma": 0.5, "length": 5}, "value": 5},
        {"region": {"type": "truncated_shrink_cusp", "sigma": 0.5, "length": 4}, "value": 4.5},
        {"region": {"type": "diff", "keep": {"type": "cylinder_segment", "half_length": 6},
                    "remove": {"type": "ball", "radius": 2}}, "value": 5.5}], "default": 4}),
    # nine distinct values: the modular's terms are summed by the pairwise reduce
    "norm-pieces-many": ({"name": "inverse_quadratic"}, {"pieces": [
        *({"region": {"type": "ball", "center": [x1, 0, 0], "radius": 1}, "value": v}
          for x1, v in ((-5.5, 6), (-3, 7), (3, 8), (5.5, 9))),
        {"region": {"type": "truncated_power_cusp", "gamma": 0.5, "length": 1.5}, "value": 5},
        {"region": {"type": "truncated_shrink_cusp", "sigma": 0.5, "length": 1}, "value": 4.5},
        {"region": {"type": "ball", "radius": 0.5}, "value": 3},
        {"region": {"type": "cylinder_segment", "half_length": 7.5}, "value": 5.5}],
        "default": 4}),
}


def _double_the_field_orders(monkeypatch):
    monkeypatch.setattr(norms, "_FIELD_ORDERS", tuple(2 * k for k in norms._FIELD_ORDERS))


def _shell_terms(u, P, R):
    """alpha, beta1, beta2 and beta at R on the radial rule, and their bars."""
    a, a_err = alpha_term(R, u, RADIAL)
    flux = beta_terms(R, u, P, RADIAL)
    return [a, flux.beta1, flux.beta2, flux.beta], [a_err, *flux.errors]


@pytest.mark.parametrize("name", sorted(SHELL_FIELDS))
def test_shell_term_bars_cover_the_doubled_orders(name, monkeypatch):
    # terms that vanish by symmetry sit at roundoff, whence the floor of
    # 1e-12 times the row's largest term
    u, P = SHELL_FIELDS[name]
    rows = [_shell_terms(u, P, R) for R in README_GRID]
    _double_the_field_orders(monkeypatch)
    for R, (values, bars) in zip(README_GRID, rows):
        doubled, _ = _shell_terms(u, P, R)
        floor = 1e-12 * max(abs(v) for v in values)
        for v, d, bar in zip(values, doubled, bars):
            assert abs(d - v) <= max(bar, floor), (R, v, d, bar)


@pytest.mark.parametrize("name", sorted(SNAPSHOT_NORMS))
def test_snapshot_norm_bars_cover_the_doubled_orders(name, monkeypatch):
    field, exponent = SNAPSHOT_NORMS[name]
    f, p = field_from_dict(field), exponent_from_dict(exponent, True)
    res = luxemburg_norm(f, p, None, RADIAL)
    _double_the_field_orders(monkeypatch)
    assert abs(luxemburg_norm(f, p, None, RADIAL).value - res.value) <= res.abs_error


@pytest.mark.parametrize("name", ["norm-pieces-bounded", "norm-pieces-many"])
def test_bounded_pieces_converge_like_the_tube(name, monkeypatch):
    # cells end at every piece's radial breaks, so doubling the radii moves
    # these norms by 4.7e-7 and 2.6e-7, near the tube's 7.4e-7 (`norm-pieces`);
    # without the breaks they moved by 8.9e-5 and 9.2e-5
    field, exponent = SNAPSHOT_NORMS[name]
    f, p = field_from_dict(field), exponent_from_dict(exponent, True)
    tight = Quadrature(scheme="radial", rel_tol=1e-10)
    value = luxemburg_norm(f, p, None, tight).value
    monkeypatch.setattr(norms, "_FIELD_ORDERS", (48, *norms._FIELD_ORDERS[1:]))
    assert abs(luxemburg_norm(f, p, None, tight).value - value) < 1e-6


def test_field_rule_takes_24_radii_per_octave():
    # a shell [R/2, R] is one cell; a ball [0, R] is cut at R/2^k for k < 5
    # and on down to r = 1/2
    for domain, octaves in ((Annulus(32.0, 64.0), [32, 64]),
                            (Ball(radius=64.0), [0, 0.5, 1, 2, 4, 8, 16, 32, 64])):
        nodes = _build_nodes(domain, RADIAL, gaussian_scalar())
        cells = len(octaves) - 1
        assert (nodes.weights.size, nodes.coarse.weights.size) == (cells * 24**3, cells * 12**3)
        radii = np.unique(np.round(np.hypot.reduce(nodes.points, axis=1), 9))
        assert (np.histogram(radii, octaves)[0] == 24).all()
        assert float(nodes.weights.sum()) == pytest.approx(domain.analytic_volume(), rel=1e-12)


@pytest.mark.parametrize("R", [8.0, 256.0])
def test_cutoff_profile_rule_gets_no_octave_cut(R):
    # 32 radii per cell between the kinks, one node per arc: the cylinder
    # preset's meridians have three arcs, and the Laplacian's sign change
    # splits the shell in two cells for both kinds
    p, cut = preset(PRESETS["cylinder"]).conjugate(2), make_cutoff(R)
    for kind in ("laplacian", "gradient"):
        nodes = _build_nodes(cut.support(), RADIAL, cut.size(kind), p)
        assert (nodes.weights.size, nodes.coarse.weights.size) == (2 * 96, 2 * 48)


# the one-slot memo of radial node sets


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_shell_builds_one_rule_for_its_cutoff_norms_and_one_for_its_integrals(name, monkeypatch):
    sets, build = [], norms._build_nodes
    monkeypatch.setattr(norms, "_build_nodes", lambda *a, **k: sets.append(build(*a, **k)) or sets[-1])
    monkeypatch.setattr(norms, "_memo", None)
    p, cut, u = preset(PRESETS[name]), make_cutoff(64.0), decaying_solenoidal(2.0)
    for kind, k in (("laplacian", 2), ("gradient", 3)):
        luxemburg_norm(cut.size(kind), p.conjugate(k), cut.support(), RADIAL)
    alpha_term(64.0, u, RADIAL, cutoff=cut)
    beta_terms(64.0, u, zero_scalar(), RADIAL, cutoff=cut)
    assert len(sets) == 4 and sets[0] is sets[1] and sets[2] is sets[3] and sets[1] is not sets[2]


# (first radius, factor) of six-shell grids; the first shells of the last,
# [0.6, 1.2] and [0.78, 1.56], hold the cylinder's radial break r = 1
GRID_PASSES = {
    "2-from-8": (8.0, 2.0),
    "1.7-from-3": (3.0, 1.7),
    "1.7-from-2": (2.0, 1.7),
    "1.3-from-1.2": (1.2, 1.3),
}


@pytest.mark.parametrize("grid", sorted(GRID_PASSES))
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_each_shell_of_a_grid_pass_is_its_standalone_rule(name, grid, monkeypatch):
    start, factor = GRID_PASSES[grid]
    cuts = [make_cutoff(start * factor**i) for i in range(6)]
    for kind, k in (("laplacian", 2), ("gradient", 3)):
        p = preset(PRESETS[name]).conjugate(k)
        monkeypatch.setattr(norms, "_prebuilt", {})
        norms.radial_grid([cut.size(kind) for cut in cuts], p)
        passed = list(norms._prebuilt.values())
        norms._prebuilt.clear()
        for cut, got in zip(cuts, passed):
            monkeypatch.setattr(norms, "_memo", None)
            want = _build_nodes(cut.support(), RADIAL, cut.size(kind), p)
            for g, w in ((got, want), (got.coarse, want.coarse)):
                for attr in ("points", "weights", "inside", "piece", "radii", "ring"):
                    assert np.array_equal(getattr(g, attr), getattr(w, attr)), attr


def test_a_radial_miss_takes_the_rule_a_grid_pass_built(monkeypatch):
    cuts = [make_cutoff(R) for R in README_GRID]
    p = preset(PRESETS["cylinder"]).conjugate(2)
    monkeypatch.setattr(norms, "_prebuilt", {})
    monkeypatch.setattr(norms, "_memo", None)
    norms.radial_grid([cut.size("gradient") for cut in cuts], p)
    passed = list(norms._prebuilt.values())
    for cut, rule in zip(cuts, passed):
        assert _build_nodes(cut.support(), RADIAL, cut.size("laplacian"), p) is rule
        assert norms._memo[1] is rule and rule.points.flags.writeable is False
    assert not norms._prebuilt  # each taken, none held twice


def _tube_exponent(*values: float) -> ExponentField:
    """The ball-ahead and the tube as pieces, then the default: 3 arcs' labels."""
    return ExponentField(((PIECE_REGIONS["ball-ahead"], values[0]), (Cylinder(), values[1])),
                         values[2])


EQUAL_VALUE_PAIRS = {  # two three-value exponents and whether they share a rule
    "distinct": ((5.0, 4.0, 3.0), (6.0, 2.0, 1.5), True),    # all distinct in both
    "tube-default": ((5.0, 4.0, 4.0), (3.0, 2.0, 2.0), True),  # tube = default in both
    "merge": ((5.0, 4.0, 3.0), (5.0, 4.0, 4.0), False),  # tube = default in the second only
    "split": ((5.0, 4.0, 4.0), (5.0, 4.0, 3.0), False),  # and the other way round
    "other-pair": ((4.0, 5.0, 4.0), (5.0, 4.0, 4.0), False),  # ball = default, tube = default
}


@pytest.mark.parametrize("first, second, shared", EQUAL_VALUE_PAIRS.values(),
                         ids=list(EQUAL_VALUE_PAIRS))
def test_a_radial_set_is_reused_only_for_the_same_equal_value_pattern(
        first, second, shared, monkeypatch):
    cut = make_cutoff(16.0)
    rule = lambda values: _build_nodes(  # noqa: E731
        cut.support(), RADIAL, cut.size("gradient"), _tube_exponent(*values))
    monkeypatch.setattr(norms, "_memo", None)
    before = rule(first)
    warm = rule(second)
    assert (warm is before) == shared
    monkeypatch.setattr(norms, "_memo", None)
    cold = rule(second)
    assert cold is not warm
    for got, want in ((warm, cold), (warm.coarse, cold.coarse)):
        for name in ("points", "weights", "inside"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_pieces_read_p(nodes, p: ExponentField):
    """Each node's piece index reads p's value there, bit for bit, on both rules."""
    for s in (nodes, nodes.coarse):
        assert np.array_equal(np.array(p.values())[s.piece], p(s.points))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_radial_nodes_read_each_conjugate_off_their_piece_index(name, monkeypatch):
    # the 2- and 3-conjugates share one rule per shell and read their own values
    monkeypatch.setattr(norms, "_memo", None)
    p = preset(PRESETS[name])
    for R in README_GRID:
        cut = make_cutoff(R)
        nodes = _build_nodes(cut.support(), RADIAL, cut.size("laplacian"), p.conjugate(2))
        assert _build_nodes(cut.support(), RADIAL, cut.size("gradient"), p.conjugate(3)) is nodes
        for k in (2, 3):
            _assert_pieces_read_p(nodes, p.conjugate(k))


@pytest.mark.parametrize("name", sorted(EQUAL_VALUE_PAIRS))
def test_a_shared_radial_set_reads_each_exponent_off_its_piece_index(name, monkeypatch):
    monkeypatch.setattr(norms, "_memo", None)
    cut = make_cutoff(16.0)
    for values in EQUAL_VALUE_PAIRS[name][:2]:
        p = _tube_exponent(*values)
        _assert_pieces_read_p(_build_nodes(cut.support(), RADIAL, cut.size("gradient"), p), p)


@pytest.mark.parametrize("name", ["norm-pieces-bounded", "norm-pieces-many"])
def test_a_piece_table_is_read_off_the_piece_index(name):
    field, exponent = SNAPSHOT_NORMS[name]
    p = exponent_from_dict(exponent, True)
    nodes = _build_nodes(None, RADIAL, field_from_dict(field), p)
    assert np.unique(nodes.piece).size == len(p.values())  # every piece meets the nodes
    _assert_pieces_read_p(nodes, p)


def test_monte_carlo_nodes_carry_no_piece_index():
    nodes = _build_nodes(Annulus(8.0, 16.0), MC)
    assert nodes.piece is None and nodes.radii is None and nodes.ring is None


def _assert_close_to_scale(got, want, rtol=1e-13):
    """got equals want to rtol of want's largest size.  Near the shell's edges
    d1 vanishes like (r - R/2)^2, so the rounding of |x| moves it by up to
    8e-13 of its own size there, and by under 4e-15 of its peak anywhere."""
    assert float(np.max(np.abs(got - want))) <= rtol * float(np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cutoff_values_per_radius_gathered_to_the_nodes_match_the_pointwise_ones(name):
    # a node's |x| and its rule radius agree to rounding, and so do the
    # cutoff's values on them, on the shell-terms rule and the profiles' rule
    cut, p = make_cutoff(64.0), preset(PRESETS[name])
    field = _build_nodes(cut.support(), RADIAL)
    for kind in ("laplacian", "gradient"):
        size = cut.size(kind)
        for s in [set_ for rule in (field, _build_nodes(cut.support(), RADIAL, size, p))
                  for set_ in (rule, rule.coarse)]:
            assert np.array_equal(s.radii, np.unique(s.radii)) and s.ring.max() < s.radii.size
            np.testing.assert_allclose(s.radii[s.ring], row_norm(s.points), rtol=1e-15)
            d1, lap = (x[s.ring] for x in cut.radial(s.radii))
            grad, want = cut.derivatives(s.points)
            _assert_close_to_scale(lap, want)
            _assert_close_to_scale(np.abs(d1), row_norm(grad))
            _assert_close_to_scale(size.radial(s.radii)[s.ring], size(s.points))


def test_the_cutoff_is_evaluated_once_per_radius_of_a_radial_rule(monkeypatch):
    sizes, radial = [], RadialCutoff.radial
    monkeypatch.setattr(RadialCutoff, "radial", lambda self, r: sizes.append(r.size) or radial(self, r))
    monkeypatch.setattr(norms, "_memo", None)
    cut, p = make_cutoff(64.0), preset(PRESETS["cylinder"])
    shell_terms(64.0, *gradient_counterexample(), RADIAL, cut)
    rules = [norms._memo[1]]
    for kind, k in (("laplacian", 2), ("gradient", 3)):
        luxemburg_norm(cut.size(kind), p.conjugate(k), cut.support(), RADIAL)
    rules.append(norms._memo[1])
    per_set = [s.radii.size for rule in rules for s in (rule, rule.coarse)]
    assert sizes == per_set[:2] + per_set[2:] * 2  # fine, coarse; each norm's fine, coarse
    nodes = [s.weights.size for rule in rules for s in (rule, rule.coarse)]
    assert all(r < n for r, n in zip(per_set, nodes)), (per_set, nodes)


def test_memoized_radial_arrays_are_read_only(monkeypatch):
    monkeypatch.setattr(norms, "_memo", None)
    cut = make_cutoff(16.0)
    nodes = _build_nodes(cut.support(), RADIAL, cut.size("laplacian"), preset(PRESETS["cylinder"]))
    assert norms._memo[1] is nodes
    for s in (nodes, nodes.coarse):
        for array in (s.points, s.weights, s.inside, s.piece, s.radii, s.ring, s.in_domain[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_a_radial_miss_releases_the_previous_set_before_building(monkeypatch):
    alive_during_build = []

    class Probe(Cylinder):  # a piece region that looks back while the rule cuts its arcs
        def polar_breaks(self, r):
            gc.collect()
            alive_during_build.append(old() is not None)
            return super().polar_breaks(r)

    monkeypatch.setattr(norms, "_memo", None)
    cut = make_cutoff(16.0)
    first = _build_nodes(cut.support(), RADIAL, cut.size("gradient"), two_piece_field(Cylinder(), 5, 4))
    first.on_domain(lambda pts: [pts[:, 0]])  # fills its in-domain gather
    drawn = _build_nodes(Annulus(8, 16), Quadrature(n=20_000, seed=2))  # and a draw after it
    drawn.on_domain(lambda pts: [pts[:, 0]])
    watched = [weakref.ref(obj) for s in (first, first.coarse, drawn)
               for obj in (s, s.points, s.weights, s.inside, s.in_domain[1])]
    old = lambda: next((ref() for ref in watched if ref() is not None), None)  # noqa: E731
    del first, drawn
    _build_nodes(cut.support(), RADIAL, cut.size("gradient"), two_piece_field(Probe(), 5, 4))
    gc.collect()
    assert alive_during_build == [False] and old() is None

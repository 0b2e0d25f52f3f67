"""Field values, derivative consistency, decay rates and membership scans."""

import math

import numpy as np
import pytest

from vexlp.errors import QuadratureDomainError
from vexlp.exponents import ExponentField, PresetSpec, constant_field, preset
from vexlp.fields import (
    ScalarField3,
    VectorField3,
    _trend_verdict,
    decaying_solenoidal,
    fd_jacobian,
    gaussian_scalar,
    gradient_counterexample,
    inverse_quadratic_scalar,
    membership_scan,
    ns_residual,
    zero_scalar,
    zero_vector,
)
from vexlp.norms import Quadrature, luxemburg_norm, modular
from vexlp.regions import Ball


def pt(*coords):
    return np.array(coords, dtype=float)


def smoke_grid(extent=10.0, per_axis=5):
    axis = np.linspace(-extent, extent, per_axis)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    # nudge off exact zeros so derivative denominators stay generic
    return g + 0.37


def test_counterexample_values():
    u, P = gradient_counterexample()
    np.testing.assert_allclose(u(pt(1, 2, 3)), [1, 2, -6])
    assert P(pt(1, 0, 0)) == pytest.approx(-0.5)
    pts = smoke_grid()
    speed2 = np.einsum("ij,ij->i", u(pts), u(pts))
    np.testing.assert_allclose(
        speed2, pts[:, 0] ** 2 + pts[:, 1] ** 2 + 4 * pts[:, 2] ** 2
    )
    np.testing.assert_allclose(P(pts), -0.5 * speed2)
    assert np.abs(u.divergence(pts)).max() == 0.0


def test_counterexample_solves_momentum_equation():
    u, P = gradient_counterexample()
    res = ns_residual(u, P, smoke_grid())
    assert np.abs(res).max() <= 1e-8


def test_zero_field_residual():
    res = ns_residual(zero_vector(), zero_scalar(), smoke_grid())
    assert np.abs(res).max() == 0.0


def test_manufactured_field_not_a_solution():
    res = ns_residual(decaying_solenoidal(1.0), zero_scalar(), pt(1.3, 0.4, -0.7))
    assert np.abs(res).max() > 1e-3


def test_decaying_solenoidal_divergence_free():
    u = decaying_solenoidal(1.5)
    pts = Ball(radius=50).sample(1000, seed=4)
    assert np.abs(u.divergence(pts)).max() <= 1e-8


@pytest.mark.parametrize("rate", [1.0, 2.0])
def test_decaying_solenoidal_decay_slope(rate):
    u = decaying_solenoidal(rate)
    radii = [4.0 * 2**k for k in range(7)]
    sups = []
    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for R in radii:
        sups.append(np.linalg.norm(u(dirs * R), axis=1).max())
    slope = np.polyfit(np.log(radii), np.log(sups), 1)[0]
    assert slope == pytest.approx(-rate, abs=0.1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_decaying_solenoidal_needs_a_positive_finite_rate(rate):
    # a NaN or infinite rate would build a field that evaluates to NaN
    with pytest.raises(ValueError, match=f"positive and finite, got {rate}"):
        decaying_solenoidal(rate)


def test_shell_integrals_converge_for_integrable_power():
    # fourth power of a rate-1 field: shell contributions shrink geometrically
    u = decaying_solenoidal(1.0)
    p4 = constant_field(4.0)
    scan = membership_scan(u, p4, [4, 8, 16, 32, 64, 128, 256], Quadrature(n=40_000, seed=5))
    inc = scan.increments
    ratios = [b / a for a, b in zip(inc[2:], inc[3:]) if a > 0]
    assert max(ratios) < 0.9
    assert scan.verdict == "convergent"


FIELD_CASES = [
    ("counterexample", gradient_counterexample()[0]),
    ("decaying_1", decaying_solenoidal(1.0)),
    ("decaying_2.5", decaying_solenoidal(2.5)),
]


@pytest.mark.parametrize("name,field", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
def test_analytic_jacobian_matches_finite_differences(name, field):
    pts = smoke_grid()
    fd = fd_jacobian(field.fn, pts, h=1e-4)
    an = field.jacobian(pts)
    scale = np.abs(an).max()
    assert np.abs(fd - an).max() <= 1e-5 * max(scale, 1e-12)


def test_scalar_gradients_match_finite_differences():
    for field in (gaussian_scalar(), inverse_quadratic_scalar(),
                  gradient_counterexample()[1]):
        pts = smoke_grid(extent=2.0)
        h = 1e-4
        an = field.gradient(pts)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (field(pts + e) - field(pts - e)) / (2 * h)
            assert np.abs(fd - an[:, j]).max() <= 1e-5 * max(np.abs(an).max(), 1e-12)


def test_finite_difference_fallbacks_match_analytic_derivatives():
    u, g = decaying_solenoidal(2.0), gaussian_scalar()
    u_fd, g_fd = VectorField3(fn=u.fn), ScalarField3(fn=g.fn)
    pts = smoke_grid(extent=2.0)
    assert np.abs(g_fd.gradient(pts) - g.gradient(pts)).max() <= 1e-6
    assert np.abs(u_fd.jacobian(pts) - u.jacobian(pts)).max() <= 1e-6
    assert np.abs(u_fd.divergence(pts)).max() <= 1e-6
    assert g_fd.gradient(pts[0]).shape == (3,)
    assert u_fd.jacobian(pts[0]).shape == (3, 3)


# ---------------------------------------------------------------------------
# membership scans


CYL = PresetSpec.make("cylinder", outer=4, inner=5)


def test_counterexample_scan_diverges():
    u, _ = gradient_counterexample()
    scan = membership_scan(u, preset(CYL), [4, 8, 16, 32, 64], Quadrature(n=30_000, seed=6))
    assert scan.verdict == "diverging"
    assert scan.increments[-1] > scan.increments[-2] > scan.increments[-3]


def test_decaying_scan_converges():
    scan = membership_scan(
        decaying_solenoidal(1.5), constant_field(4.0), [4, 8, 16, 32, 64],
        Quadrature(n=30_000, seed=6),
    )
    assert scan.verdict == "convergent"


def test_zero_scan_converges_with_zero_modulars():
    scan = membership_scan(
        zero_vector(), preset(CYL), [4, 8, 16], Quadrature(n=10_000, seed=6)
    )
    assert scan.verdict == "convergent"
    assert all(row[1] == 0.0 for row in scan.rows)


def test_trend_verdict_is_undecided_when_increments_fall_above_the_envelope():
    assert _trend_verdict([1.0, 0.5, 0.25, 0.125]) == "convergent"
    assert _trend_verdict([1.0, 0.92, 0.85, 0.78]) == "undecided"
    assert _trend_verdict([1.0, 1.1, 1.2, 1.3]) == "diverging"
    assert _trend_verdict([1.0, 0.5, 2.0, 0.5]) == "diverging"  # a last ratio above 1


def test_scan_requires_increasing_radii():
    with pytest.raises(ValueError):
        membership_scan(zero_vector(), preset(CYL), [4, 4, 8])
    with pytest.raises(ValueError):
        membership_scan(zero_vector(), preset(CYL), [4, 8])


def test_scan_infinite_modular_diverges():
    # sup over the infinite-exponent piece exceeds one somewhere
    u, _ = gradient_counterexample()
    shrink = preset(PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"))
    quad = Quadrature(n=20_000, seed=7)
    scan = membership_scan(u, shrink, [4, 8, 16], quad)
    assert scan.verdict == "diverging"
    assert math.isinf(modular(u, shrink, Ball(radius=16), quad)[0])


def test_scan_scales_a_bounded_field_on_an_infinite_piece():
    # sup |u| = 2 > 1 on the cusp: the modular of u is +inf, that of u / lambda
    # is finite once lambda is at least the norm over the innermost ball
    u = decaying_solenoidal(2)
    shrink = preset(PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"))
    quad = Quadrature(n=25_000, seed=10)
    radii = [8 * 2**k for k in range(6)]
    assert math.isinf(modular(u, shrink, Ball(radius=8), quad)[0])
    scan = membership_scan(u, shrink, radii, quad)
    assert scan.verdict == "convergent"
    # the scale is the upper end of the norm on the radial rule, which
    # brackets sup |u| = 2 at the origin; Monte Carlo nodes miss that peak
    norm = luxemburg_norm(u, shrink, Ball(radius=8), Quadrature("radial"))
    assert scan.scale == norm.value + norm.abs_error
    assert norm.value <= 2.0 <= scan.scale < 2.0 + 1e-4
    assert all(math.isfinite(v) for v in scan.increments)
    # a finite exponent needs no scale
    assert membership_scan(u, constant_field(4.0), radii, quad).scale == 1.0


def test_scan_refuses_an_infinite_piece_off_the_axis():
    # the scale norm runs on the radial rule, which needs pieces that are
    # solids of revolution about the x1 axis
    p = ExponentField(((Ball(center=(0.0, 2.0, 0.0), radius=1.0), math.inf),), 4.0)
    with pytest.raises(QuadratureDomainError, match="solids of revolution"):
        membership_scan(gaussian_scalar(), p, [4, 8, 16], Quadrature(n=20_000, seed=1))

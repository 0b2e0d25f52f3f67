"""Cutoff profile values, derivative scalings and integration by parts."""

import math

import numpy as np
import pytest

from vexlp.cutoff import make_cutoff, transition, transition_d1
from vexlp.errors import InvalidRadiusError
from vexlp.norms import Quadrature, integrate
from vexlp.regions import Annulus, Ball


def pt(*coords):
    return np.array(coords, dtype=float)


def test_plateau_and_support():
    c = make_cutoff(4.0)
    assert c(pt(1, 0, 0)) == 1.0
    assert c(pt(5, 0, 0)) == 0.0
    assert c(pt(0, 0, 4)) == 0.0          # |x| = R counts as outside
    assert c(pt(3, 0, 0)) == pytest.approx(0.5)  # transition(1/2) = 1/2


def test_transition_midpoint_derivative():
    assert transition(np.array(0.5)) == pytest.approx(0.5)
    assert transition_d1(np.array(0.5)) == pytest.approx(15 / 8)


def test_gradient_value_mid_shell():
    c = make_cutoff(4.0)
    g = c.grad(pt(3, 0, 0))
    assert np.linalg.norm(g) == pytest.approx(15 / 16)
    assert g[0] < 0  # points inward toward decreasing profile


def test_derivatives_vanish_off_shell():
    c = make_cutoff(8.0)
    inner = Ball(radius=3.9).sample(200, seed=1)
    outer = 8.05 * Annulus(1.0, 1.2).sample(200, seed=2)
    for pts in (inner, outer):
        assert np.allclose(c.grad(pts), 0.0)
        assert np.allclose(c.laplacian(pts), 0.0)


def test_profile_is_c2_at_shell_edges():
    c = make_cutoff(2.0)
    eps = 1e-7
    for edge in (1.0, 2.0):
        lo = c(pt(edge - eps, 0, 0))
        hi = c(pt(edge + eps, 0, 0))
        assert abs(lo - hi) < 1e-5
        assert np.linalg.norm(c.grad(pt(edge - eps, 0, 0))) < 1e-4
        assert abs(c.laplacian(pt(edge - eps, 0, 0))) < 1e-4


def test_finite_difference_consistency():
    # relative to the sup of each derivative: the Laplacian crosses zero
    # inside the shell, so pointwise relative error is not meaningful there
    c = make_cutoff(8.0)
    pts = Annulus(4.2, 7.8).sample(500, seed=3)
    h = 1e-4
    grad = c.grad(pts)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (c(pts + e) - c(pts - e)) / (2 * h)
        assert np.abs(fd - grad[:, j]).max() <= 1e-5 * np.abs(grad).max()
    lap = c.laplacian(pts)
    lap_fd = np.zeros(pts.shape[0])
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        lap_fd += c(pts + e) + c(pts - e) - 2 * c(pts)
    lap_fd /= h**2
    assert np.abs(lap_fd - lap).max() <= 1e-5 * np.abs(lap).max()


def test_gradient_scaling_exact():
    # same seed => annulus samples scale linearly with R, so the scaled sup
    # of the gradient is identical across radii
    sups = []
    for R in (2.0, 8.0, 32.0):
        pts = Annulus(R / 2, R).sample(20_000, seed=5)
        c = make_cutoff(R)
        sups.append(R * np.linalg.norm(c.grad(pts), axis=1).max())
    assert max(sups) - min(sups) <= 1e-10 * max(sups)
    assert sups[0] == pytest.approx(15 / 4, rel=1e-3)  # sampled sup near exact


def test_laplacian_scaling_bounded():
    vals = []
    for R in (2.0, 8.0, 32.0, 128.0):
        pts = Annulus(R / 2, R).sample(20_000, seed=6)
        c = make_cutoff(R)
        vals.append(R**2 * np.abs(c.laplacian(pts)).max())
    assert max(vals) <= 60.0
    assert max(vals) - min(vals) <= 1e-9 * max(vals)


def test_integration_by_parts_identity():
    # pairing the Laplacian with |x|^2/2 equals pairing the cutoff with its
    # Laplacian 3; the plateau integral has the closed form 33*pi*R^3/56
    R = 8.0
    c = make_cutoff(R)

    def lhs_fn(pts):
        return c.laplacian(pts) * 0.5 * np.einsum("ij,ij->i", pts, pts)

    lhs, _ = integrate(lhs_fn, Annulus(R / 2, R), Quadrature(scheme="radial"))
    rhs = 3.0 * (33.0 / 56.0) * math.pi * R**3
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_cutoff_integral_closed_form():
    R = 8.0
    c = make_cutoff(R)
    val, _ = integrate(lambda pts: c(pts), Ball(radius=R), Quadrature(scheme="radial"))
    assert val == pytest.approx(33.0 / 56.0 * math.pi * R**3, rel=1e-6)


def test_invalid_radius():
    with pytest.raises(InvalidRadiusError):
        make_cutoff(1.0)
    with pytest.raises(InvalidRadiusError):
        make_cutoff(0.5)


@pytest.mark.parametrize("kind", ["laplacian", "gradient"])
def test_size_profile_values_and_kinks(kind):
    c = make_cutoff(16.0)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(500, 3)) * 6.0
    size = c.size(kind)
    want = np.abs(c.laplacian(pts)) if kind == "laplacian" else np.linalg.norm(c.grad(pts), axis=1)
    assert np.array_equal(size(pts), want)
    # both kinds cut at the shell edges and at R(1 + 1/sqrt(3))/2, where the
    # Laplacian changes sign, so both norms of a shell share one rule
    lo, star, hi = size.kinks
    assert (lo, hi) == (8.0, 16.0)
    assert star == pytest.approx(8.0 * (1.0 + 1.0 / math.sqrt(3.0)), rel=1e-15)
    if kind == "gradient":  # |grad| is smooth there: its slopes on either side agree
        r = star * (1.0 + np.array([-1e-6, 0.0, 1e-6]))
        g = size(np.column_stack([r, np.zeros(3), np.zeros(3)]))
        assert g[1] - g[0] == pytest.approx(g[2] - g[1], rel=1e-4)
        return
    near = np.array([[star * (1.0 - 1e-9), 0.0, 0.0], [star * (1.0 + 1e-9), 0.0, 0.0]])
    below, above = c.laplacian(near)
    assert below < 0.0 < above


@pytest.mark.parametrize("R", [1.5, 16.0, 1e100])
def test_derivatives_equal_grad_and_laplacian_bit_for_bit(R):
    # at the origin, both shell edges, just inside and outside them, inside
    # the plateau, mid-shell and far outside, in every direction drawn
    c = make_cutoff(R)
    radii = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, np.nextafter(1.0, 0.0),
                      1.0, np.nextafter(1.0, 2.0), 3.0]) * R
    dirs = np.random.default_rng(5).normal(size=(radii.size, 3))
    pts = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    grad, lap = c.derivatives(pts)
    assert grad.tobytes() == c.grad(pts).tobytes()
    assert lap.tobytes() == c.laplacian(pts).tobytes()
    for x in pts:  # one point (3,) gives a (3,) gradient and a float
        g, lap_x = c.derivatives(x)
        assert g.tobytes() == c.grad(x).tobytes() and g.shape == (3,)
        assert type(lap_x) is float and lap_x == c.laplacian(x)


@pytest.mark.parametrize("R", [1.5, 16.0, 1e100])
def test_value_on_radii_is_the_cutoff_at_those_radii(R):
    c = make_cutoff(R)
    radii = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, np.nextafter(1.0, 0.0),
                      1.0, np.nextafter(1.0, 2.0), 3.0]) * R
    on_axis = np.column_stack([radii, np.zeros_like(radii), np.zeros_like(radii)])
    assert c.value(radii).tobytes() == c(on_axis).tobytes()
    assert c.value(radii)[[0, 2, 6, 8]].tolist() == [1.0, 1.0, 0.0, 0.0]

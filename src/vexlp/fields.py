"""Smooth velocity and pressure fields with analytic derivatives.

Two families ship with the toolkit: an exact stationary flow built from a
quadratic potential (linear growth at infinity, useful as the canonical
non-decaying solution), and divergence-free manufactured fields obtained
by taking the curl of a vector potential, so incompressibility holds in
exact arithmetic rather than approximately.

Analytic derivatives are optional everywhere; central finite differences
fill the gaps.  Every built-in carries its `Decay`, which
`estimates.membership_certificate` reads.  ``membership_scan`` probes
whether a field plausibly has finite modular over all of R^3 by watching
truncated modulars over growing balls; the verdict is a trend heuristic,
never a proof, and the pipeline does not read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .exponents import ExponentField
from .norms import Quadrature, luxemburg_norm, magnitude_power, modular
from .regions import Annulus, Ball, Region, _check_square, as_points

Array = np.ndarray

_FD_STEP = 1e-4


def fd_jacobian(fn: Callable[[Array], Array], pts: Array, h: float = _FD_STEP) -> Array:
    """d f / d x_j by central differences, stacked on a new last axis.

    A scalar field gives its gradient (n, 3); a vector field its Jacobian
    J[n, i, j] = d u_i / d x_j.
    """
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        cols.append((fn(pts + e) - fn(pts - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_laplacian(fn: Callable[[Array], Array], pts: Array, h: float = _FD_STEP) -> Array:
    center = fn(pts)
    out = np.zeros_like(center)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        out += fn(pts + e) + fn(pts - e) - 2.0 * center
    return out / h**2


def _derivative(analytic: Optional[Callable], fd: Callable, fn: Callable, x) -> Array:
    """The analytic derivative where one is given, else finite differences of fn."""
    pts, single = as_points(x)
    out = analytic(pts) if analytic is not None else fd(fn, pts)
    return out[0] if single else out


@dataclass(frozen=True)
class Decay:
    """A field's declared decay (`estimates` module notes): sup over |x| = R
    of |f| is O(R^-rate), and at least of that order on a cone in each
    ``attained`` piece; rate +inf for a field that vanishes or decays faster
    than any power."""

    rate: Fraction | float
    attained: tuple[str, ...] = ("inner", "outer")

    def __post_init__(self):
        if self.rate != self.rate:
            raise ValueError("decay rate must not be NaN")
        if isinstance(self.attained, str) or not set(self.attained) <= {"inner", "outer"}:
            raise ValueError(f"attained must be a tuple of 'inner', 'outer'; got {self.attained!r}")


@dataclass(frozen=True)
class ScalarField3:
    fn: Callable[[Array], Array]
    analytic_gradient: Optional[Callable[[Array], Array]] = None
    decay: Optional[Decay] = None

    def __call__(self, x):
        pts, single = as_points(x)
        vals = np.asarray(self.fn(pts), dtype=float)
        return float(vals[0]) if single else vals

    def gradient(self, x) -> Array:
        return _derivative(self.analytic_gradient, fd_jacobian, self.fn, x)


@dataclass(frozen=True)
class VectorField3:
    fn: Callable[[Array], Array]
    analytic_jacobian: Optional[Callable[[Array], Array]] = None
    analytic_laplacian: Optional[Callable[[Array], Array]] = None
    decay: Optional[Decay] = None

    def __call__(self, x):
        pts, single = as_points(x)
        vals = np.asarray(self.fn(pts), dtype=float)
        return vals[0] if single else vals

    def jacobian(self, x) -> Array:
        return _derivative(self.analytic_jacobian, fd_jacobian, self.fn, x)

    def laplacian(self, x) -> Array:
        return _derivative(self.analytic_laplacian, fd_laplacian, self.fn, x)

    def divergence(self, x) -> Array | float:
        pts, single = as_points(x)
        jac = self.jacobian(pts)
        d = jac[:, 0, 0] + jac[:, 1, 1] + jac[:, 2, 2]
        return float(d[0]) if single else d


def zero_vector() -> VectorField3:
    return VectorField3(
        fn=lambda pts: np.zeros_like(pts),
        analytic_jacobian=lambda pts: np.zeros((pts.shape[0], 3, 3)),
        analytic_laplacian=lambda pts: np.zeros_like(pts),
        decay=Decay(math.inf),
    )


def zero_scalar() -> ScalarField3:
    return constant_scalar(0.0)


def constant_scalar(c: float) -> ScalarField3:
    return ScalarField3(
        fn=lambda pts: np.full(pts.shape[0], float(c)),
        analytic_gradient=lambda pts: np.zeros_like(pts),
        decay=Decay(math.inf) if c == 0 else Decay(0),
    )


def gaussian_scalar() -> ScalarField3:
    def fn(pts):
        return np.exp(-np.einsum("ij,ij->i", pts, pts))

    def grad(pts):
        return -2.0 * pts * fn(pts)[:, None]

    return ScalarField3(fn=fn, analytic_gradient=grad, decay=Decay(math.inf))


def inverse_quadratic_scalar() -> ScalarField3:
    def fn(pts):
        return 1.0 / (1.0 + np.einsum("ij,ij->i", pts, pts))

    def grad(pts):
        return -2.0 * pts * (fn(pts) ** 2)[:, None]

    return ScalarField3(fn=fn, analytic_gradient=grad, decay=Decay(2))


def gradient_counterexample() -> tuple[VectorField3, ScalarField3]:
    """Exact stationary solution with linear growth.

    u = (x1, x2, -2*x3) is the gradient of the quadratic potential
    x1^2/2 + x2^2/2 - x3^2 and P = -|u|^2/2; the pair solves the
    stationary momentum equation pointwise while decaying nowhere, which
    is what makes it the canonical hypothesis-violating input.
    """

    scale = np.array([1.0, 1.0, -2.0])  # u = x * scale, grad P = -x * scale^2

    def u_fn(pts):
        return pts * scale

    jac = np.diag(scale)

    def u_jac(pts):
        return np.broadcast_to(jac, (pts.shape[0], 3, 3)).copy()

    def u_lap(pts):
        return np.zeros_like(pts)

    def p_fn(pts):
        return -0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2 + 4.0 * pts[:, 2] ** 2)

    def p_grad(pts):
        return pts * -scale**2

    u = VectorField3(fn=u_fn, analytic_jacobian=u_jac, analytic_laplacian=u_lap, decay=Decay(-1))
    return u, ScalarField3(fn=p_fn, analytic_gradient=p_grad, decay=Decay(-2))


def decaying_solenoidal(rate: float) -> VectorField3:
    """Divergence-free field with sup_{|x|=R} |u| of order R^(-rate).

    Built as the curl of psi(|x|^2) * (-x2, x1, 0) with
    psi(s) = (1 + s)^(-rate/2), so incompressibility is exact and the
    decay exponent is the parameter itself; the declared `Decay` is the
    exact rational its decimal names, attained outside the inner piece only.
    """
    if not 0 < rate < math.inf:
        raise ValueError(f"decay rate must be positive and finite, got {rate}")
    _check_square("decay rate", a := float(rate))  # the Jacobian's (a/2)(a/2 + 1)

    def parts(pts, jacobian: bool):
        """psi and dpsi at s = |x|^2 for the velocity, dpsi and d2psi for its Jacobian."""
        s = np.einsum("ij,ij->i", pts, pts)
        dpsi = -(a / 2.0) * (1.0 + s) ** (-a / 2.0 - 1.0)
        if jacobian:
            return dpsi, (a / 2.0) * (a / 2.0 + 1.0) * (1.0 + s) ** (-a / 2.0 - 2.0)
        return (1.0 + s) ** (-a / 2.0), dpsi

    def u_fn(pts):
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        psi, dpsi = parts(pts, jacobian=False)
        out = np.empty((pts.shape[0], 3))
        out[:, 0], out[:, 1] = -2.0 * x1 * x3 * dpsi, -2.0 * x2 * x3 * dpsi
        out[:, 2] = 2.0 * psi + 2.0 * (x1**2 + x2**2) * dpsi
        return out

    def u_jac(pts):
        x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
        dpsi, d2psi = parts(pts, jacobian=True)
        rho2 = x1**2 + x2**2
        n = pts.shape[0]
        J = np.empty((n, 3, 3))
        J[:, 0, 0] = -2.0 * x3 * (dpsi + 2.0 * x1**2 * d2psi)
        J[:, 0, 1] = -4.0 * x1 * x2 * x3 * d2psi
        J[:, 0, 2] = -2.0 * x1 * (dpsi + 2.0 * x3**2 * d2psi)
        J[:, 1, 0] = J[:, 0, 1]
        J[:, 1, 1] = -2.0 * x3 * (dpsi + 2.0 * x2**2 * d2psi)
        J[:, 1, 2] = -2.0 * x2 * (dpsi + 2.0 * x3**2 * d2psi)
        J[:, 2, 0] = 8.0 * x1 * dpsi + 4.0 * x1 * rho2 * d2psi
        J[:, 2, 1] = 8.0 * x2 * dpsi + 4.0 * x2 * rho2 * d2psi
        J[:, 2, 2] = 4.0 * x3 * dpsi + 4.0 * x3 * rho2 * d2psi
        return J

    decay = Decay(Fraction(str(rate)), ("outer",))
    return VectorField3(fn=u_fn, analytic_jacobian=u_jac, decay=decay)


def ns_residual(u: VectorField3, p: ScalarField3, x) -> Array:
    """Pointwise momentum residual: Laplacian(u) - (u . grad) u - grad P."""
    pts, single = as_points(x)
    lap = u.laplacian(pts)
    jac = u.jacobian(pts)
    vel = u(pts)
    advect = np.einsum("nij,nj->ni", jac, vel)
    res = lap - advect - p.gradient(pts)
    return res[0] if single else res


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[tuple[float, float, float], ...]  # (radius, truncated modular, err)
    increments: tuple[float, ...]
    verdict: str  # "convergent" | "undecided" | "diverging"
    scale: float = 1.0  # the lambda whose f / lambda was scanned
    errors: tuple[float, ...] = ()  # each increment's quadrature error


def membership_scan(
    f,
    p: ExponentField,
    radii,
    quad: Optional[Quadrature] = None,
) -> ScanResult:
    """Truncated modulars of f / lambda over growing balls with a trend verdict.

    f lies in the space iff the modular of f / lambda is finite for some
    lambda > 0.  lambda is 1 unless p has an infinite piece, where the
    modular is +inf wherever sup |f / lambda| > 1; lambda is then the
    larger of 1 and the upper end (value plus error) of the finite norm of
    f over the innermost ball, which keeps that ball finite, and a field
    that grows past lambda on a later shell still gives +inf there.  That
    norm runs on the radial rule whatever the scheme of ``quad``, since
    Monte Carlo nodes miss the peak of |f| that sets it; a p whose pieces
    are not solids of revolution about the x1 axis raises
    QuadratureDomainError.

    The verdict is "convergent" when the shell-by-shell increments decay
    under a fixed geometric envelope (ratio <= 0.9 over the last shells)
    or are identically zero, "undecided" when they fall over the last
    shells but not under that envelope (a slowly decaying field in the
    space looks so over a finite grid), and "diverging" otherwise.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("need at least three strictly increasing radii")
    quad = quad or Quadrature(n=60_000)
    shells: list[Region] = [Ball(radius=radii[0])]
    shells += [Annulus(a, b) for a, b in zip(radii, radii[1:])]
    scale, g = 1.0, f
    if p.has_infinite_piece:
        res = luxemburg_norm(f, p, shells[0], Quadrature("radial", rel_tol=quad.rel_tol))
        norm = res.value + res.abs_error
        if 1.0 < norm < math.inf:
            size = magnitude_power(f, 1.0)
            scale, g = norm, lambda pts: size(pts) / norm
    increments = []
    errors = []
    for shell in shells:
        val, err = modular(g, p, shell, quad)
        increments.append(val)
        errors.append(err)
    cums = np.cumsum(increments)
    rows = tuple(
        (r, float(c), float(e)) for r, c, e in zip(radii, cums, np.cumsum(errors))
    )
    verdict = _trend_verdict(increments)
    return ScanResult(rows, tuple(float(v) for v in increments), verdict, scale,
                      tuple(float(e) for e in errors))


def _trend_verdict(increments: list[float]) -> str:
    if any(math.isinf(v) for v in increments):
        return "diverging"
    scale = max(increments)
    if scale <= 1e-300:
        return "convergent"
    last = increments[-3:]
    slack = 1.0 + 1e-9
    if last[0] <= last[1] * slack and last[1] <= last[2] * slack and last[2] > 0:
        return "diverging"
    ratios = [b / a for a, b in zip(increments[-4:], increments[-3:]) if a > 1e-300]
    if not ratios or max(ratios) <= 0.9:  # under the envelope, or collapsed to zero
        return "convergent"
    return "undecided" if max(ratios) < 1.0 else "diverging"

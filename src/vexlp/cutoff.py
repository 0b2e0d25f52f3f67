"""Smooth radial localization with closed-form gradient and Laplacian.

The cutoff equals 1 on the ball |x| < R/2, vanishes for |x| >= R, and
transitions through the quintic smoothstep S(t) = 6t^5 - 15t^4 + 10t^3,
which is C^2 with S'(0) = S'(1) = S''(0) = S''(1) = 0.  Both derivatives
are therefore supported in the shell R/2 <= |x| <= R and obey the exact
scalings sup|grad| = 2 S'(1/2) / R and R^2 * Delta independent of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRadiusError
from .regions import Annulus, Region, as_points, row_norm


def transition(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep on [0, 1]."""
    return t**3 * (6.0 * t**2 - 15.0 * t + 10.0)


def transition_d1(t: np.ndarray) -> np.ndarray:
    return 30.0 * t**2 * (t - 1.0) ** 2


def transition_d2(t: np.ndarray) -> np.ndarray:
    return 60.0 * t * (2.0 * t - 1.0) * (t - 1.0)


# Delta = -(4/R^2) (S''(t)(1+t) + 2S'(t)) / (1+t) with t = 2r/R - 1, and
# S''(t)(1+t) + 2S'(t) = 60t(t-1)(3t^2-1) changes sign at t = 1/sqrt(3)
_LAPLACIAN_ZERO_T = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class RadialCutoff:
    """Radial plateau function: 1 inside |x| < R/2, 0 outside |x| >= R."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 1.0 and math.isfinite(self.radius * self.radius)):
            raise InvalidRadiusError(
                f"cutoff radius must exceed 1 and have a finite square, got {self.radius}")

    def _t(self, rho: np.ndarray) -> np.ndarray:
        return np.clip((2.0 * rho - self.radius) / self.radius, 0.0, 1.0)

    def __call__(self, x) -> np.ndarray | float:
        pts, single = as_points(x)
        val = self.value(row_norm(pts))
        return float(val[0]) if single else val

    def value(self, r: np.ndarray) -> np.ndarray:
        """The cutoff on 1-D radii."""
        return 1.0 - transition(self._t(r))

    def grad(self, x) -> np.ndarray:
        return self.derivatives(x)[0]

    def laplacian(self, x) -> np.ndarray | float:
        return self.derivatives(x)[1]

    def derivatives(self, x) -> tuple[np.ndarray, np.ndarray | float]:
        """(grad(x), laplacian(x)) from `radial` on |x|: grad is x d1 / |x|."""
        pts, single = as_points(x)
        d1, lap = self.radial(rho := row_norm(pts))
        grad = pts * (d1 / np.where(rho > 0, rho, 1.0))[:, None]
        return (grad[0], float(lap[0])) if single else (grad, lap)

    def radial(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d1 and the Laplacian d2 + 2 d1 / r on 1-D radii, zero off R/2 < r < R."""
        inside = (r > self.radius / 2.0) & (r < self.radius)
        t = self._t(r)
        d1 = np.where(inside, -(2.0 / self.radius) * transition_d1(t), 0.0)
        d2 = -(4.0 / self.radius**2) * transition_d2(t)
        return d1, np.where(inside, d2 + 2.0 * d1 / np.where(r > 0, r, 1.0), 0.0)

    def size(self, kind: str) -> "RadialProfile":
        """|Laplacian| (kind "laplacian") or |grad| (kind "gradient") as a
        function of (n, 3) points; it depends on |x| alone and names the
        radii where a radial rule splits its cells."""
        return RadialProfile(self, kind)

    def support(self) -> Region:
        """Shell carrying both derivatives."""
        return Annulus(self.radius / 2.0, self.radius)


@dataclass(frozen=True)
class RadialProfile:
    """The size of a cutoff derivative, |Laplacian| or |grad|, as a field.

    Its values equal those of the cutoff's derivative methods.  ``kinks``
    are the radii where a radial rule cuts its cells, the same for both
    kinds so both norms of a shell share one rule: the shell edges R/2 and
    R, and R(1 + 1/sqrt(3))/2, where the Laplacian changes sign and |grad|
    is smooth, so the extra cell edge costs it no accuracy.
    """

    cutoff: RadialCutoff
    kind: str

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "laplacian":
            return np.abs(self.cutoff.laplacian(pts))
        return row_norm(self.cutoff.grad(pts))

    def radial(self, r: np.ndarray) -> np.ndarray:  # on 1-D radii: |Laplacian| or |grad| = |d1|
        return np.abs(self.cutoff.radial(r)[self.kind == "laplacian"])

    @property
    def kinks(self) -> tuple[float, ...]:
        R = self.cutoff.radius
        return (R / 2.0, R * (1.0 + _LAPLACIAN_ZERO_T) / 2.0, R)


def make_cutoff(radius: float) -> RadialCutoff:
    return RadialCutoff(float(radius))

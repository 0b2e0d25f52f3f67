"""Piecewise variable exponents p(.) on R^3 and their arithmetic.

An `ExponentField` is an ordered list of (region, piece) pairs plus a
default piece for points covered by no listed region.  Pieces are either
constants (with +inf allowed) or callables carrying declared lower/upper
bounds, so essential bounds over any region reduce to piece bookkeeping
instead of global optimization.

Three ready-made two-piece layouts mirror the hypotheses the decay
estimates need: a high exponent inside the infinite unit tube, a high
exponent inside a widening power cusp, and an infinite exponent inside a
shrinking cusp.  Each layout validates the admissible band of its
parameters; validation can be switched off to build deliberately failing
configurations for negative tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ExponentRangeError,
    PresetConstraintError,
    UnboundedRegionError,
)
from .regions import Ball, Cylinder, Intersect, PowerCusp, Region, ShrinkCusp, as_points

RationalLike = Union[int, float, str, Fraction]

_PROBE_RADIUS = 64.0  # bounded window used to sample unbounded regions


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class ExponentPiece:
    """One branch of a piecewise exponent: a constant or a bounded callable."""

    value: Optional[float] = None
    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lower: float = 1.0
    upper: float = math.inf

    @classmethod
    def constant(cls, value: float) -> "ExponentPiece":
        v = float(value)
        if v < 1.0:
            raise ExponentRangeError(f"exponent must be >= 1, got {v}")
        return cls(value=v, lower=v, upper=v)

    @classmethod
    def from_callable(
        cls, fn: Callable[[np.ndarray], np.ndarray], lower: float, upper: float
    ) -> "ExponentPiece":
        if not 1.0 <= lower <= upper:
            raise ExponentRangeError(
                f"declared bounds must satisfy 1 <= lower <= upper, got "
                f"({lower}, {upper})"
            )
        if math.isinf(upper):
            raise ExponentRangeError("+inf is representable only as a constant piece")
        return cls(evaluator=fn, lower=float(lower), upper=float(upper))

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    @property
    def is_infinite(self) -> bool:
        return self.value is not None and math.isinf(self.value)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        if self.is_constant:
            return np.full(pts.shape[0], self.value)
        return np.asarray(self.evaluator(pts), dtype=float)

    def conjugate(self, k: int) -> "ExponentPiece":
        if self.is_infinite:
            return ExponentPiece.constant(1.0)
        if self.lower <= k:
            raise ExponentRangeError(
                f"conjugate with numerator {k} needs every piece bound > {k}; "
                f"got lower bound {self.lower}"
            )
        if self.is_constant:
            return ExponentPiece.constant(self.value / (self.value - k))
        fn = self.evaluator
        # order reversal: v -> v/(v-k) is decreasing for v > k
        return ExponentPiece.from_callable(
            lambda pts: fn(pts) / (fn(pts) - k),
            lower=self.upper / (self.upper - k),
            upper=self.lower / (self.lower - k),
        )

    def divided_by(self, s: float) -> "ExponentPiece":
        if self.is_infinite:
            return self
        if self.lower / s < 1.0:
            raise ExponentRangeError(
                f"dividing by {s} drops the lower bound {self.lower} below 1"
            )
        if self.is_constant:
            return ExponentPiece.constant(self.value / s)
        fn = self.evaluator
        return ExponentPiece.from_callable(
            lambda pts: fn(pts) / s, self.lower / s, self.upper / s
        )


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float
    n_samples: int
    exact: bool


@dataclass(frozen=True)
class ExponentField:
    """Piecewise exponent: first matching region wins, else the default."""

    pieces: tuple[tuple[Region, ExponentPiece], ...]
    default: ExponentPiece

    def __call__(self, x) -> np.ndarray | float:
        pts, single = as_points(x)
        out = self.default(pts)
        unclaimed = np.ones(pts.shape[0], dtype=bool)
        for region, piece in self.pieces:
            mask = unclaimed & region.contains(pts)
            if mask.any():
                out[mask] = piece(pts[mask])
            unclaimed &= ~mask
        return float(out[0]) if single else out

    def piece_regions(self) -> tuple[Region, ...]:
        return tuple(region for region, _ in self.pieces)

    @property
    def declared_lower(self) -> float:
        return min([p.lower for _, p in self.pieces] + [self.default.lower])

    @property
    def declared_upper(self) -> float:
        return max([p.upper for _, p in self.pieces] + [self.default.upper])

    @property
    def has_infinite_piece(self) -> bool:
        return self.default.is_infinite or any(p.is_infinite for _, p in self.pieces)

    def is_piecewise_constant(self) -> bool:
        return self.default.is_constant and all(p.is_constant for _, p in self.pieces)

    def essential_bounds(
        self, region: Region, seed: int = 0, n: int = 4096
    ) -> BoundsReport:
        """Essential inf/sup of the exponent over a region.

        Exact when the region coincides with a listed piece region, or when
        the field is piecewise constant and the region can be sampled to
        identify the intersecting pieces.  Falls back to sampling a bounded
        window for unbounded regions.
        """
        for piece_region, piece in self.pieces:
            if region == piece_region:
                return BoundsReport(piece.lower, piece.upper, 0, piece.is_constant)
        try:
            pts = region.sample(n, seed)
            windowed = False
        except UnboundedRegionError:
            probe = Intersect(region, Ball(radius=_PROBE_RADIUS))
            try:
                pts = probe.sample(n, seed)
            except UnboundedRegionError as exc:
                raise UnboundedRegionError(
                    "essential bounds need a samplable region or a declared piece"
                ) from exc
            windowed = True
        vals = self(pts)
        exact = self.is_piecewise_constant() and not windowed
        # python floats: lemma1_check raises volumes to these bounds
        return BoundsReport(float(vals.min()), float(vals.max()), pts.shape[0], exact)

    def conjugate(self, k: int) -> "ExponentField":
        """Pointwise k-conjugate p -> p/(p - k) with bounds transformed."""
        if k not in (1, 2, 3):
            raise ValueError(f"conjugate numerator must be 1, 2 or 3, got {k}")
        return ExponentField(
            tuple((r, p.conjugate(k)) for r, p in self.pieces),
            self.default.conjugate(k),
        )

    def divided_by(self, s: float) -> "ExponentField":
        return ExponentField(
            tuple((r, p.divided_by(s)) for r, p in self.pieces),
            self.default.divided_by(s),
        )


def constant_field(value: float) -> ExponentField:
    return ExponentField((), ExponentPiece.constant(value))


def two_piece_field(region: Region, inner: float, outer: float) -> ExponentField:
    return ExponentField(
        ((region, ExponentPiece.constant(inner)),), ExponentPiece.constant(outer)
    )


PRESET_KINDS = ("cylinder", "power_cusp", "shrink_cusp")


@dataclass(frozen=True)
class PresetSpec:
    """Parameters of a two-piece exponent layout.

    ``inner`` is the exponent inside the named region (ignored for the
    shrink_cusp kind, which pins it to +inf), ``outer`` the exponent on the
    complement.  Values are kept as exact rationals so the decay-exponent
    certificates can run in exact arithmetic.
    """

    kind: str
    outer: Fraction
    inner: Optional[Fraction] = None
    gamma: Optional[Fraction] = None
    sigma: Optional[Fraction] = None

    def __post_init__(self):
        shape = {"power_cusp": "gamma", "shrink_cusp": "sigma"}.get(self.kind)
        if shape and getattr(self, shape) is None:
            raise PresetConstraintError(f"{self.kind} preset needs {shape}")
        if self.inner is not None and self.inner < 1:
            raise PresetConstraintError(f"inner exponent must be at least 1; got {self.inner}")

    @classmethod
    def make(
        cls,
        kind: str,
        outer: RationalLike,
        inner: Optional[RationalLike] = None,
        gamma: Optional[RationalLike] = None,
        sigma: Optional[RationalLike] = None,
    ) -> "PresetSpec":
        if kind not in PRESET_KINDS:
            raise PresetConstraintError(
                f"unknown preset kind {kind!r}; expected one of {PRESET_KINDS}"
            )
        return cls(
            kind=kind,
            outer=_as_fraction(outer),
            inner=None if inner is None else _as_fraction(inner),
            gamma=None if gamma is None else _as_fraction(gamma),
            sigma=None if sigma is None else _as_fraction(sigma),
        )

    def inner_region(self) -> Region:
        if self.kind == "cylinder":
            return Cylinder()
        if self.kind == "power_cusp":
            return PowerCusp(float(self.gamma))
        return ShrinkCusp(float(self.sigma))

    def inner_exponent(self) -> float:
        return math.inf if self.kind == "shrink_cusp" else float(self.inner)

    def validate(self) -> None:
        if not Fraction(3) < self.outer < Fraction(9, 2):
            raise PresetConstraintError(
                f"outer exponent must satisfy 3 < outer < 9/2; got {self.outer}"
            )
        if self.kind == "cylinder":
            if self.inner is None or not self.inner > Fraction(9, 2):
                raise PresetConstraintError(
                    f"cylinder preset needs inner exponent > 9/2; got {self.inner}"
                )
        elif self.kind == "power_cusp":
            if self.gamma is None or not 0 < self.gamma < 1:
                raise PresetConstraintError(
                    f"power_cusp preset needs 0 < gamma < 1; got {self.gamma}"
                )
            cap = (6 * self.gamma + 3) / (2 * self.gamma)
            if self.inner is None or not Fraction(9, 2) < self.inner < cap:
                raise PresetConstraintError(
                    "power_cusp preset needs 9/2 < inner < (6*gamma+3)/(2*gamma) "
                    f"= {cap}; got {self.inner}"
                )
        else:
            if self.sigma is None or not 0 < self.sigma < 1:
                raise PresetConstraintError(
                    f"shrink_cusp preset needs 0 < sigma < 1; got {self.sigma}"
                )


def preset(spec: PresetSpec, validate: bool = True) -> ExponentField:
    """Two-piece exponent field for a preset layout."""
    if validate:
        spec.validate()
    else:
        # geometry still needs usable shape parameters and an inner exponent
        if spec.kind != "shrink_cusp" and spec.inner is None:
            raise PresetConstraintError(f"{spec.kind} preset needs an inner exponent")
        if spec.kind == "power_cusp" and not 0 < spec.gamma < 1:
            raise PresetConstraintError(f"gamma must lie in (0,1); got {spec.gamma}")
        if spec.kind == "shrink_cusp" and not 0 < spec.sigma < 1:
            raise PresetConstraintError(f"sigma must lie in (0,1); got {spec.sigma}")
    return two_piece_field(
        spec.inner_region(), spec.inner_exponent(), float(spec.outer)
    )


@dataclass(frozen=True)
class LogHolderReport:
    """Sampled diagnostic of the modulus-of-continuity condition.

    ``local_constant`` estimates sup |1/p(x) - 1/p(y)| * log(e + 1/|x-y|)
    over nearby pairs; ``decay_constant`` estimates the matching supremum
    along rays against the radial limit of 1/p, when such a limit exists.
    The boolean is a heuristic, not a certificate.
    """

    local_constant: float
    decay_constant: float
    satisfied: bool
    reason: str = ""


def log_holder_diagnostic(
    p: ExponentField,
    n_pairs: int = 4000,
    seed: int = 0,
    window: float = 10.0,
    far_radius: float = 1.0e6,
) -> LogHolderReport:
    rng = np.random.default_rng(seed)
    x = Ball(radius=window).sample(n_pairs, seed)
    # pair each sample with a log-uniform nearby offset
    dirs = rng.normal(size=(n_pairs, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dist = np.exp(rng.uniform(np.log(1e-6), np.log(1.0), n_pairs))
    y = x + dirs * dist[:, None]
    with np.errstate(divide="ignore"):
        inv_px = 1.0 / p(x)
        inv_py = 1.0 / p(y)
    local = float(np.max(np.abs(inv_px - inv_py) * np.log(math.e + 1.0 / dist)))

    # radial limit: evaluate 1/p far out along many directions, always
    # including the coordinate axes (piece regions hug the x1 axis, which
    # random directions miss almost surely)
    ray_dirs = rng.normal(size=(512, 3))
    ray_dirs /= np.linalg.norm(ray_dirs, axis=1, keepdims=True)
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    ray_dirs = np.concatenate([axes, ray_dirs])
    with np.errstate(divide="ignore"):
        far = 1.0 / p(ray_dirs * far_radius)
    if float(far.max() - far.min()) > 1e-9:
        return LogHolderReport(local, math.nan, False, "no radial limit")
    inv_p_inf = float(far.mean())
    radii = np.geomspace(1.0, far_radius, 24)
    pts = (ray_dirs[:, None, :] * radii[None, :, None]).reshape(-1, 3)
    with np.errstate(divide="ignore"):
        inv_p = 1.0 / p(pts)
    decay = float(
        np.max(np.abs(inv_p - inv_p_inf) * np.log(math.e + np.linalg.norm(pts, axis=1)))
    )
    return LogHolderReport(local, decay, True)

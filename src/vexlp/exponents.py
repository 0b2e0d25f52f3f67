"""Piecewise variable exponents p(.) on R^3 and their arithmetic.

An `ExponentField` is an ordered table of (region, value) pairs plus a
default value for points covered by no listed region; every value is a
constant in [1, +inf].  Essential bounds over a listed piece region are
read off the table, and over any other region they are the extremes of
the values found on points sampled in it, so that region must be bounded.

Three ready-made two-piece layouts mirror the hypotheses the decay
estimates need: a high exponent inside the infinite unit tube, a high
exponent inside a widening power cusp, and an infinite exponent inside a
shrinking cusp.  Each layout checks its geometry, then the admissible
band of its parameters; the band check can be switched off to build
deliberately failing configurations for negative tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import ExponentRangeError, PresetConstraintError
from .regions import Cylinder, PowerCusp, Region, ShrinkCusp, as_points

RationalLike = Union[int, float, str, Fraction]


def _conjugate_value(v: float, k: int) -> float:
    if math.isinf(v):
        return 1.0
    if v <= k:
        raise ExponentRangeError(
            f"conjugate with numerator {k} needs every piece bound > {k}; "
            f"got lower bound {v}"
        )
    return v / (v - k)


def _divided_value(v: float, s: float) -> float:
    if math.isinf(v):
        return v
    if v / s < 1.0:
        raise ExponentRangeError(f"dividing by {s} drops the lower bound {v} below 1")
    return v / s


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float


@dataclass(frozen=True)
class ExponentField:
    """Piecewise-constant exponent: first matching region wins, else the
    default.  Every value lies in [1, +inf]."""

    pieces: tuple[tuple[Region, float], ...]
    default: float

    def __post_init__(self):
        for v in self._values():
            if not v >= 1.0:
                raise ExponentRangeError(f"exponent must be >= 1, got {v}")

    def __call__(self, x) -> np.ndarray | float:
        pts, single = as_points(x)
        out = np.full(pts.shape[0], self.default)
        unclaimed = np.ones(pts.shape[0], dtype=bool)
        for region, value in self.pieces:
            mask = unclaimed & region.contains(pts)
            out[mask] = value
            unclaimed &= ~mask
        return float(out[0]) if single else out

    def _values(self) -> tuple[float, ...]:
        return (*(v for _, v in self.pieces), self.default)

    @property
    def declared_lower(self) -> float:
        return min(self._values())

    @property
    def has_infinite_piece(self) -> bool:
        return any(math.isinf(v) for v in self._values())

    def essential_bounds(
        self, region: Region, seed: int = 0, n: int = 4096
    ) -> BoundsReport:
        """Essential inf/sup of the exponent over a region.

        Read off the table when the region is a listed piece region, else
        the extremes over n points sampled in the region, which identify
        the pieces it meets; ``region.sample`` raises UnboundedRegionError
        for a region it cannot sample.
        """
        for piece_region, v in self.pieces:
            if region == piece_region:
                return BoundsReport(v, v)
        vals = self(region.sample(n, seed))
        # python floats: lemma1_check raises volumes to these bounds
        return BoundsReport(float(vals.min()), float(vals.max()))

    def conjugate(self, k: int) -> "ExponentField":
        """Pointwise k-conjugate p -> p/(p - k); +inf maps to 1."""
        if k not in (1, 2, 3):
            raise ValueError(f"conjugate numerator must be 1, 2 or 3, got {k}")
        return ExponentField(
            tuple((r, _conjugate_value(v, k)) for r, v in self.pieces),
            _conjugate_value(self.default, k),
        )

    def divided_by(self, s: float) -> "ExponentField":
        return ExponentField(
            tuple((r, _divided_value(v, s)) for r, v in self.pieces),
            _divided_value(self.default, s),
        )


def constant_field(value: float) -> ExponentField:
    return ExponentField((), float(value))


def two_piece_field(region: Region, inner: float, outer: float) -> ExponentField:
    return ExponentField(((region, float(inner)),), float(outer))


PRESET_KINDS = ("cylinder", "power_cusp", "shrink_cusp")
_SHAPES = {"power_cusp": "gamma", "shrink_cusp": "sigma"}  # a cusp's power


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
        shape = _SHAPES.get(self.kind)
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
            outer=Fraction(outer),
            inner=None if inner is None else Fraction(inner),
            gamma=None if gamma is None else Fraction(gamma),
            sigma=None if sigma is None else Fraction(sigma),
        )

    def inner_region(self) -> Region:
        if self.kind == "cylinder":
            return Cylinder()
        if self.kind == "power_cusp":
            return PowerCusp(float(self.gamma))
        return ShrinkCusp(float(self.sigma))

    def inner_exponent(self) -> float:
        return math.inf if self.kind == "shrink_cusp" else float(self.inner)

    def check_geometry(self) -> None:
        """What the layout needs to exist: an inner exponent unless the kind
        pins it, and a cusp power in (0, 1)."""
        if self.kind != "shrink_cusp" and self.inner is None:
            raise PresetConstraintError(f"{self.kind} preset needs an inner exponent")
        shape = _SHAPES.get(self.kind)
        if shape and not 0 < getattr(self, shape) < 1:
            raise PresetConstraintError(
                f"{self.kind} preset needs 0 < {shape} < 1; got {getattr(self, shape)}"
            )

    def validate(self) -> None:
        self.check_geometry()
        if not Fraction(3) < self.outer < Fraction(9, 2):
            raise PresetConstraintError(
                f"outer exponent must satisfy 3 < outer < 9/2; got {self.outer}"
            )
        if self.kind == "cylinder" and not self.inner > Fraction(9, 2):
            raise PresetConstraintError(
                f"cylinder preset needs inner exponent > 9/2; got {self.inner}"
            )
        if self.kind == "power_cusp":
            cap = (6 * self.gamma + 3) / (2 * self.gamma)
            if not Fraction(9, 2) < self.inner < cap:
                raise PresetConstraintError(
                    "power_cusp preset needs 9/2 < inner < (6*gamma+3)/(2*gamma) "
                    f"= {cap}; got {self.inner}"
                )


def preset(spec: PresetSpec, validate: bool = True) -> ExponentField:
    """Two-piece exponent field for a preset layout; unvalidated, only its geometry."""
    (spec.validate if validate else spec.check_geometry)()
    return two_piece_field(
        spec.inner_region(), spec.inner_exponent(), float(spec.outer)
    )

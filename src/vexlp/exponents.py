"""Piecewise variable exponents p(.) on R^3 and their arithmetic.

An `ExponentField` is an ordered table of (region, value) pairs plus a
default value for points covered by no listed region; every value is a
constant in [1, +inf].

Three ready-made two-piece layouts mirror the hypotheses the decay
estimates need: a high exponent inside the infinite unit tube, a high
exponent inside a widening power cusp, and an infinite exponent inside a
shrinking cusp.  `PresetSpec` holds all of a layout's exponent arithmetic:
each piece's exact exponent and shell volume growth (`pieces`), the cap on
the inner exponent and the band of the outer one (`inner_cap`).  Each layout
checks its geometry, then that admissible band; the band check can be
switched off to build deliberately failing configurations for negative tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import ExponentRangeError, PresetConstraintError
from .regions import Cylinder, PowerCusp, Region, ShrinkCusp, as_points

RationalLike = Union[int, float, str, Fraction]


def _conjugate_value(v, k: int):
    """The k-conjugate v/(v - k) of one exponent value, float or exact; +inf maps to 1."""
    if v == math.inf:  # math.isinf would overflow on a Fraction past the float range
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
class ExponentField:
    """Piecewise-constant exponent (module notes): the first matching region wins."""

    pieces: tuple[tuple[Region, float], ...]
    default: float

    def __post_init__(self):
        for v in self.values():
            if not v >= 1.0:
                raise ExponentRangeError(f"exponent must be >= 1, got {v}")

    def __call__(self, x) -> np.ndarray | float:
        pts, single = as_points(x)
        out = np.full(pts.shape[0], self.default, dtype=float)
        unclaimed = np.ones(pts.shape[0], dtype=bool)
        for region, value in self.pieces:
            mask = unclaimed & region.contains(pts)
            out[mask] = value
            unclaimed &= ~mask
        return float(out[0]) if single else out

    def values(self) -> tuple[float, ...]:
        """The piece values in table order, then the default."""
        return (*(v for _, v in self.pieces), self.default)

    @property
    def declared_lower(self) -> float:
        return min(self.values())

    @property
    def has_infinite_piece(self) -> bool:
        return any(math.isinf(v) for v in self.values())

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

    def pieces(self) -> tuple[tuple[str, Fraction | float | None, Fraction], ...]:
        """The inner and the outer piece as (name, exponent, growth): the exact
        exponent (+inf on the shrinking cusp, None if not yet given) and the
        growth d of the piece's shell volume ~ R^d, which is 1 in the tube,
        2 gamma + 1 in the widening cusp, 1 - sigma in the shrinking cusp and
        3 outside.  Builds no region, so gamma = 1 still has pieces."""
        growth = (Fraction(1) if self.kind == "cylinder" else
                  2 * self.gamma + 1 if self.kind == "power_cusp" else 1 - self.sigma)
        inner = math.inf if self.kind == "shrink_cusp" else self.inner
        return ("inner", inner, growth), ("outer", self.outer, Fraction(3))

    def inner_cap(self) -> Fraction | float:
        """Supremum of the inner exponents keeping every decay power negative.

        The outer exponent must lie in the band 3 < outer < 9/2.  The
        binding constraint comes from the flux term: with inner growth d the
        negativity of -1 + d (p-3)/p caps p at 3d/(d-1) when d > 1.  The
        unit tube has d = 1 (no cap); the widening cusp has d = 2 gamma + 1,
        giving (6 gamma + 3) / (2 gamma) within the float range; the
        shrinking cusp has d < 1 so even an infinite inner exponent is
        admissible.  The Laplacian term's cap 2d/(d-2), for d > 2, never
        binds: 3d/(d-1) < 2d/(d-2) for every d < 4, and gamma <= 1 keeps
        d <= 3.
        """
        if not Fraction(3) < self.outer < Fraction(9, 2):
            raise PresetConstraintError(
                f"outer exponent must satisfy 3 < outer < 9/2; got {self.outer}"
            )
        if self.kind == "power_cusp" and not 0 < self.gamma <= 1:
            raise PresetConstraintError(f"cusp exponent must lie in (0, 1]; got {self.gamma}")
        (_, _, d), _ = self.pieces()
        if d <= 1:
            return math.inf
        if (cap := 3 * d / (d - 1)) > sys.float_info.max:
            raise PresetConstraintError("cusp exponent too small: the inner cap "
                                        "(6*gamma+3)/(2*gamma) exceeds the float range")
        return cap

    def check_geometry(self) -> None:
        """What the layout needs to exist: an inner exponent unless the kind
        pins it, and a cusp power in (0, 1), also as the float its region takes."""
        if self.kind != "shrink_cusp" and self.inner is None:
            raise PresetConstraintError(f"{self.kind} preset needs an inner exponent")
        shape = _SHAPES.get(self.kind)
        if not shape:
            return
        power = getattr(self, shape)
        if not 0 < power < 1:
            raise PresetConstraintError(f"{self.kind} preset needs 0 < {shape} < 1; got {power}")
        if float(power) in (0.0, 1.0):
            raise PresetConstraintError(
                f"{self.kind} preset needs 0 < {shape} < 1 as a float; it rounds to {float(power)}")

    def validate(self) -> None:
        self.check_geometry()
        cap = self.inner_cap()
        if self.kind != "shrink_cusp" and not Fraction(9, 2) < self.inner < cap:
            band = ("inner exponent > 9/2" if self.kind == "cylinder"
                    else f"9/2 < inner < (6*gamma+3)/(2*gamma) = {cap}")
            raise PresetConstraintError(f"{self.kind} preset needs {band}; got {self.inner}")


def admissible_upper_bound(kind: str, p_out, gamma=None) -> Fraction | float:
    """`PresetSpec.inner_cap` of the layout with outer exponent ``p_out`` whose
    inner region is the unit tube ("cylinder"), a shrinking cusp
    ("shrink_cusp", capped like the tube whatever its sigma: both have
    d <= 1) or the widening cusp of power ``gamma`` ("cusp")."""
    if kind == "cusp":
        return PresetSpec.make("power_cusp", p_out, gamma=gamma).inner_cap()
    if kind not in ("cylinder", "shrink_cusp"):
        raise ValueError(f"unknown region kind {kind!r}")
    return PresetSpec.make("cylinder", p_out).inner_cap()


def preset(spec: PresetSpec, validate: bool = True) -> ExponentField:
    """Two-piece exponent field for a preset layout; unvalidated, only its geometry."""
    (spec.validate if validate else spec.check_geometry)()
    try:
        inner, outer = (float(p) for _, p, _ in spec.pieces())
    except OverflowError:
        raise PresetConstraintError(
            f"preset exponents must be at most {sys.float_info.max:.6g}") from None
    return two_piece_field(spec.inner_region(), inner, outer)

"""Semi-algebraic subsets of R^3: membership, uniform sampling, volume.

Concrete descriptors cover the sets the decay estimates integrate over:
balls and annular shells around the origin, the unit tube about the x1
axis, solids of revolution whose cross-section radius follows a power law
in x1 (widening as x1^gamma or shrinking as x1^(-sigma/2)), and boolean
combinations.  The tube is `Cylinder`; both cusp families are one `Cusp`,
x2^2 + x3^2 <= x1^power with power 2 gamma or -sigma (`PowerCusp` and
`ShrinkCusp` build it).  Each axial bound (``half_length`` or ``length``)
defaults to inf, the unbounded set; a finite bound clips it to a finite
volume.  Each solid of revolution about the x1 axis also gives, in closed
form or as a root bisected to adjacent floats, the polar angles where a
sphere about the origin may cross its boundary, and the radii where those
crossings appear, vanish or pass a corner of the boundary
(`radial_breaks`): a radial integrand over the pieces kinks there.

Membership treats boundary points as members (closed sets) so repeated
evaluation is deterministic.  Sampling (the members of one stratified draw)
and Monte Carlo volume run over an axis-aligned *envelope*: disjoint boxes
covering the region, stratified along x1 where the cross-section varies.  The
shrinking-cusp family flares near x1 = 0 (the cross-section radius
diverges), so its envelope uses geometrically refined strata toward 0 and
reports the volume of the omitted sliver as part of the error estimate.
Every Monte Carlo stratum is drawn by `Box.sample`, 16,384 rows of its
stream at a time (so the draws are those of one whole-stratum draw), into
a column-major buffer whose coordinates the membership tests read as
contiguous columns (an `Annulus` test on stride-3 rows took 3x as long).
A Monte Carlo volume counts a stratum chunk by chunk in one such buffer, so
its memory does not grow with the sample count; a 16,384-row chunk (384 KB)
stays in cache (a `volume-growth` cycle took 8,800 minor page faults at 65,536
rows, under 10 at 16,384).  A stratum the region decides (all or none of its
draws are members) counts undrawn; 17% of a cycle's rows lay in such strata.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AnalyticUnavailableError, QuadratureDomainError, SamplingBudgetError, UnboundedRegionError)

_GEOMETRIC_LEVELS = 120  # strata toward a diverging cross-section at x1 = 0
_UNIFORM_LEVELS = 16
_CHUNK = 1 << 14  # rows a Monte Carlo stratum draws (and a volume tests) at a time


def as_points(x) -> tuple[np.ndarray, bool]:
    """Points as (n, 3), and whether one point (3,) was given."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return pts.reshape(1, 3), True
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (3,) or (n, 3), got {pts.shape}")
    return pts, False


def row_norm(v) -> np.ndarray:
    """Euclidean norm of each row of an (n, k) array, k >= 1: the squares
    summed left to right, then the square root, so every bit equals
    ``np.linalg.norm(v, axis=1)`` without its temporaries."""
    v = np.asarray(v, dtype=float)
    out = np.square(v[:, 0])
    col = np.empty_like(out)
    for j in range(1, v.shape[1]):
        out += np.square(v[:, j], out=col)
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box used as a sampling stratum."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def volume(self) -> float:
        return math.prod(h - l for l, h in zip(self.lo, self.hi))

    def sample(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n uniform points lo + rng.random((n, 3)) * (hi - lo), in ``out`` if
        given, else column-major; the rows are drawn _CHUNK at a time."""
        if out is None:
            out = np.empty((3, n)).T
        u = np.empty((min(_CHUNK, n), 3))
        for a in range(0, n, _CHUNK):
            rows = rng.random(out=u[: n - a])
            for col, x, l, h in zip(out[a : a + len(rows)].T, rows.T, self.lo, self.hi):
                np.multiply(x, h - l, out=col)
                col += l
        return out


@dataclass(frozen=True)
class Extent:
    """Axial description of a region used to build sampling envelopes.

    ``rho_bound(a, b)`` bounds the distance to the x1 axis over the slab
    a <= x1 <= b; it may return inf.  ``diverging_lo`` marks a bound that
    blows up as the lower axial end is approached, which triggers
    geometric stratification.  ``tail_volume(delta)`` bounds the region
    volume inside the slab x1 < lo + delta (used to account for the
    sliver the geometric strata omit).
    """

    x1_lo: float
    x1_hi: float
    rho_bound: Callable[[float, float], float]
    diverging_lo: bool = False
    tail_volume: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class Envelope:
    boxes: tuple[Box, ...]
    tail_bound: float = 0.0

    def volumes(self) -> np.ndarray:
        return np.array([b.volume() for b in self.boxes])

    def strata(self, n: int, seed: int):
        """(box, volume, count, generator) per box: n points split by volume,
        at least one per box, for the caller to draw from the box's own stream."""
        vols = self.volumes()
        alloc = np.maximum(1, np.round(n * vols / vols.sum()).astype(int))
        streams = np.random.SeedSequence(seed).spawn(len(self.boxes))
        for box, vol, n_i, ss in zip(self.boxes, vols, alloc, streams):
            yield box, vol, int(n_i), np.random.default_rng(ss)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float


class Region(ABC):
    """Immutable point set in R^3 with deterministic membership."""

    @abstractmethod
    def _contains_batch(self, pts: np.ndarray) -> np.ndarray:
        ...

    @abstractmethod
    def _extent(self) -> Extent:
        ...

    def contains(self, x) -> np.ndarray | bool:
        """Membership test; accepts one point (3,) or a batch (n, 3)."""
        pts, single = as_points(x)
        mask = self._contains_batch(pts)
        return bool(mask[0]) if single else mask

    def _decides(self, box: Box) -> Optional[bool]:
        """True if every point `Box.sample` can draw from box is a member, False if none is."""
        return None

    def polar_breaks(self, r: np.ndarray) -> np.ndarray:
        """Per radius in r, the angles where |x| = r may cross the boundary, NaN-padded."""
        raise QuadratureDomainError("the radial rule needs exponent pieces that are "
                                    "solids of revolution about the x1 axis")

    def radial_breaks(self) -> tuple[float, ...]:
        """The radii where a sphere about the origin begins or stops crossing
        the boundary, or crosses it at a corner (module notes)."""
        return ()

    def analytic_volume(self) -> float:
        """`_closed_volume`, or UnboundedRegionError where it overflows a float."""
        try:
            if math.isfinite(vol := self._closed_volume()):
                return vol
        except OverflowError:  # Python's float ** raises where numpy gives inf
            pass
        raise UnboundedRegionError(f"{type(self).__name__} volume overflows a float")

    def _closed_volume(self) -> float:
        raise AnalyticUnavailableError(
            f"{type(self).__name__} has no closed-form volume"
        )

    def envelope(self) -> Envelope:
        """Disjoint boxes covering the region in x1 slabs: geometric toward a
        flare, 16 uniform where the cross-section radius varies, else one."""
        ext = self._extent()
        lo, hi = ext.x1_lo, ext.x1_hi
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise UnboundedRegionError(
                f"{type(self).__name__} has no finite sampling envelope"
            )
        if ext.diverging_lo:
            edges = _geometric_edges(lo, hi, _GEOMETRIC_LEVELS)
            tail_delta = edges[0] - lo
            tail = _tail_bound(ext, tail_delta)
        else:
            k = _UNIFORM_LEVELS if _rho_varies(ext) else 1
            edges = np.linspace(lo, hi, k + 1)
            tail = 0.0
        boxes = []
        for a, b in zip(edges[:-1], edges[1:]):
            rho = ext.rho_bound(float(a), float(b))
            if not math.isfinite(rho):
                raise UnboundedRegionError(
                    f"{type(self).__name__} has unbounded cross-section on "
                    f"[{a:g}, {b:g}]"
                )
            if rho <= 0.0 or b <= a:
                continue
            boxes.append(Box((float(a), -rho, -rho), (float(b), rho, rho)))
        env = Envelope(tuple(boxes), tail)
        total = env.volumes().sum()
        if not total > 0.0:  # no boxes, or their volume underflows
            raise UnboundedRegionError(f"{type(self).__name__} envelope is empty")
        if not math.isfinite(total):  # the strata split n by it
            raise UnboundedRegionError(f"{type(self).__name__} envelope volume overflows a float")
        return env

    def sample(self, n: int, seed: int) -> np.ndarray:
        """The members, C-ordered, of the points `Envelope.strata(n, seed)` draws
        (n, or more where a stratum's one-point floor adds some): bit for bit
        the in-domain nodes of `Quadrature(n=n, seed=seed)`."""
        strata = self.envelope().strata(n, seed)
        pts = np.concatenate([box.sample(rng, k) for box, _, k, rng in strata])
        if not (kept := pts[self._contains_batch(pts)]).size:
            raise SamplingBudgetError(f"{type(self).__name__} holds none of its {len(pts)} "
                                      "draws: the region is empty or too thin for its envelope")
        return kept

    def volume(
        self, method: str = "analytic", n: int = 1_000_000, seed: int = 0
    ) -> VolumeEstimate:
        """Region volume, exact or by stratified counting; a decided stratum counts undrawn."""
        if method == "analytic":
            return VolumeEstimate(self.analytic_volume(), 0.0)
        if method != "monte_carlo":
            raise ValueError(f"unknown volume method {method!r}")
        env = self.envelope()
        total = var = 0.0
        buf = np.empty((3, min(_CHUNK, max(n, 1)))).T  # every count is at most max(n, 1)
        for box, vol, n_i, rng in env.strata(n, seed):
            if (p := self._decides(box)) is None:  # else True or False: the p its draws give
                hits = 0
                for start in range(0, n_i, _CHUNK):
                    pts = box.sample(rng, m := min(_CHUNK, n_i - start), out=buf[:m])
                    hits += int(np.count_nonzero(self._contains_batch(pts)))
                p = hits / n_i
            total += vol * p
            var += vol**2 * p * (1.0 - p) / n_i
        return VolumeEstimate(total, math.sqrt(var) + env.tail_bound)


def _geometric_edges(lo: float, hi: float, levels: int) -> np.ndarray:
    span = hi - lo
    edges = [lo + span * 2.0 ** (-k) for k in range(levels, -1, -1)]
    return np.array(edges)


def _tail_bound(ext: Extent, delta: float) -> float:
    bounds = []
    if ext.tail_volume is not None:
        bounds.append(ext.tail_volume(delta))
    rho = ext.rho_bound(ext.x1_lo, ext.x1_lo + delta)
    if math.isfinite(rho):
        bounds.append(4.0 * rho**2 * delta)
    return min(bounds) if bounds else math.inf


def _rho_varies(ext: Extent) -> bool:
    lo, hi = ext.x1_lo, ext.x1_hi
    mid = 0.5 * (lo + hi)
    r1 = ext.rho_bound(lo, mid)
    r2 = ext.rho_bound(mid, hi)
    full = ext.rho_bound(lo, hi)
    return not (
        math.isclose(r1, full, rel_tol=1e-12) and math.isclose(r2, full, rel_tol=1e-12)
    )


def _axis_dist_sq(pts: np.ndarray) -> np.ndarray:
    out = np.square(pts[:, 1])
    out += np.square(pts[:, 2])
    return out


def _shell_decides(box: Box, center, inner_sq: float, outer_sq: float) -> Optional[bool]:
    """Whether inner_sq <= `_radius_sq(x - center)` <= outer_sq for all or none of box's corners
    and draws x, each coordinate in [lo, max(hi, top)], top the draw at u = 1 - 2^-53."""
    near, far = [], []
    for l, h, c in zip(box.lo, box.hi, center):
        a, b = l - c, max(h, (1.0 - 2.0**-53) * (h - l) + l) - c
        near.append(max(a, -b, 0.0))
        far.append(max(-a, b))
    near, far = (x * x + z * z + y * y for x, y, z in (near, far))  # monotone float steps
    return True if inner_sq <= near and far <= outer_sq else (
        False if far < inner_sq or near > outer_sq else None)


def _check_square(what: str, size: float) -> None:
    """A size's square must be a float: Python's float ** raises where numpy gives inf."""
    if not math.isfinite(size * size):
        raise ValueError(f"{what} {size} is too large: its square overflows a float")


def _radius_sq(pts: np.ndarray) -> np.ndarray:
    """x1^2 + x2^2 + x3^2 per row, summed as (x1^2 + x3^2) + x2^2: the
    association of ``np.einsum("ij,ij->i", pts, pts)`` on C-ordered rows,
    so on either layout every bit matches that einsum."""
    out = np.square(pts[:, 0])
    out += np.square(pts[:, 2])
    out += np.square(pts[:, 1])
    return out


@dataclass(frozen=True)
class Ball(Region):
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if len(self.center) != 3 or not all(map(math.isfinite, self.center)):
            raise ValueError(f"ball center needs three finite coordinates, got {self.center}")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        _check_square("ball radius", self.radius)

    def _contains_batch(self, pts):
        return _radius_sq(pts - np.asarray(self.center)) <= self.radius**2

    def _decides(self, box):
        return _shell_decides(box, self.center, 0.0, self.radius**2)

    def _closed_volume(self):
        return 4.0 / 3.0 * math.pi * self.radius**3

    def polar_breaks(self, r):
        """cos theta = (r^2 + c^2 - radius^2) / (2 r c) about (c, 0, 0); NaN if c = 0."""
        c = self.center[0]
        if any(self.center[1:]):
            return super().polar_breaks(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.arccos((r**2 + c**2 - self.radius**2) / (2.0 * r * c))[:, None]

    def radial_breaks(self):
        c = math.hypot(*self.center)
        return tuple(r for r in (abs(c - self.radius), c + self.radius) if r > 0)

    def _extent(self):
        c1 = self.center[0]
        off = math.hypot(self.center[1], self.center[2])
        return Extent(c1 - self.radius, c1 + self.radius, lambda a, b: off + self.radius)


@dataclass(frozen=True)
class Annulus(Region):
    """Origin-centered spherical shell r_inner <= |x| <= r_outer."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0 <= self.r_inner < self.r_outer:
            raise ValueError("annulus requires 0 <= r_inner < r_outer")
        _check_square("annulus outer radius", self.r_outer)

    def _contains_batch(self, pts):
        r2 = _radius_sq(pts)
        return (r2 >= self.r_inner**2) & (r2 <= self.r_outer**2)

    def _decides(self, box):
        return _shell_decides(box, (0.0, 0.0, 0.0), self.r_inner**2, self.r_outer**2)

    def _closed_volume(self):
        return 4.0 / 3.0 * math.pi * (self.r_outer**3 - self.r_inner**3)

    def _extent(self):
        r = self.r_outer
        return Extent(-r, r, lambda a, b: r)

    def polar_breaks(self, r):
        return np.empty((r.size, 0))

    def radial_breaks(self):
        return self.r_inner, self.r_outer


@dataclass(frozen=True)
class Cylinder(Region):
    """Tube of radius 1 about the x1 axis, clipped to |x1| <= half_length;
    volume 2*pi*half_length, and the default inf is the infinite tube."""

    half_length: float = math.inf

    def __post_init__(self):
        if not self.half_length > 0:
            raise ValueError("half_length must be positive")

    def _contains_batch(self, pts):
        tube = _axis_dist_sq(pts) <= 1.0
        return tube if math.isinf(self.half_length) else tube & (np.abs(pts[:, 0]) <= self.half_length)

    def _closed_volume(self):
        if math.isinf(self.half_length):
            raise UnboundedRegionError("the infinite tube has infinite volume")
        return 2.0 * math.pi * self.half_length

    def _extent(self):
        return Extent(-self.half_length, self.half_length, lambda a, b: 1.0)

    def polar_breaks(self, r):
        """sin theta = 1/r (arccos loses 1e-11 at r = 256) and |cos theta| = half_length/r."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = np.column_stack([np.arcsin(1.0 / r), np.arccos(self.half_length / r)])
        return np.hstack([ends, math.pi - ends])

    def radial_breaks(self):
        """The unit radius, where the side meets the sphere at x1 = 0, and the ends'."""
        return _end_breaks(self.half_length, 1.0, (1.0,))


@dataclass(frozen=True)
class Cusp(Region):
    """Solid of revolution x2^2 + x3^2 <= x1^power, 0 < x1 <= length; a
    truncation to 0 < x1 <= L has volume pi * L^e / e, e = power + 1.  A
    negative power flares near the plane x1 = 0, unbounded in every
    direction there (module notes): a truncation has no finite bounding box."""

    power: float
    length: float = math.inf

    def __post_init__(self):
        if not (-1.0 < self.power < 2.0 and self.power != 0.0):
            raise ValueError(f"cusp power must lie in (-1, 0) or (0, 2), got {self.power}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    def _contains_batch(self, pts):
        x1 = pts[:, 0]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # read only where x1 > 0
            mask = (x1 > 0) & (_axis_dist_sq(pts) <= x1**self.power)
        return mask & (x1 <= self.length) if math.isfinite(self.length) else mask

    def _closed_volume(self):
        if math.isinf(self.length):
            raise UnboundedRegionError("the cusp has infinite volume")
        e = self.power + 1.0
        return math.pi * self.length**e / e

    def _extent(self):
        side, L = 0.5 * self.power, self.length
        if self.power > 0:
            return Extent(0.0, L, lambda a, b: min(max(b, 0.0), L) ** side)
        e = self.power + 1.0
        return Extent(0.0, L, lambda a, b: math.inf if a <= 0 else a**side,
                      diverging_lo=True, tail_volume=lambda delta: math.pi * delta**e / e)

    def polar_breaks(self, r):
        return _cusp_breaks(r, self.power, self.length)

    def radial_breaks(self):
        """The side's least radius, at x1 = s0 where s^2 + s^power is least (if the
        power is negative and the cusp reaches s0; else the side's radius grows
        with x1), and the end's."""
        s0 = _least_side(self.power)
        side = (math.sqrt(s0 * s0 + s0**self.power),) if s0 < self.length else ()
        return _end_breaks(self.length, self.length ** (0.5 * self.power), side)


def PowerCusp(gamma: float, length: float = math.inf) -> Cusp:
    """The widening cusp sqrt(x2^2 + x3^2) <= x1^gamma, 0 < gamma < 1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return Cusp(2.0 * gamma, length)


def ShrinkCusp(sigma: float, length: float = math.inf) -> Cusp:
    """The shrinking cusp sqrt(x2^2 + x3^2) <= x1^(-sigma/2), 0 < sigma < 1."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    return Cusp(-sigma, length)


def _least_side(power: float) -> float:
    """x1 = s0 = (-power/2)^(1/(2 - power)), where s^2 + s^power is least, if power < 0; else NaN."""
    return (-0.5 * power) ** (1.0 / (2.0 - power)) if power < 0 else math.nan


def _end_breaks(x1: float, rho: float, side: tuple) -> tuple[float, ...]:
    """``side``, and for a finite axial bound x1 the radii where the sphere
    meets the end disc of radius rho there: x1 at the axis, hypot(x1, rho) at the rim."""
    return side if math.isinf(x1) else (*side, x1, math.hypot(x1, rho))


def _bisect_floats(excess, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bisect each [lo, hi] over the floats' bit patterns, ordered as the floats,
    to the adjacent pair across excess > 0, and return its upper float: <= 63 steps."""
    lo, hi = lo.view(np.int64), hi.view(np.int64)
    positive = excess(lo.view(float)) > 0.0
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        same = (excess(mid.view(float)) > 0.0) == positive
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return hi.view(float)


def _cusp_breaks(r: np.ndarray, power: float, length: float) -> np.ndarray:
    """Where |x| = r meets x1 = length and x2^2 + x3^2 = x1^power: at the roots
    s = x1 of s^2 + s^power = r^2, one if power > 0, else one each side of the
    minimum s0 and x1 = 0, each at the well conditioned atan2(s^(power/2), s).
    Each root is the float `_bisect_floats` returns on its bracket."""
    r = r[:, None]
    s0 = np.full_like(r, _least_side(power))
    lo, hi = (np.hstack([0.0 * r, s0]), np.hstack([s0, r])) if power < 0 else (0.0 * r, r)
    with np.errstate(all="ignore"):
        def excess(s):
            return s * s + s**power - r * r
        none = excess(s0) > 0.0  # all of x1 > 0 inside: no root
        s = np.where(none, math.nan, _bisect_floats(excess, lo, hi))
        flare = np.full_like(r, 0.5 * math.pi if power < 0 else math.nan)
        return np.hstack([np.arctan2(s ** (0.5 * power), s), flare, np.arccos(length / r)])


@dataclass(frozen=True)
class Complement(Region):
    inner: Region

    def _contains_batch(self, pts):
        return ~self.inner._contains_batch(pts)

    def _extent(self):
        return Extent(-math.inf, math.inf, lambda a, b: math.inf)

    def polar_breaks(self, r):
        return self.inner.polar_breaks(r)

    def radial_breaks(self):
        return self.inner.radial_breaks()


@dataclass(frozen=True)
class Intersect(Region):
    first: Region
    second: Region

    def _contains_batch(self, pts):
        return self.first._contains_batch(pts) & self.second._contains_batch(pts)

    def _decides(self, box):
        a, b = self.first._decides(box), self.second._decides(box)
        return False if False in (a, b) else True if a and b else None

    def polar_breaks(self, r):
        return np.hstack([self.first.polar_breaks(r), self.second.polar_breaks(r)])

    def radial_breaks(self):
        return (*self.first.radial_breaks(), *self.second.radial_breaks())

    def _extent(self):
        e1, e2 = self.first._extent(), self.second._extent()
        lo = max(e1.x1_lo, e2.x1_lo)
        hi = min(e1.x1_hi, e2.x1_hi)

        def rho(a, b):
            return min(e1.rho_bound(a, b), e2.rho_bound(a, b))

        def tail(delta):
            parts = [
                e.tail_volume(delta)
                for e in (e1, e2)
                if e.tail_volume is not None and e.x1_lo == lo
            ]
            return min(parts) if parts else math.inf

        diverging = (e1.diverging_lo and e1.x1_lo == lo) or (
            e2.diverging_lo and e2.x1_lo == lo
        )
        return Extent(lo, hi, rho, diverging_lo=diverging, tail_volume=tail)


def Diff(keep: Region, remove: Region) -> Intersect:
    """keep minus remove; the infinite complement leaves keep's extent."""
    return Intersect(keep, Complement(remove))

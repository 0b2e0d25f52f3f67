"""Modular integrals and Luxemburg norms for piecewise variable exponents.

The modular of f is the integral of |f(x)|^p(x); the norm is the smallest
lambda making the modular of f/lambda at most 1, located by bracketing and
bisection on a map that is monotone in lambda by construction.  The nodes
are frozen for the whole root search.  The exponent is piecewise
constant, so with distinct finite values p_j the modular of f/lambda is
sum_j lambda^(-p_j) M_j with M_j = sum of w |f|^p_j over the nodes where
p = p_j; one pass over the nodes (a `_Compact`) gives every log M_j, and
each bisection step is then a sum of a few terms on Python floats, with
every bit of numpy's array sum (`_modular_at`).  Where p = +inf the norm
degenerates to the sup of |f| there (`_frozen`, `_finish`).

Quadrature is either stratified rejection Monte Carlo over a region
envelope (any samplable region, piecewise integrands included) or a radial
rule over an origin-centered ball or shell (a ball of radius 8 without a
domain), the product of three rules.  Radii are Gauss-Legendre per cell,
cut at the integrand's ``kinks`` (where it is not smooth), at the exponent
pieces' `Region.radial_breaks` and at the octave radii r1/2^k for k < 5
and on down to r = 1/2: a shell [R/2, R] is one cell, a ball of radius 8
five.  Cosines are Gauss-Legendre on each arc of the meridian where p is
constant, ending where the sphere meets a piece's boundary
(`Region.polar_breaks`), so every piece must be a solid of revolution about
the x1 axis and is integrated as exactly as the bulk; each node keeps its
arc's index into `ExponentField.values`, so p is never evaluated on the
rule, and its radius's into the rule's radii, where radial profiles and
`integrate_many`'s radial factors are evaluated.  Azimuths are uniform.  A
radial profile (a cutoff derivative's size, `cutoff.RadialProfile`) takes
one cosine and one azimuth per arc, any other integrand 24 radii per cell
and 24 of each.  The rule's error is the gap to the same rule at half the
order (for a norm, between the two roots).  The last node set, of either
scheme, is kept in a one-slot memo (`_memo`): a Monte Carlo set by its
(domain, quad), a radial rule by what it reads, so a shell's integrals
share one rule and so do its two cutoff norms; the rules of a whole radius
grid come from one pass (`radial_grid`).

Fields enter as plain callables mapping (n, 3) point arrays to scalars or
vectors; vector values are reduced by the Euclidean magnitude.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .cutoff import RadialProfile
from .errors import (
    AnalyticUnavailableError,
    ExponentRangeError,
    ExponentRelationError,
    QuadratureDomainError,
    SamplingBudgetError,
    UnboundedRegionError,
)
from .exponents import ExponentField, constant_field
from .regions import Annulus, Ball, Region, row_norm

_CAP = 1e30
_EXP_MAX = math.log(sys.float_info.max)  # np.exp overflows past this argument
_WHOLE_SPACE = Ball(radius=8.0)  # stands in for R^3 when no domain is given
# The radial rule's orders: radial nodes per cell, polar nodes per arc and
# azimuths; the coarse rule halves each.  A radial profile takes
# (_RADIAL_ORDER, 1, 1), any other integrand _FIELD_ORDERS: with octave
# cells, 24 radii match 96 on the shell terms, whose error is angular.
_FIELD_ORDERS = (24, 24, 24)
_RADIAL_ORDER = 32
_HOLDER_THRESHOLD = 2.0  # holder_check flags a ratio above this


@dataclass(frozen=True)
class Quadrature:
    """Integration scheme description; deterministic given its fields.

    ``scheme`` is "mc" (stratified rejection Monte Carlo over the region
    envelope, whose x1 slabs the region decides) or "radial" (over an
    origin-centered ball or shell: the radial rule of the module notes).
    ``n`` is the Monte Carlo sample budget, which a draw may pass by up to
    one point per envelope stratum (each takes at least one), ``seed`` its
    stream and ``rel_tol`` the relative width of the norm's bisection.
    """

    scheme: str = "mc"
    n: int = 200_000
    seed: int = 0
    rel_tol: float = 1e-4

    def __post_init__(self):
        if self.scheme not in ("mc", "radial"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.n < 1:
            raise ValueError(f"sample budget n must be at least 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")

    def with_seed(self, seed: int) -> "Quadrature":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class NormResult:
    value: float
    abs_error: float
    status: str  # "finite" | "infinite" | "zero"
    evaluations: int


@dataclass
class _NodeSet:
    points: np.ndarray          # (n, 3); column-major for Monte Carlo
    weights: np.ndarray         # (n,)
    inside: np.ndarray          # (n,) bool
    slices: tuple[tuple[int, int], ...] = ()  # Monte Carlo strata
    piece: Optional[np.ndarray] = None        # radial: each node's index into p.values()
    radii: Optional[np.ndarray] = None        # radial: the rule's radii
    ring: Optional[np.ndarray] = None         # radial: each node's index into radii
    coarse: Optional["_NodeSet"] = None       # the same radial rule at half the order
    tail_bound: float = 0.0

    @functools.cached_property
    def in_domain(self) -> tuple[Optional[np.ndarray], np.ndarray]:
        """The indices of the in-domain nodes (None when every node is
        inside) and their points in C order, gathered on first use and kept,
        read-only, as long as the set; C-ordered points with every node
        inside are a view of ``points``."""
        idx = None if self.inside.all() else np.flatnonzero(self.inside)
        if idx is None:
            pts = np.ascontiguousarray(self.points[:])  # a view: the read-only flag is its own
        else:  # by columns: from column-major points half the time of a row gather
            pts = np.empty((idx.size, 3))
            for j in range(3):
                np.take(self.points[:, j], idx, out=pts[:, j], mode="clip")
            idx.setflags(write=False)
        pts.setflags(write=False)
        return idx, pts

    def on_domain(self, fn, radial=None) -> list[np.ndarray]:
        """fn's values on the in-domain nodes, zero on the rest; fn maps
        (m, 3) points to a (k, m) stack of rows (a list of k arrays will do),
        and each row is written straight into its own length-n array.  (One
        (k, n) block instead fragments the heap: a README-size `liouville`
        cycle then peaked 4 MB higher in RSS with no more bytes live.)"""
        idx, pts = self.in_domain
        rows = fn(pts)
        if radial is not None:  # `integrate_many`'s factors, once per radius of a radial rule
            rows = map(np.multiply, rows, radial(row_norm(pts)) if self.ring is None
                       else (factor[self.ring] for factor in radial(self.radii)))
        out = []
        for values in rows:
            row = np.zeros(self.inside.size)
            row[slice(None) if idx is None else idx] = values
            out.append(row)
        return out


# The last node set as (key, set), or None: a Monte Carlo set keyed by its
# (domain, quad), a radial rule by `_radial_key`
_memo: Optional[tuple[tuple, _NodeSet]] = None
# radial rules that `radial_grid` built ahead, by key, until a radial miss takes its own
_prebuilt: dict[tuple, _NodeSet] = {}


def _mc_nodes(domain: Region, quad: Quadrature) -> _NodeSet:
    """The Monte Carlo nodes of (domain, quad), a function of the two alone."""
    env = domain.envelope()
    boxes, vols, counts, rngs = zip(*env.strata(quad.n, quad.seed))
    ends = np.cumsum(counts).tolist()
    slices = tuple(zip([0] + ends[:-1], ends))
    points = np.empty((3, ends[-1])).T
    for box, rng, (a, b) in zip(boxes, rngs, slices):
        box.sample(rng, b - a, out=points[a:b])
    weights = np.repeat(np.array(vols) / counts, counts)
    return _NodeSet(points, weights, domain.contains(points), slices, tail_bound=env.tail_bound)


def _radial_span(domain: Region) -> Optional[tuple[float, float]]:
    """The radii bounding an origin-centered ball or shell, else None."""
    if isinstance(domain, Ball) and domain.center == (0.0, 0.0, 0.0):
        return 0.0, domain.radius
    if isinstance(domain, Annulus):
        return domain.r_inner, domain.r_outer
    return None


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order;
    read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_radii(r0: float, r1: float, kinks, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre radii and weights on [r0, r1], ``order`` per cell
    between the kinks and the octave radii inside (module notes)."""
    cuts = {*kinks, *(r1 / 2**k for k in range(1, max(5, math.frexp(r1)[1] + 1)))}
    edges = np.array([r0, *sorted(k for k in cuts if r0 < k < r1), r1])
    x, w = _gauss_legendre(order)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _meridian(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The points (r cos theta, r sin theta, 0) of the (x1, x2) half-plane."""
    return r[:, None] * np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])


def _polar_arcs(r: np.ndarray, p: ExponentField) -> tuple[np.ndarray, ...]:
    """The arcs of the meridians of radii r on which p is constant, as (row,
    start, end, piece) per arc, each radius's arcs in order from 0 to pi: cut
    at the polar breaks of p's piece regions, labelled by p at their
    mid-angles (the first matching piece wins), merged where labels agree,
    and indexed into r (row) and p.values() (piece, the label's first)."""
    cuts = np.sort(np.hstack([np.zeros((r.size, 1)), np.full((r.size, 1), math.pi),
                              *(region.polar_breaks(r) for region, _ in p.pieces)]), axis=1)
    row, col = np.nonzero(cuts[:, 1:] > cuts[:, :-1])  # the NaN padding sorts last
    start, end = cuts[row, col], cuts[row, col + 1]
    label = p(_meridian(r[row], 0.5 * (start + end)))
    first = np.flatnonzero(np.r_[True, (row[1:] != row[:-1]) | (label[1:] != label[:-1])])
    piece = np.argmax(label[first, None] == np.array(p.values(), dtype=float), axis=1)
    return row[first], start[first], end[np.append(first[1:], row.size) - 1], piece


def _arc_nodes(r, wr, row, a, b, labels, n_mu: int, n_phi: int) -> tuple[np.ndarray, ...]:
    """n_mu Gauss-Legendre cosines on each arc [a, b] of the meridian of
    radius r[row], times n_phi uniform azimuths, nested in that order, as
    points, weights w_r w_mu (2 pi / n_phi) r^2 and each node its arc's labels."""
    # the arc's mid-cosine and half-width in cosine, the latter as a
    # product of sines, without the cancellation of tiny arcs
    mid = 0.5 * (np.cos(a) + np.cos(b))[:, None, None]
    half = (np.sin(0.5 * (a + b)) * np.sin(0.5 * (b - a)))[:, None, None]
    x, wx = _gauss_legendre(n_mu)
    mu, w_mu = mid + half * x[:, None], half * wx[:, None]
    w_phi = 2.0 * math.pi / n_phi
    phi = (np.arange(n_phi) + 0.5) * w_phi
    rr, s = r[row][:, None, None], np.sqrt(np.maximum(1.0 - mu**2, 0.0))
    xyz = np.empty((row.size, n_mu, n_phi, 3))
    xyz[..., 0], xyz[..., 1], xyz[..., 2] = rr * mu, rr * s * np.cos(phi), rr * s * np.sin(phi)
    weights = np.broadcast_to(wr[row][:, None, None] * w_mu * w_phi * rr**2, xyz.shape[:3])
    return xyz.reshape(-1, 3), weights.ravel(), *(np.repeat(x, n_mu * n_phi) for x in labels)


def _radial_key(dom: Region, f, p: ExponentField) -> tuple:
    """The radial rule's key: span, orders, cell kinks, p's piece regions and
    which of p's values agree (all its arcs see); raises where dom has no rule."""
    if (span := _radial_span(dom)) is None:
        raise QuadratureDomainError(
            f"the radial rule needs an origin-centered ball or shell; got {type(dom).__name__}")
    dom.analytic_volume()  # raises where the volume, which the weights sum to, overflows
    fine = (_RADIAL_ORDER, 1, 1) if isinstance(f, RadialProfile) else _FIELD_ORDERS
    breaks = (k for region, _ in p.pieces for k in region.radial_breaks())
    vals = p.values()  # the arcs see only which agree
    return (span, fine, (*getattr(f, "kinks", ()), *breaks),
            tuple(region for region, _ in p.pieces), tuple(map(vals.index, vals)))


def _radial_rules(keys: Sequence[tuple], p: ExponentField) -> list[_NodeSet]:
    """The radial rule of each key (all of one orders and p), with its half-order
    rule as ``coarse``, in one pass: one set of arcs, one of nodes per angular
    order, each rule a slice of them, bit for bit the same whatever shares it."""
    rules = [keys[0][1], tuple(max(k // 2, 1) for k in keys[0][1])]
    radii = [_gauss_radii(*key[0], key[2], n_r) for n_r, _, _ in rules for key in keys]
    r, wr = (np.concatenate(parts) for parts in zip(*radii))
    row, a, b, piece = _polar_arcs(r, p)
    ends = np.cumsum([0] + [x.size for x, _ in radii])  # the spans' radii: r split at ends
    starts = np.searchsorted(row, ends).tolist()  # each span's first arc: fine rules, then coarse
    ring = row - np.repeat(ends[:-1], np.diff(starts))  # each arc's index into its span's radii
    n, sets, spans = len(keys), [], np.split(r, ends[1:-1])
    for lo, hi in [(0, 2 * n)] if rules[0][1:] == rules[1][1:] else [(0, n), (n, 2 * n)]:
        angular, i, j = rules[lo // n][1:], starts[lo], starts[hi]
        arrays = _arc_nodes(r, wr, row[i:j], a[i:j], b[i:j], (piece[i:j], ring[i:j]), *angular)
        splits = [math.prod(angular) * (s - i) for s in starts[lo + 1:hi]]
        sets += [_NodeSet(pts, w, np.ones(w.size, dtype=bool), piece=pc, radii=rs, ring=rg)
                 for pts, w, pc, rg, rs in zip(*(np.split(x, splits) for x in arrays), spans[lo:hi])]
    return [replace(nodes, coarse=coarse) for nodes, coarse in zip(sets[:n], sets[n:])]


def radial_grid(profiles: Sequence[RadialProfile], p: ExponentField) -> None:
    """Build the radial rule of each cutoff profile on its shell against p in
    one pass (`_radial_rules`), each kept until a radial miss takes it."""
    _prebuilt.clear()  # the last grid's leftovers go first
    keys = [_radial_key(f.cutoff.support(), f, p) for f in profiles]
    _prebuilt.update(zip(keys, _radial_rules(keys, p)))


def _build_nodes(
    domain: Optional[Region], quad: Quadrature, f=None, p: Optional[ExponentField] = None
) -> _NodeSet:
    """The frozen nodes of a quadrature over a domain, the last set kept in
    `_memo` read-only since every caller holds it (a miss frees the old first);
    under the radial scheme, the radial rule for f against p with its
    half-order rule as ``coarse``, taken from `radial_grid` if built there."""
    global _memo
    dom = domain if domain is not None else _WHOLE_SPACE
    p = p if p is not None else constant_field(1.0)
    key = (dom, quad) if quad.scheme == "mc" else _radial_key(dom, f, p)
    if _memo is not None and _memo[0] == key:
        return _memo[1]
    _memo = None
    nodes = _mc_nodes(dom, quad) if quad.scheme == "mc" else (
        _prebuilt.pop(key, None) or _radial_rules([key], p)[0])
    for s in filter(None, (nodes, nodes.coarse)):
        for array in (a for a in vars(s).values() if isinstance(a, np.ndarray)):
            array.setflags(write=False)
    _memo = (key, nodes)
    return nodes


def _magnitude(f, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 2:
        return row_norm(vals)
    return np.abs(vals)


def _stratified_se(nodes: _NodeSet, contrib: np.ndarray) -> float:
    """Standard error of sum(w * contrib) over the node strata."""
    var = 0.0
    for a, b in nodes.slices:
        block = contrib[a:b]
        n_i = b - a
        if n_i < 2:
            continue
        vol = float(nodes.weights[a] * n_i)
        try:
            var += vol**2 * float(np.var(block)) / n_i
        except OverflowError:  # Python's float ** raises where numpy gives inf
            var = math.inf
    return math.sqrt(var)


def _estimate(
    nodes: _NodeSet, contrib: np.ndarray, coarse: Optional[np.ndarray]
) -> tuple[float, float]:
    """Weighted sum of contrib and its error: the fine-minus-coarse gap of
    the radial rule (coarse: contrib on ``nodes.coarse``) or the stratified
    standard error, plus the tail bound times the largest |contrib|."""
    value = float(np.sum(nodes.weights * contrib))
    if coarse is None:
        se = _stratified_se(nodes, contrib)
    else:
        se = abs(value - float(np.sum(nodes.coarse.weights * coarse)))
    return value, se + nodes.tail_bound * float(np.max(np.abs(contrib), initial=0.0))


class _Compact(NamedTuple):
    """The nodes of a set where p is finite and |f| > 0: their indices into
    the set, p and log|f| there, and the set's weights (not a copy).  Every
    pass of the modular and the norm over the nodes starts from these
    arrays; they belong to one call and die with it."""

    at: np.ndarray
    p: np.ndarray
    log_f: np.ndarray
    weights: np.ndarray


def _exponent_on(nodes: _NodeSet, p: ExponentField) -> np.ndarray:
    """p on the in-domain nodes, read off a radial rule's piece indices."""
    return (np.asarray(p(nodes.in_domain[1]), dtype=float) if nodes.piece is None
            else np.array(p.values(), dtype=float)[nodes.piece])  # radial nodes are all inside


def _compact(nodes: _NodeSet, f, p: ExponentField) -> tuple[_Compact, float]:
    """f and p (`_exponent_on`) on the in-domain nodes as a `_Compact`, and
    the largest |f| on the nodes where p = +inf (0 if none)."""
    idx, pts = nodes.in_domain
    on_radii = nodes.ring is not None and isinstance(f, RadialProfile)
    mag = f.radial(nodes.radii)[nodes.ring] if on_radii else _magnitude(f, pts)
    pv = _exponent_on(nodes, p)
    finite = np.isfinite(pv)
    keep = finite & (mag > 0.0)
    at = np.flatnonzero(keep) if idx is None else idx[keep]
    sup = float(np.max(mag, where=~finite, initial=0.0))
    return _Compact(at, pv[keep], np.log(mag[keep]), nodes.weights), sup


def _power_contrib(nodes: _NodeSet, c: _Compact, lam: float) -> np.ndarray:
    """(|f|/lam)^p on the compact nodes, zero on every other node."""
    out = np.zeros(nodes.weights.size)
    with np.errstate(over="ignore", invalid="ignore"):
        out[c.at] = np.exp(np.minimum(c.p * (c.log_f - math.log(lam)), 745.0))
    return out


def _log_moments(c: _Compact) -> tuple[np.ndarray, np.ndarray]:
    """Distinct finite exponents p_j and log M_j, M_j = sum of w |f|^p_j over
    the compact nodes where p = p_j, in log-sum-exp form so no M_j overflows."""
    exps, log_w = np.unique(c.p), np.log(c.weights[c.at])
    log_m = np.empty(exps.size)
    for j, p_j in enumerate(exps):
        sel = c.p == p_j
        t = p_j * c.log_f[sel] + log_w[sel]
        top = float(t.max())
        if math.isfinite(top):
            top += math.log(float(np.sum(np.exp(t - top))))
        log_m[j] = top
    return exps, log_m


def _frozen(f, p: ExponentField, domain: Optional[Region], quad: Quadrature):
    """The frozen data of the modular and the norm: nodes, their compact
    arrays and the ess-sup of |f| where p = +inf (else 0), both from
    `_compact` on the nodes alone under either scheme, and for the radial
    rule `_compact` on its coarse rule (else None)."""
    nodes = _build_nodes(domain, quad, f, p)
    compact, sup = _compact(nodes, f, p)
    return nodes, compact, sup, None if nodes.coarse is None else _compact(nodes.coarse, f, p)


def modular(
    f,
    p: ExponentField,
    domain: Optional[Region] = None,
    quad: Quadrature = Quadrature(),
) -> tuple[float, float]:
    """Integral of |f(x)|^p(x) over the domain, with standard error.

    Where p = +inf the integrand is replaced by the indicator convention:
    the contribution is 0 if the sup of |f| on the nodes there (`_frozen`)
    is at most 1 and +inf otherwise.  An overflowing power at any node reports +inf.
    """
    nodes, compact, sup, coarse = _frozen(f, p, domain, quad)
    coarse_contrib = None if coarse is None else _power_contrib(nodes.coarse, coarse[0], 1.0)
    value, se = _estimate(nodes, _power_contrib(nodes, compact, 1.0), coarse_contrib)
    if sup > 1.0 or math.isinf(value):
        return math.inf, se
    return value, se


def luxemburg_norm(
    f,
    p: ExponentField,
    domain: Optional[Region] = None,
    quad: Quadrature = Quadrature(),
) -> NormResult:
    """Smallest lambda with modular(f / lambda) <= 1, by `_bisect_root`;
    on infinite-exponent pieces the norm contribution is the ess-sup of |f|
    over the norm's own nodes (`_frozen`).  Escaping the bracket above 1e30 reports
    status "infinite"; a vanishing modular reports status "zero".  The
    quadrature part of ``abs_error`` is the gap to the root on the coarse
    rule for the deterministic radial rule, and the propagated standard
    error for Monte Carlo; `_finish` gives the error where the sup sets it.
    """
    nodes, compact, sup_inf_piece, coarse = _frozen(f, p, domain, quad)
    evaluations = 0
    root, bracket = 0.0, 0.0
    if compact.at.size:
        modular_at = _modular_at(*_log_moments(compact))

        def rho(lam: float) -> float:
            nonlocal evaluations
            evaluations += 1
            return modular_at(lam)

        root, bracket = _bisect_root(rho, quad.rel_tol)
        if math.isinf(root):
            return NormResult(math.inf, math.inf, "infinite", evaluations)
    quad_err = 0.0
    if root > 0:
        quad_err = _root_uncertainty(nodes, compact, coarse, root, quad.rel_tol)
    sup_err = None if coarse is None else abs(sup_inf_piece - coarse[1])
    return _finish(root, bracket, quad_err, sup_inf_piece, sup_err, evaluations)


def _modular_at(exps: np.ndarray, log_m: np.ndarray):
    """lam -> sum_j lam^(-p_j) M_j from `_log_moments`.  Below 8 terms each is
    np.exp(log M_j - p_j log lam) on a float, +inf past exp's range (without
    a warning), added left to right as np.add.reduce adds so few; from 8 on,
    that array reduce itself."""
    pairs = list(zip(exps.tolist(), log_m.tolist()))

    def rho(lam: float) -> float:
        t, total = math.log(lam), 0.0
        if len(pairs) >= 8:
            with np.errstate(over="ignore"):
                return float(np.add.reduce(np.exp(log_m - exps * t)))
        for p, m in pairs:
            total += math.inf if (x := m - p * t) > _EXP_MAX else float(np.exp(x))
        return total
    return rho


def _bisect_root(rho, rel_tol: float) -> tuple[float, float]:
    """The root of rho(lam) = 1 for rho decreasing in lam, and its bracket
    width, by doubling/halving from lam = max(1, rho(1)) and bisecting to
    rel_tol/4.  (inf, inf) when the bracket escapes _CAP; (0, 0) when rho
    stays at or below 1 at every positive scale."""
    lam = max(1.0, min(rho(1.0), _CAP))
    if rho(lam) > 1.0:
        lo = lam
        while True:
            lam *= 2.0
            if lam > _CAP:
                return math.inf, math.inf
            if rho(lam) <= 1.0:
                break
            lo = lam
        hi = lam
    else:
        hi = lam
        lo = None
        while lam > 1e-300:
            lam *= 0.5
            if rho(lam) > 1.0:
                lo = lam
                break
            hi = lam
        if lo is None:
            return 0.0, 0.0
    while (hi - lo) > 0.25 * rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            break
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi, hi - lo


def _finish(root, bracket, quad_err, sup, sup_err, evaluations) -> NormResult:
    """The norm max(root, sup) and its error.  Where the root sets it, the
    bracket plus the root's quadrature error.  Where the sup does, the
    radial rule's fine-minus-coarse gap of the sup (sup_err), widened to
    reach the root's upper end if that lies above; Monte Carlo (sup_err
    None) reports the bracket there."""
    value = max(root, sup)
    if value == 0.0:
        return NormResult(0.0, 0.0, "zero", evaluations)
    if value == root:
        err = bracket + quad_err
    elif sup_err is None:
        err = bracket
    else:
        err = max(sup_err, root + bracket + quad_err - sup)
    return NormResult(value, err, "finite", evaluations)


def _root_uncertainty(nodes, compact: _Compact, coarse, lam: float, rel_tol: float) -> float:
    """Quadrature error of the root lam.  On deterministic nodes, the gap to
    the root of the modular on the coarse rule's compact arrays, found by
    the same bracketing and bisection; on Monte Carlo nodes (coarse None),
    se(rho) / |d rho / d lam| at lam."""
    if coarse is not None:
        return abs(lam - _bisect_root(_modular_at(*_log_moments(coarse[0])), rel_tol)[0])
    contrib = _power_contrib(nodes, compact, lam)
    se = _stratified_se(nodes, contrib)
    # w p contrib vanishes off the compact nodes but is summed over the
    # whole set: a pairwise sum rounds by its length
    at = compact.at
    slope = np.zeros(contrib.size)
    slope[at] = nodes.weights[at] * compact.p * contrib[at]
    deriv = float(np.sum(slope)) / lam
    return se / deriv if deriv > 0 else 0.0


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    domain: Optional[Region] = None,
    quad: Quadrature = Quadrature(),
) -> tuple[float, float]:
    """Quadrature of a plain scalar integrand over a region."""
    (value,), (error,) = integrate_many(lambda pts: [fn(pts)], domain, quad)
    return value, error


def integrate_many(
    fn: Callable[[np.ndarray], Sequence[np.ndarray]],
    domain: Optional[Region] = None,
    quad: Quadrature = Quadrature(),
    radial: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None,
) -> tuple[list[float], list[float]]:
    """Integrate each row of fn on one node set, with its error.

    fn maps (m, 3) points to a (k, m) stack of integrands (a list of k
    arrays will do), so values the rows share are computed once per node
    set.  Sharing nodes keeps pointwise inequalities between the rows
    intact in the quadrature values, which the majorant checks rely on.
    ``radial``, if given, maps 1-D radii to k factors of |x| that multiply
    the rows, once per radius of a radial rule (`_NodeSet.on_domain`).
    """
    nodes = _build_nodes(domain, quad)
    fine = nodes.on_domain(fn, radial)
    coarse = nodes.coarse.on_domain(fn, radial) if nodes.coarse else [None] * len(fine)
    results = [_estimate(nodes, row, c) for row, c in zip(fine, coarse)]
    return [v for v, _ in results], [e for _, e in results]


# ---------------------------------------------------------------------------
# field wrappers (integration plumbing; fields stay plain callables)


def constant_one(pts: np.ndarray) -> np.ndarray:
    return np.ones(pts.shape[0])


def masked(f, region: Region):
    """f * indicator(region); over an origin-centered ball or shell its
    ``kinks`` are the region's radii, where the mask jumps."""

    def wrapped(pts):
        vals = np.asarray(f(pts), dtype=float)
        keep = region.contains(pts)
        return vals * (keep[:, None] if vals.ndim == 2 else keep)

    wrapped.kinks = _radial_span(region) or ()
    return wrapped


def magnitude_power(f, s: float):
    """|f|^s as a scalar field."""

    def wrapped(pts):
        return _magnitude(f, pts) ** s

    return wrapped


def pointwise_product(f, g):
    """f * g for scalars, the dot product for vector pairs, and the vector
    scaled pointwise for a vector and a scalar."""

    def wrapped(pts):
        a = np.asarray(f(pts), dtype=float)
        b = np.asarray(g(pts), dtype=float)
        if a.ndim == 2 and b.ndim == 2:
            return np.einsum("ij,ij->i", a, b)
        if a.ndim == 2 or b.ndim == 2:
            return a * b[:, None] if a.ndim == 2 else a[:, None] * b
        return a * b

    return wrapped


# ---------------------------------------------------------------------------
# executable lemma / identity checks


@dataclass(frozen=True)
class CheckReport:
    lhs: float
    rhs: float
    deviation: float
    tolerance: float
    passed: bool
    note: str = ""


def restriction_identity_check(
    f, p: ExponentField, region: Region, quad: Quadrature = Quadrature()
) -> CheckReport:
    """Norm over a region vs. norm of the masked field over a larger box."""
    lhs = luxemburg_norm(f, p, region, quad)
    env = region.envelope()
    radius = 1.25 * max(
        max(abs(v) for v in box.lo + box.hi) for box in env.boxes
    )
    rhs = luxemburg_norm(
        masked(f, region), p, Ball(radius=radius), quad.with_seed(quad.seed + 1)
    )
    tol = lhs.abs_error + rhs.abs_error
    dev = abs(lhs.value - rhs.value)
    return CheckReport(lhs.value, rhs.value, dev, tol, bool(dev <= 3.0 * tol + 1e-12))


def lemma1_check(
    p: ExponentField, region: Region, quad: Quadrature = Quadrature()
) -> CheckReport:
    """Norm of the constant 1 vs. 2 * max(|O|^(1/p-), |O|^(1/p+)), with p-
    and p+ the least and greatest p on the norm's in-domain nodes."""
    lhs = luxemburg_norm(constant_one, p, region, quad)
    nodes = _build_nodes(region, quad, constant_one, p)
    if not (pv := _exponent_on(nodes, p)).size:
        raise SamplingBudgetError(f"{type(region).__name__} holds none of its {nodes.inside.size} "
                                  "nodes: the region is empty or too thin for its envelope")
    lower, upper = float(pv.min()), float(pv.max())  # Python floats: volumes are raised to them
    try:
        vol = region.analytic_volume()
    except (AnalyticUnavailableError, UnboundedRegionError):
        vol = region.volume("monte_carlo", n=quad.n, seed=quad.seed + 7).value
    rhs = 2.0 * max(vol ** (1.0 / lower), vol ** (1.0 / upper))  # 1/inf is 0.0
    tol = 3.0 * lhs.abs_error + 1e-9 * rhs
    return CheckReport(lhs.value, rhs, max(0.0, lhs.value - rhs), tol,
                       bool(lhs.value <= rhs + tol))


def lemma2_check(
    f, p: ExponentField, region: Region, quad: Quadrature = Quadrature()
) -> CheckReport:
    """Norm of f vs. (sup of |f| on the in-domain nodes of both norms) * norm of 1."""
    lhs = luxemburg_norm(f, p, region, quad)
    one = luxemburg_norm(constant_one, p, region, quad)
    sup = float(np.max(_magnitude(f, _build_nodes(region, quad, f, p).in_domain[1]), initial=0.0))
    rhs = sup * one.value
    tol = 3.0 * (lhs.abs_error + sup * one.abs_error) + 1e-6 * max(rhs, 1.0)
    return CheckReport(lhs.value, rhs, max(0.0, lhs.value - rhs), tol,
                       bool(lhs.value <= rhs + tol))


def power_identity_check(
    f,
    p: ExponentField,
    s: int,
    domain: Optional[Region] = None,
    quad: Quadrature = Quadrature(),
) -> CheckReport:
    """Relative deviation of || |f|^s ||_{p/s} from ||f||_p^s, s in {2, 3}."""
    if s not in (2, 3):
        raise ValueError(f"power split must be 2 or 3, got {s}")
    if p.declared_lower <= s:
        raise ExponentRangeError(
            f"power identity with s={s} needs every exponent bound > {s}; "
            f"lowest declared bound is {p.declared_lower}"
        )
    lhs = luxemburg_norm(magnitude_power(f, s), p.divided_by(s), domain, quad)
    base = luxemburg_norm(f, p, domain, quad)
    rhs = base.value**s
    scale = max(abs(rhs), 1e-300)
    dev = abs(lhs.value - rhs) / scale
    tol = (lhs.abs_error + s * base.value ** (s - 1) * base.abs_error) / scale + 1e-12
    return CheckReport(lhs.value, rhs, dev, tol, bool(dev <= 3.0 * tol))


def holder_check(
    f,
    g,
    p: ExponentField,
    q: ExponentField,
    r: ExponentField,
    domain: Optional[Region] = None,
    quad: Quadrature = Quadrature(),
) -> CheckReport:
    """Ratio ||f g||_p / (||f||_q ||g||_r) under 1/p = 1/q + 1/r.

    The relation is checked on the exponent tables, with 1/inf = 0: q and r
    must list p's piece regions in p's order (a q or r defined on other
    regions is refused), and the values of each piece, and the defaults,
    must satisfy it to 1e-9.  Either failure raises ExponentRelationError.
    """
    regions = [region for region, _ in p.pieces]
    if any([region for region, _ in e.pieces] != regions for e in (q, r)):
        raise ExponentRelationError("q and r must list the piece regions of p, in its order")
    inv = 1.0 / np.array([e.values() for e in (p, q, r)])
    gap = float(np.abs(inv[0] - inv[1] - inv[2]).max())
    if gap > 1e-9:
        raise ExponentRelationError(
            f"relation 1/p = 1/q + 1/r fails on the exponent tables; largest gap {gap:.3e}"
        )
    n_fg = luxemburg_norm(pointwise_product(f, g), p, domain, quad)
    n_f = luxemburg_norm(f, q, domain, quad)
    n_g = luxemburg_norm(g, r, domain, quad)
    denom = n_f.value * n_g.value
    if denom == 0.0 or n_fg.value == 0.0:
        return CheckReport(n_fg.value, denom, 0.0, 0.0, True, note="zero")
    ratio = n_fg.value / denom
    return CheckReport(
        n_fg.value, denom, ratio, _HOLDER_THRESHOLD, bool(ratio <= _HOLDER_THRESHOLD),
        note="" if ratio <= _HOLDER_THRESHOLD else "ratio above threshold",
    )

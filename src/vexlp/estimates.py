"""Localized energy terms, decay-slope fits and exact exponent certificates.

Testing the stationary momentum equation against (cutoff * u) and
integrating by parts bounds the gradient energy on the half ball by two
shell integrals: a Laplacian-weighted term

    alpha(R) = integral of  Delta(cutoff) * |u|^2 / 2

and a flux term

    beta(R) = integral of  grad(cutoff) . ((|u|^2/2 + P) u),

both supported on the shell R/2 <= |x| <= R, with the pointwise majorant
|beta| <= beta1/2 + beta2 where beta1 integrates |grad||u|^3 and beta2
integrates |grad||P||u|.  `shell_terms` integrates alpha, beta1, beta2
and beta as four rows of one integrand: u and P once per node set, and
the cutoff derivatives, functions of |x|, once per radius of a radial rule.

The norm bound for each term pays the cutoff scaling R^-k (k = 2 for
alpha, 1 for beta) against the shell volume growth R^d of each exponent
piece, giving per-piece decay exponents -k + d/q for the relevant
conjugate bound q (the 2-conjugate for alpha, the 3-conjugate for beta).
``TERMS`` holds this pairing, and `PresetSpec.pieces` each piece's
exponent and growth.  Certificates evaluate these exponents in exact
rational arithmetic; the empirical side fits log-log slopes of the
measured quantities and compares with the certified bound
plus a tolerance (the truth may decay faster than the bound).

The same arithmetic decides the paper's hypotheses u in L^p(.) and P in
L^p(.)/2 from the `Decay` a field carries: sup over |x| = R of |f|
is O(R^-a), so on a piece of exponent p_j and growth d_j the modular of
|f|^(p_j / k) over the shells converges when a p_j / k > d_j (k = 1 for
u, 2 for P), and on a piece where p = +inf it is bounded when a >= 0
(Diening, Harjulehto, Hasto and Ruzicka, LNM 2017, ch. 2).  The margin
a p_j / k - d_j is also necessary on a piece where |f| is at least of
order R^-a on a cone of positive solid angle; elsewhere the declared
rate is only an upper bound (`decaying_solenoidal(2)` decays like R^-4
along the x1 axis).  A field that carries no decay leaves its hypothesis
undecided; nothing here scans for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .cutoff import RadialCutoff, make_cutoff
from .errors import DecayFitError
from .exponents import ExponentField, PresetSpec, _conjugate_value, preset
from .exponents import admissible_upper_bound  # noqa: F401  (re-exported)
from .fields import Decay, ScalarField3, VectorField3, ns_residual, zero_scalar
from .fields import membership_scan  # noqa: F401  (re-exported; bench/tracing.py wraps it here)
from .norms import (
    NormResult,
    Quadrature,
    integrate_many,
    luxemburg_norm,
    radial_grid,
)
from .regions import Ball, row_norm

SLOPE_MARGIN = 0.15
_ZERO_FLOOR = 1e-12
_RESIDUAL_TOL = 1e-8  # energy_identity_check withholds its verdict above this
# per shell term: the cutoff derivative it carries, that derivative's
# scaling R^-k, and the numerator of the conjugate of p(.) it pairs with
TERMS = {"alpha": ("laplacian", 2, 2), "beta": ("gradient", 1, 3)}


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(value) against log(radius)."""

    radii: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float


def fit_decay(radii: Sequence[float], values: Sequence[float]) -> DecayFit:
    """Fit a power law, discarding non-finite values and those below the zero floor."""
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("decay fits need strictly increasing radii")
    pairs = [
        (r, v) for r, v in zip(radii, values) if math.isfinite(v) and v > _ZERO_FLOOR
    ]
    if len(pairs) < 3:
        raise DecayFitError(
            "a decay fit needs at least three values above the zero floor; "
            f"got {len(pairs)}"
        )
    rs = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    (slope, intercept), _, rank, _, _ = np.polyfit(np.log(rs), np.log(vs), 1, full=True)
    if rank < 2:
        raise DecayFitError(
            f"a decay fit needs radii whose logarithms differ in floating point; got {rs.tolist()}")
    resid = np.log(vs) - (slope * np.log(rs) + intercept)
    return DecayFit(
        tuple(float(r) for r in rs),
        tuple(float(v) for v in vs),
        float(slope),
        float(intercept),
        float(np.max(np.abs(resid))),
    )


# ---------------------------------------------------------------------------
# shell integrals


@dataclass(frozen=True)
class FluxReport:
    beta1: float
    beta2: float
    beta: float
    errors: tuple[float, float, float]
    majorant_ok: bool


def shells(radii: Sequence[float], quad: Quadrature, step: int = 31) -> list[tuple]:
    """(R, cutoff, quadrature) per radius of a shell loop, the cutoffs checked
    up front and the i-th quadrature seeded quad.seed + step i."""
    return [(R, make_cutoff(R), quad.with_seed(quad.seed + step * i)) for i, R in enumerate(radii)]


def shell_terms(
    R: float,
    u: VectorField3,
    P: ScalarField3,
    quad: Quadrature = Quadrature(),
    cutoff: Optional[RadialCutoff] = None,
) -> tuple[float, float, FluxReport]:
    """alpha with its error, and the flux term with its two majorants, from
    one integrand: u and P once on each node set, times the cutoff's radial
    derivatives, once per radius of a radial rule (`integrate_many`)."""
    cut = cutoff or make_cutoff(R)

    def factors(r):  # |grad| = |d1|, and grad . u = (d1 / r) x . u
        d1, lap = cut.radial(r)
        return [lap, np.abs(d1), np.abs(d1), d1 / r]

    def integrands(pts):
        vel, pressure = u(pts), P(pts)
        speed = row_norm(vel)
        head = 0.5 * speed**2 + pressure
        return [  # alpha, beta1, beta2, beta, each over its factor
            0.5 * np.einsum("ij,ij->i", vel, vel),
            speed**3,
            np.abs(pressure) * speed,
            np.einsum("ij,ij->i", pts, vel) * head,
        ]

    (a, b1, b2, b), (a_err, *errors) = integrate_many(integrands, cut.support(), quad, factors)
    tol = 3.0 * sum(errors) + 1e-12 * max(abs(b1), abs(b2), 1.0)
    return a, a_err, FluxReport(b1, b2, b, tuple(errors), abs(b) <= 0.5 * b1 + b2 + tol)


def alpha_term(R: float, u: VectorField3, quad: Quadrature = Quadrature(),
               cutoff: Optional[RadialCutoff] = None) -> tuple[float, float]:
    """Laplacian-weighted shell energy at scale R and its error (`shell_terms`)."""
    return shell_terms(R, u, zero_scalar(), quad, cutoff)[:2]


def beta_terms(R: float, u: VectorField3, P: ScalarField3, quad: Quadrature = Quadrature(),
               cutoff: Optional[RadialCutoff] = None) -> FluxReport:
    """Flux term and its two majorants (`shell_terms`)."""
    return shell_terms(R, u, P, quad, cutoff)[2]


# ---------------------------------------------------------------------------
# cutoff norm decay


@dataclass(frozen=True)
class NormDecayReport:
    kind: str
    total: DecayFit
    norm_errors: tuple[float, ...]


def cutoff_norm_decay(
    kind: str,
    conjugate_field: ExponentField,
    r_grid: Sequence[float],
    quad: Quadrature = Quadrature(),
) -> NormDecayReport:
    """Luxemburg norms of a cutoff derivative ("laplacian" or "gradient", see
    ``TERMS``) over a geometric radius grid."""
    (report,) = cutoff_norm_decays([(kind, conjugate_field)], r_grid, quad)
    return report


def cutoff_norm_decays(
    pairs: Sequence[tuple[str, ExponentField]],
    r_grid: Sequence[float],
    quad: Quadrature = Quadrature(),
) -> list[NormDecayReport]:
    """`cutoff_norm_decay` for each (kind, conjugate field) pair, one report
    per pair, from `cutoff_norms` with the i-th radius seeded quad.seed + 101 i."""
    for kind, _ in pairs:
        if kind not in {d for d, _, _ in TERMS.values()}:
            raise ValueError(f"kind must be 'laplacian' or 'gradient', got {kind!r}")
    if len(r_grid) < 4:
        raise ValueError("decay grids need at least four radii")
    radii = [float(r) for r in r_grid]
    columns = zip(*cutoff_norms(pairs, shells(radii, quad, 101)))  # per pair, a norm a radius
    return [NormDecayReport(kind, fit_decay(radii, [n.value for n in col]),
                            tuple(n.abs_error for n in col))
            for (kind, _), col in zip(pairs, columns)]


def cutoff_norms(pairs: Sequence[tuple], grid: Sequence[tuple]) -> Iterator[list[NormResult]]:
    """Per shell of a `shells` grid, the norm of each (kind, conjugate field)
    pair's cutoff derivative, yielded a shell at a time so a Monte Carlo shell
    is drawn once; every shell's radial rule is built in one `radial_grid` pass."""
    if pairs and grid[0][2].scheme == "radial":
        radial_grid([cut.size(pairs[0][0]) for _, cut, _ in grid], pairs[0][1])
    for _, cut, q in grid:
        yield [luxemburg_norm(cut.size(kind), field, cut.support(), q) for kind, field in pairs]


# ---------------------------------------------------------------------------
# exact exponent certificates


@dataclass(frozen=True)
class CertificateEntry:
    term: str             # "alpha" | "beta"
    piece: str            # "inner" | "outer"
    growth: Fraction      # shell volume-growth exponent d
    inv_conjugate: Fraction  # worst reciprocal conjugate bound on the piece
    exponent: Fraction    # -k + d * inv_conjugate
    negative: bool


@dataclass(frozen=True)
class ExponentCertificate:
    term: str
    entries: tuple[CertificateEntry, ...]
    overall: bool
    inner_upper_bound: Fraction | float  # +inf when unconstrained

    def max_exponent(self) -> Fraction:
        return max(e.exponent for e in self.entries)


def predicted_exponent(spec: PresetSpec, term: str) -> ExponentCertificate:
    """Exact per-piece decay exponents -k + d/q for a preset layout (module
    notes); ExponentRangeError when q does not exist on a piece."""
    if term not in TERMS:
        raise ValueError(f"term must be 'alpha' or 'beta', got {term!r}")
    _, k_scale, k_conj = TERMS[term]
    entries = []
    for piece, p_val, growth in spec.pieces():
        inv_q = 1 / Fraction(_conjugate_value(p_val, k_conj))
        expo = -k_scale + growth * inv_q
        entries.append(CertificateEntry(term, piece, growth, inv_q, expo, expo < 0))
    return ExponentCertificate(
        term, tuple(entries), all(e.negative for e in entries), spec.inner_cap())


# ---------------------------------------------------------------------------
# membership certificates


@dataclass(frozen=True)
class MembershipMargin:
    piece: str               # "inner" | "outer"
    margin: Fraction | float  # a p / k - d; +-inf where p or a is +inf
    necessary: bool           # the decay is attained on the piece


@dataclass(frozen=True)
class Membership:
    """Whether a field lies in L^p(.)/k, with each piece's margin; no margins
    where the field declares no decay."""

    verdict: str  # member | not-member | undecided
    margins: Optional[tuple[MembershipMargin, ...]] = None


def membership_certificate(spec: PresetSpec, rate: Decay, k: int) -> Membership:
    """Whether a field of declared decay ``rate`` lies in L^p(.)/k for the
    preset layout, in exact rationals (module notes): `member` when every
    margin is positive, `not-member` when a necessary margin is not, and
    `undecided` otherwise."""
    a, margins = rate.rate, []
    for piece, p, d in spec.pieces():
        if a == math.inf or p == math.inf:  # vanishing, or bounded where p = +inf
            margin = math.inf if a >= 0 else -math.inf
        else:
            margin = a * p / k - d
        margins.append(MembershipMargin(piece, margin, piece in rate.attained))
    verdict = ("member" if all(m.margin > 0 for m in margins) else
               "not-member" if any(m.necessary and m.margin <= 0 for m in margins) else
               "undecided")
    return Membership(verdict, tuple(margins))


# ---------------------------------------------------------------------------
# energy identity


@dataclass(frozen=True)
class EnergyReport:
    radius: float
    lhs: float
    alpha: float
    beta: float
    rel_gap: float
    residual_sup: float
    verdict: Optional[bool]  # None when the input is not a pointwise solution


def energy_identity_check(
    u: VectorField3,
    P: ScalarField3,
    R: float,
    quad: Optional[Quadrature] = None,
    gap_tol: float = 1e-2,
) -> EnergyReport:
    """Check gradient-energy = alpha + beta, an identity of pointwise solutions:
    the verdict is None where the residual on probe points passes _RESIDUAL_TOL or is NaN."""
    quad = quad or Quadrature(scheme="radial")
    cut = make_cutoff(R)
    probe = Ball(radius=R).sample(256, 12345)
    residual_sup = float(np.abs(ns_residual(u, P, probe)).max())

    def energy_density(pts):
        jac = u.jacobian(pts)
        return [cut(pts) * np.einsum("nij,nij->n", jac, jac)]

    (lhs,), _ = integrate_many(energy_density, Ball(radius=R), quad)
    a, _, flux = shell_terms(R, u, P, quad, cut)
    rhs = a + flux.beta
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    verdict = None if not residual_sup <= _RESIDUAL_TOL else (gap <= gap_tol)
    return EnergyReport(R, lhs, a, flux.beta, gap, residual_sup, verdict)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class PipelineRow:
    radius: float
    alpha: float
    beta1: float
    beta2: float
    beta: float
    lap_norm: float
    grad_norm: float
    error: float


# why a hypothesis is undecided, by whether its field declares a decay
_UNDECIDED_WHY = {
    True: "membership certificate undecided for the {}: a margin is not positive, "
          "but only where the declared decay is an upper bound",
    False: "membership undecided for the {}: the field declares no decay; "
           "give it one (`fields.Decay`)",
}


@dataclass(frozen=True)
class PipelineReport:
    spec: PresetSpec
    velocity: Membership
    pressure: Membership
    rows: tuple[PipelineRow, ...]
    alpha_certificate: ExponentCertificate
    beta_certificate: ExponentCertificate
    fits: dict[str, Optional[DecayFit]]
    conclusion: str  # hypotheses-violated | decay-confirmed | inconclusive
    note: str


def liouville_pipeline(
    spec: PresetSpec,
    u: VectorField3,
    P: ScalarField3,
    r_grid: Sequence[float],
    quad: Quadrature = Quadrature(),
    validate: bool = True,
    slope_margin: float = SLOPE_MARGIN,
) -> PipelineReport:
    """Run the whole decay verification for one field/preset pair.

    Decides global integrability of the velocity (and of the pressure
    against the half exponent), measures the shell terms and cutoff norms
    over the radius grid, fits slopes, and compares them against the exact
    certificates.  The conclusion reports one of three tiers; it never
    claims more than hypothesis arithmetic plus observed decay.  Each
    hypothesis is read off the `membership_certificate` of the `Decay` its
    field carries, and is undecided where the field carries none.
    """
    if len(r_grid) < 4:
        raise ValueError("the pipeline needs at least four radii")
    radii = [float(r) for r in r_grid]
    p_field = preset(spec, validate=validate)
    grid = shells(radii, quad)
    velocity, pressure = (
        Membership("undecided") if f.decay is None else membership_certificate(spec, f.decay, k)
        for f, k in ((u, 1), (P, 2)))
    conjugates = [(kind, p_field.conjugate(k)) for kind, _, k in TERMS.values()]

    rows = []
    for (R, cut, q_i), (lap, grad) in zip(grid, cutoff_norms(conjugates, grid)):
        a, a_err, flux = shell_terms(R, u, P, q_i, cut)
        rows.append(
            PipelineRow(
                R, a, flux.beta1, flux.beta2, flux.beta, lap.value, grad.value,
                max(a_err, *flux.errors, lap.abs_error, grad.abs_error),
            )
        )

    cert_a, cert_b = (predicted_exponent(spec, term) for term in TERMS)
    fits, failures = {}, {}  # a fit per column, and why a column has none
    for name in ("alpha", "beta1", "beta2", "lap_norm", "grad_norm"):
        try:
            fits[name] = fit_decay(radii, [abs(getattr(r, name)) for r in rows])
        except ValueError as exc:
            fits[name], failures[name] = None, str(exc)

    hypotheses = {"velocity": velocity, "pressure": pressure}
    undecided = {}  # declares a decay -> the hypotheses left undecided
    for name, m in hypotheses.items():
        if m.verdict == "undecided":
            undecided.setdefault(m.margins is not None, []).append(name)
    if any(m.verdict == "not-member" for m in hypotheses.values()):
        conclusion = "hypotheses-violated"
        note = "global integrability fails, so the decay bounds do not apply"
    elif undecided:
        conclusion = "inconclusive"
        note = "; ".join(_UNDECIDED_WHY[declared].format(" and ".join(names))
                         for declared, names in undecided.items())
    else:
        # a term without a fit shows no decay, unless u (a member, so declared) vanishes
        vanishes = u.decay.rate == math.inf
        missing = [name for name in ("alpha", "beta1") if fits[name] is None and not vanishes]
        ok = not missing
        for name, cert in (("alpha", cert_a), ("beta1", cert_b)):
            fit = fits[name]
            if fit is not None and fit.slope > float(cert.max_exponent()) + slope_margin:
                ok = False
        if ok and cert_a.overall and cert_b.overall:
            conclusion = "decay-confirmed"
            note = (
                "shell terms decay at or below the certified rates; vanishing "
                "localized gradient energy forces the zero field under the "
                "assumed integrability"
            )
        else:
            conclusion = "inconclusive"
            note = (f"no {' or '.join(missing)} decay fit, since "
                    + "; ".join(dict.fromkeys(failures[name] for name in missing))
                    if missing else "observed decay does not match the certificate")
    return PipelineReport(
        spec, velocity, pressure, tuple(rows), cert_a, cert_b, fits, conclusion, note
    )


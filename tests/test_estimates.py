"""Shell energy terms, decay fits, certificates and the pipeline."""

import json
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import PRESET_MATRIX

from vexlp import estimates
from vexlp import fields as field_module
from vexlp.cli import FIELD_TYPES, PRESSURE_TYPES, field_from_dict, pressure_from_dict
from vexlp.cutoff import RadialCutoff, make_cutoff
from vexlp.errors import ExponentRangeError, PresetConstraintError
from vexlp.estimates import (
    admissible_upper_bound,
    alpha_term,
    beta_terms,
    cutoff_norm_decay,
    cutoff_norm_decays,
    energy_identity_check,
    fit_decay,
    liouville_pipeline,
    Membership,
    membership_certificate,
    predicted_exponent,
    shell_terms,
)
from vexlp.exponents import PresetSpec, constant_field, preset
from vexlp.fields import (
    Decay,
    VectorField3,
    decaying_solenoidal,
    gradient_counterexample,
    membership_scan,
    zero_scalar,
    zero_vector,
)
from vexlp.norms import Quadrature, integrate_many
from vexlp.regions import row_norm

RADIAL = Quadrature(scheme="radial")
CYL = PresetSpec.make("cylinder", outer=4, inner=5)

# closed form for the plateau integral of the quintic cutoff
def cutoff_mass(R):
    return 33.0 / 56.0 * math.pi * R**3


# ---------------------------------------------------------------------------
# alpha


def test_alpha_counterexample_oracle():
    # integration by parts: the Laplacian pairing equals 6 * cutoff mass,
    # and sits between the plateau and support ball values
    u, _ = gradient_counterexample()
    for R in (4.0, 8.0):
        a, _ = alpha_term(R, u, RADIAL)
        assert a == pytest.approx(6.0 * cutoff_mass(R), rel=1e-4)
        lo = 6.0 * 4.0 / 3.0 * math.pi * (R / 2) ** 3
        hi = 6.0 * 4.0 / 3.0 * math.pi * R**3
        assert lo <= a <= hi


def test_alpha_zero_field():
    a, err = alpha_term(8.0, zero_vector(), RADIAL)
    assert a == 0.0 and err == 0.0


def test_alpha_decreases_for_decaying_field():
    u = decaying_solenoidal(2.0)
    vals = [abs(alpha_term(R, u, Quadrature(n=150_000, seed=3))[0])
            for R in (8.0, 16.0, 32.0, 64.0, 128.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# beta


def test_beta_counterexample_exact_cancellation():
    # the head |u|^2/2 + P vanishes pointwise, so the flux is exactly zero
    # while both majorants stay positive
    u, P = gradient_counterexample()
    rep = beta_terms(8.0, u, P, RADIAL)
    assert abs(rep.beta) <= 1e-10 * rep.beta1  # zero up to rounding
    assert rep.beta1 > 0 and rep.beta2 > 0
    assert rep.majorant_ok


def test_beta_zero_field():
    rep = beta_terms(8.0, zero_vector(), zero_scalar(), RADIAL)
    assert (rep.beta1, rep.beta2, rep.beta) == (0.0, 0.0, 0.0)


def test_beta_majorant_without_pressure():
    rep = beta_terms(16.0, decaying_solenoidal(2.0), zero_scalar(),
                     Quadrature(n=100_000, seed=4))
    assert rep.beta2 == 0.0
    assert rep.beta1 > 0
    assert abs(rep.beta) <= 0.5 * rep.beta1 + 1e-12
    assert rep.majorant_ok


@pytest.mark.parametrize("quad, calls", [
    (Quadrature(n=20_000, seed=2), 1), (RADIAL, 2),  # the radial rule: fine and coarse
], ids=["mc", "radial"])
def test_beta_evaluates_each_field_once_per_node_set(quad, calls, monkeypatch):
    counts = {"u": 0, "P": 0, "radial": 0, "derivatives": 0, "grad": 0, "laplacian": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    u, P = gradient_counterexample()
    u, P = replace(u, fn=counted("u", u.fn)), replace(P, fn=counted("P", P.fn))
    for name in ("radial", "derivatives", "grad", "laplacian"):
        monkeypatch.setattr(RadialCutoff, name, counted(name, getattr(RadialCutoff, name)))
    assert beta_terms(8.0, u, P, quad).majorant_ok
    # both cutoff derivatives come from one radial pass per node set
    assert counts == {"u": calls, "P": calls, "radial": calls,
                      "derivatives": 0, "grad": 0, "laplacian": 0}


def _separate_shell_terms(R, u, P, quad):
    """alpha and the flux rows as two integrals, each evaluating u on its own
    and reading the cutoff's radial derivatives off the rule's radii."""
    cut = make_cutoff(R)

    def alpha(pts):
        vel = u(pts)
        return [0.5 * np.einsum("ij,ij->i", vel, vel)]

    def flux(pts):
        vel, pressure = u(pts), P(pts)
        speed = row_norm(vel)
        head = 0.5 * speed**2 + pressure
        return [speed**3, np.abs(pressure) * speed, np.einsum("ij,ij->i", pts, vel) * head]

    def flux_factors(r):  # |grad| and the radial part of grad . u
        d1 = cut.radial(r)[0]
        return [np.abs(d1), np.abs(d1), d1 / r]

    (a,), (a_err,) = integrate_many(alpha, cut.support(), quad, lambda r: [cut.radial(r)[1]])
    values, errors = integrate_many(flux, cut.support(), quad, flux_factors)
    return [a, *values], [a_err, *errors]


@pytest.mark.parametrize("quad", [Quadrature(n=20_000, seed=2), RADIAL], ids=["mc", "radial"])
@pytest.mark.parametrize("make_fields", [
    gradient_counterexample, lambda: (decaying_solenoidal(2.0), zero_scalar())],
    ids=["counterexample", "decaying"])
def test_shell_terms_equal_the_separate_integrals_bit_for_bit(quad, make_fields):
    u, P = make_fields()
    values, errors = _separate_shell_terms(16.0, u, P, quad)
    a, a_err, flux = shell_terms(16.0, u, P, quad)
    assert [a, flux.beta1, flux.beta2, flux.beta] == values
    assert [a_err, *flux.errors] == errors
    assert alpha_term(16.0, u, quad) == (a, a_err)
    assert beta_terms(16.0, u, P, quad) == flux


def test_beta_majorant_holds_on_grid():
    u, P = gradient_counterexample()
    for i, R in enumerate((4.0, 8.0, 16.0, 32.0)):
        rep = beta_terms(R, u, P, Quadrature(n=60_000, seed=5 + i))
        assert rep.majorant_ok


# ---------------------------------------------------------------------------
# decay fits


def test_fit_decay_recovers_power_law():
    radii = [2.0**k for k in range(3, 9)]
    fit = fit_decay(radii, [5.0 * r**-1.5 for r in radii])
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_decay_drops_zeros():
    radii = [8.0, 16.0, 32.0, 64.0]
    fit = fit_decay(radii, [1e-2, 1e-3, 1e-13, 1e-4])
    assert len(fit.values) == 3
    with pytest.raises(ValueError):
        fit_decay(radii, [0.0, 0.0, 1e-13, 0.0])


# ---------------------------------------------------------------------------
# cutoff norm decay


GRID = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0]


def test_cutoff_norm_decay_cylinder_preset():
    p = preset(CYL)
    rep = cutoff_norm_decay("laplacian", p.conjugate(2), GRID,
                            Quadrature(n=150_000, seed=6))
    assert rep.total.slope == pytest.approx(-0.5, abs=0.15)
    rep2 = cutoff_norm_decay("gradient", p.conjugate(3), GRID,
                             Quadrature(n=150_000, seed=7))
    assert rep2.total.slope == pytest.approx(-0.25, abs=0.15)


def test_cutoff_norm_decay_constant_exponent():
    # single piece with conjugate 2: norm scales like R^(-2) * R^(3/2)
    rep = cutoff_norm_decay("laplacian", constant_field(2.0), GRID,
                            Quadrature(n=100_000, seed=8))
    assert rep.total.slope == pytest.approx(-0.5, abs=0.1)


PRESET_MATRIX = [
    CYL,
    PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1/4"),
    PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1/2"),
    PresetSpec.make("power_cusp", outer=4, inner="19/4", gamma="3/4"),
    PresetSpec.make("shrink_cusp", outer=4, sigma="1/4"),
    PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"),
    PresetSpec.make("shrink_cusp", outer=4, sigma="3/4"),
]


@pytest.mark.parametrize("spec", PRESET_MATRIX, ids=lambda s: f"{s.kind}")
def test_fitted_norm_slope_below_certificate(spec):
    # measured cutoff norms may decay faster than the certified bound but
    # never noticeably slower
    grid = [16.0, 32.0, 64.0, 128.0, 256.0]
    p = preset(spec)
    for kind, conj_k, term in (("laplacian", 2, "alpha"), ("gradient", 3, "beta")):
        rep = cutoff_norm_decay(kind, p.conjugate(conj_k), grid,
                                Quadrature(n=60_000, seed=13))
        bound = float(predicted_exponent(spec, term).max_exponent())
        assert rep.total.slope <= bound + 0.15, (spec, kind)


def test_decay_kinds_share_each_radius_node_set(monkeypatch):
    from vexlp import norms

    builds, draw = [], norms._mc_nodes

    def counted(domain, quad):
        if norms._memo is None or norms._memo[0] != (domain, quad):
            builds.append(domain)
        return draw(domain, quad)

    monkeypatch.setattr(norms, "_memo", None)
    monkeypatch.setattr(norms, "_mc_nodes", counted)
    p = preset(CYL)
    pairs = [("laplacian", p.conjugate(2)), ("gradient", p.conjugate(3))]
    grid, quad = GRID[:4], Quadrature(n=20_000, seed=3)
    both = cutoff_norm_decays(pairs, grid, quad)
    assert len(builds) == len(grid)  # one set per radius, not one per radius and kind
    assert both == [cutoff_norm_decay(kind, field, grid, quad) for kind, field in pairs]


def test_cutoff_norm_decay_validation():
    with pytest.raises(ValueError):
        cutoff_norm_decay("laplacian", constant_field(2.0), [8.0, 16.0, 32.0])
    with pytest.raises(ValueError):
        cutoff_norm_decay("hessian", constant_field(2.0), GRID)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_cylinder_alpha():
    cert = predicted_exponent(CYL, "alpha")
    by_piece = {e.piece: e.exponent for e in cert.entries}
    assert by_piece == {"inner": Fraction(-7, 5), "outer": Fraction(-1, 2)}
    assert cert.overall
    assert cert.inner_upper_bound == math.inf


def test_certificate_cylinder_beta():
    cert = predicted_exponent(CYL, "beta")
    by_piece = {e.piece: e.exponent for e in cert.entries}
    assert by_piece == {"inner": Fraction(-3, 5), "outer": Fraction(-1, 4)}


def test_certificate_negative_case_exact():
    # inner exponent above the admissible band: the cusp flux power turns
    # positive, +1/7 exactly
    bad = PresetSpec.make("power_cusp", outer=4, inner=7, gamma="1/2")
    cert = predicted_exponent(bad, "beta")
    inner = next(e for e in cert.entries if e.piece == "inner")
    assert inner.exponent == Fraction(1, 7)
    assert not inner.negative
    assert not cert.overall


def test_certificate_shrink_cusp():
    shrink = PresetSpec.make("shrink_cusp", outer=4, sigma="1/2")
    cert_a = predicted_exponent(shrink, "alpha")
    inner = next(e for e in cert_a.entries if e.piece == "inner")
    assert inner.exponent == Fraction(-3, 2)  # -1 - sigma
    assert cert_a.overall
    cert_b = predicted_exponent(shrink, "beta")
    inner_b = next(e for e in cert_b.entries if e.piece == "inner")
    assert inner_b.exponent == Fraction(-1, 2)  # -sigma


def test_admissible_upper_bounds_exact():
    assert admissible_upper_bound("cusp", 4, gamma=Fraction(1, 4)) == Fraction(9)
    assert admissible_upper_bound("cusp", 4, gamma=Fraction(1, 2)) == Fraction(6)
    assert admissible_upper_bound("cusp", 4, gamma=Fraction(3, 4)) == Fraction(5)
    assert admissible_upper_bound("cusp", 4, gamma=Fraction(1)) == Fraction(9, 2)
    assert admissible_upper_bound("cylinder", 4) == math.inf


def test_admissible_upper_bound_monotone():
    gammas = [Fraction(k, 100) for k in range(1, 100)]
    bounds = [admissible_upper_bound("cusp", 4, gamma=g) for g in gammas]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] > 100  # blows up toward the tube limit
    assert bounds[-1] == pytest.approx(4.5, abs=0.05)


def test_admissible_upper_bound_validates_outer():
    with pytest.raises(PresetConstraintError):
        admissible_upper_bound("cusp", 5, gamma=Fraction(1, 2))


def test_certificate_consistent_with_bound():
    for g in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1)):
        cap = admissible_upper_bound("cusp", 4, gamma=g)  # = 6 at gamma = 1/2
        below = PresetSpec.make("power_cusp", outer=4, inner=cap - Fraction(1, 10), gamma=g)
        above = PresetSpec.make("power_cusp", outer=4, inner=cap + Fraction(1, 10), gamma=g)
        assert predicted_exponent(below, "beta").overall, g
        assert not predicted_exponent(above, "beta").overall, g


@pytest.mark.parametrize("spec", PRESET_MATRIX, ids=lambda s: f"{s.kind}")
def test_every_cap_is_the_inner_cap(spec):
    cap = spec.inner_cap()
    region_kind = {"power_cusp": "cusp"}.get(spec.kind, spec.kind)  # the wrapper's names
    assert admissible_upper_bound(region_kind, spec.outer, gamma=spec.gamma) == cap
    assert predicted_exponent(spec, "beta").inner_upper_bound == cap
    spec.validate()
    if cap < math.inf:  # validate refuses the cap itself and names it
        with pytest.raises(PresetConstraintError, match=f"= {cap}; got {cap}$"):
            replace(spec, inner=cap).validate()


def test_certificate_needs_the_conjugate_on_every_piece():
    # p <= k has no k-conjugate: the certificate refuses as the conjugate field does
    low = PresetSpec.make("power_cusp", outer=4, inner=3, gamma="1/2")
    assert predicted_exponent(low, "alpha").overall  # 3 > 2
    with pytest.raises(ExponentRangeError, match="numerator 3"):
        predicted_exponent(low, "beta")
    with pytest.raises(ExponentRangeError):
        preset(low, validate=False).conjugate(3)


# ---------------------------------------------------------------------------
# energy identity


def test_energy_identity_counterexample():
    u, P = gradient_counterexample()
    for R in (4.0, 8.0, 16.0):
        rep = energy_identity_check(u, P, R)
        assert rep.verdict is True
        assert rep.rel_gap <= 1e-2
        assert rep.lhs == pytest.approx(6.0 * cutoff_mass(R), rel=1e-4)
        assert abs(rep.beta) <= 1e-9 * abs(rep.lhs)


def test_energy_identity_zero_field():
    rep = energy_identity_check(zero_vector(), zero_scalar(), 8.0)
    assert rep.lhs == 0.0 and rep.alpha == 0.0 and rep.beta == 0.0


def test_energy_identity_withholds_verdict_for_non_solution():
    rep = energy_identity_check(decaying_solenoidal(1.0), zero_scalar(), 8.0)
    assert rep.verdict is None
    assert rep.residual_sup > 1e-8
    assert math.isfinite(rep.rel_gap)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_counterexample_violates_hypotheses():
    u, P = gradient_counterexample()
    rep = liouville_pipeline(CYL, u, P, [8, 16, 32, 64], Quadrature(n=60_000, seed=10))
    assert rep.conclusion == "hypotheses-violated"
    assert rep.velocity.verdict == "not-member"
    assert rep.fits["alpha"].slope > 2.0  # the shell term grows


def test_pipeline_zero_field_trivially_confirmed():
    rep = liouville_pipeline(CYL, zero_vector(), zero_scalar(), [8, 16, 32, 64],
                             Quadrature(n=30_000, seed=11))
    assert rep.conclusion == "decay-confirmed"
    assert rep.fits["alpha"] is None


def test_pipeline_decaying_field_confirmed():
    rep = liouville_pipeline(CYL, decaying_solenoidal(2.0), zero_scalar(),
                             [8, 16, 32, 64], Quadrature(n=100_000, seed=12))
    assert rep.conclusion == "decay-confirmed"
    assert rep.fits["alpha"].slope <= float(rep.alpha_certificate.max_exponent()) + 0.15
    assert rep.fits["beta1"].slope <= float(rep.beta_certificate.max_exponent()) + 0.15
    # the CLI writes a row's fields in order as the liouville CSV columns
    assert [f.name for f in fields(rep.rows[0])] == [
        "radius", "alpha", "beta1", "beta2", "beta", "lap_norm", "grad_norm", "error"]


SLOW_DECAY_PRESETS = {
    "cylinder": CYL,
    "power_cusp": PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1/2"),
    "shrink_cusp": PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"),
}


@pytest.mark.parametrize("rate", [0.78, 0.80])
@pytest.mark.parametrize("name", sorted(SLOW_DECAY_PRESETS))
def test_pipeline_slow_decay_is_never_called_a_violation(name, rate):
    # with outer exponent 4 the field lies in L^p(.) for every rate above 3/4;
    # its certificate tells so at 0.78 too, where the velocity increments of
    # `membership_scan` fall by about 0.92 a shell and read undecided
    rep = liouville_pipeline(SLOW_DECAY_PRESETS[name], decaying_solenoidal(rate), zero_scalar(),
                             [8 * 2**k for k in range(6)], Quadrature(scheme="radial", seed=7))
    assert (rep.velocity.verdict, rep.pressure.verdict) == ("member", "member")
    assert rep.conclusion == "decay-confirmed"


# ---------------------------------------------------------------------------
# membership certificates


def _margins(cert):
    return {m.piece: (m.margin, m.necessary) for m in cert.margins}


def test_membership_margins_are_exact():
    # a p / k - d per piece: the tube grows like R, the outside like R^3
    cert = membership_certificate(CYL, Decay(Fraction(2), ("outer",)), 1)
    assert _margins(cert) == {"inner": (9, False), "outer": (5, True)}
    assert cert.verdict == "member"
    slow = membership_certificate(CYL, Decay(Fraction("0.78"), ("outer",)), 1)
    assert _margins(slow)["outer"] == (Fraction(3, 25), True)
    pressure = membership_certificate(CYL, Decay(Fraction(-2)), 2)
    assert _margins(pressure) == {"inner": (-6, True), "outer": (-7, True)}
    assert pressure.verdict == "not-member"


def test_an_infinite_exponent_piece_needs_a_bounded_field():
    shrink = PresetSpec.make("shrink_cusp", outer=4, sigma="1/2")
    for rate, margin in ((Fraction(0), math.inf), (Fraction(2), math.inf), (Fraction(-1), -math.inf)):
        assert _margins(membership_certificate(shrink, Decay(rate), 1))["inner"] == (margin, True)
    vanishing = membership_certificate(shrink, Decay(math.inf), 2)
    assert _margins(vanishing) == {"inner": (math.inf, True), "outer": (math.inf, True)}
    assert vanishing.verdict == "member"


# validation off: the widening cusp's margin is 4/5 * 16/5 - 14/5 = -6/25
THIN_CUSP = PresetSpec.make("power_cusp", outer=4, inner="16/5", gamma="9/10")


def test_a_failing_margin_decides_only_where_the_decay_is_attained():
    # a negative margin where the decay is only an upper bound proves nothing
    cert = membership_certificate(THIN_CUSP, Decay(Fraction(4, 5), ("outer",)), 1)
    assert _margins(cert) == {"inner": (Fraction(-6, 25), False), "outer": (Fraction(1, 5), True)}
    assert cert.verdict == "undecided"
    assert membership_certificate(THIN_CUSP, Decay(Fraction(4, 5)), 1).verdict == "not-member"


@pytest.mark.parametrize("rate, attained, match", [
    (Fraction(1, 2), "out", "attained"),  # a bare string: matched by substring
    (Fraction(1, 2), ("outter",), "attained"),  # no such piece
    (math.nan, ("outer",), "NaN"),  # every margin NaN
], ids=["string", "misspelt", "nan"])
def test_a_decay_refuses_what_would_read_undecided_without_a_word(rate, attained, match):
    # each read `undecided` on the cylinder 5/4, where the decay it means reads `not-member`
    assert membership_certificate(CYL, Decay(Fraction(1, 2), ("outer",)), 1).verdict == "not-member"
    with pytest.raises(ValueError, match=match):
        Decay(rate, attained)


def _no_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    for module in (field_module, estimates):
        monkeypatch.setattr(module, "membership_scan", no_scan)


def test_pipeline_reads_declared_decays_and_runs_no_scan(monkeypatch):
    _no_scan(monkeypatch)
    u, P = gradient_counterexample()
    rep = liouville_pipeline(CYL, u, P, [8, 16, 32, 64], RADIAL)
    assert rep.conclusion == "hypotheses-violated"
    assert (rep.velocity.verdict, rep.pressure.verdict) == ("not-member", "not-member")
    # a field built in Python declares its decay and gets its certificate
    base = decaying_solenoidal(0.8)
    u = VectorField3(base.fn, base.analytic_jacobian, decay=Decay(Fraction(4, 5), ("outer",)))
    rep = liouville_pipeline(CYL, u, zero_scalar(), [8, 16, 32, 64], RADIAL)
    assert rep.velocity == membership_certificate(CYL, u.decay, 1)
    assert _margins(rep.velocity) == {"inner": (3, False), "outer": (Fraction(1, 5), True)}
    assert rep.velocity.verdict == "member" and rep.conclusion == "decay-confirmed"


def test_a_field_without_a_declared_decay_leaves_the_pipeline_inconclusive(monkeypatch):
    # no scan stands in for the missing decay: the hypothesis reads undecided
    _no_scan(monkeypatch)
    base = decaying_solenoidal(0.8)
    u = VectorField3(base.fn, base.analytic_jacobian)  # declares no decay
    rep = liouville_pipeline(CYL, u, zero_scalar(), [8, 16, 32, 64], RADIAL)
    assert (rep.velocity, rep.pressure.verdict) == (Membership("undecided"), "member")
    assert rep.velocity.margins is None and rep.conclusion == "inconclusive"
    assert rep.note == ("membership undecided for the velocity: the field declares no decay; "
                        "give it one (`fields.Decay`)")
    P = replace(zero_scalar(), decay=None)
    rep = liouville_pipeline(CYL, u, P, [8, 16, 32, 64], RADIAL)
    assert rep.note.startswith("membership undecided for the velocity and pressure:")


def test_an_undecided_certificate_leaves_the_pipeline_inconclusive():
    # decaying_solenoidal(0.8) declares rate 4/5, attained outside the inner piece only
    rep = liouville_pipeline(THIN_CUSP, decaying_solenoidal(0.8), zero_scalar(), [8, 16, 32, 64],
                             RADIAL, validate=False)
    assert rep.velocity == membership_certificate(THIN_CUSP, Decay(Fraction(4, 5), ("outer",)), 1)
    assert rep.conclusion == "inconclusive"
    assert rep.note.startswith("membership certificate undecided for the velocity:")


# every grammar field and pressure, with a rate on either side of 3/4 and a
# constant that is not zero and one that is
DECLARED_SPECS = [
    *(({"name": name}, FIELD_TYPES, 1) for name in
      ("zero", "gradient_counterexample", "gaussian", "inverse_quadratic")),
    ({"name": "decaying_solenoidal", "rate": 2}, FIELD_TYPES, 1),
    ({"name": "decaying_solenoidal", "rate": 0.5}, FIELD_TYPES, 1),
    ({"name": "constant", "value": 1}, FIELD_TYPES, 1),
    ({"name": "constant", "value": 0}, FIELD_TYPES, 1),
    *(({"name": name}, PRESSURE_TYPES, 2) for name in
      ("zero", "counterexample", "gradient_counterexample", "constant")),
    ({"name": "constant", "value": 1}, PRESSURE_TYPES, 2),
]
_CONTRADICTS = {"convergent": "not-member", "diverging": "member"}


# the decay each DECLARED_SPECS entry's built field carries, in order: rate
# +inf where it vanishes or decays faster than any power, attained everywhere
# unless the entry names a piece
VANISHES = Decay(math.inf)
DECLARED_DECAYS = [
    VANISHES, Decay(-1), VANISHES, Decay(2), Decay(2, ("outer",)),
    Decay(Fraction(1, 2), ("outer",)), Decay(0), VANISHES,
    VANISHES, Decay(-2), Decay(-2), VANISHES, Decay(0),
]


def _built(spec, types):
    return field_from_dict(spec) if types is FIELD_TYPES else pressure_from_dict(spec)


def test_every_grammar_entry_declares_its_decay():
    for types in (FIELD_TYPES, PRESSURE_TYPES):
        assert {d["name"] for d, t, _ in DECLARED_SPECS if t is types} == set(types)
    assert [_built(d, t).decay for d, t, _ in DECLARED_SPECS] == DECLARED_DECAYS
    # a rate is the exact rational its decimal names, not the nearest float
    slow = field_from_dict({"name": "decaying_solenoidal", "rate": 0.78}).decay
    assert slow == Decay(Fraction(39, 50), ("outer",)) and slow.rate != 0.78


@pytest.mark.parametrize("spec, types, k", DECLARED_SPECS,
                         ids=[f"{'field' if k == 1 else 'pressure'}-{json.dumps(d)}"
                              for d, _, k in DECLARED_SPECS])
def test_the_certificate_never_contradicts_a_decisive_scan(spec, types, k):
    # acceptance criterion 10's radii and budget; an undecided scan says nothing
    f = _built(spec, types)
    for j, preset_spec in enumerate(PRESET_MATRIX):
        p = preset(preset_spec)
        scan = membership_scan(f, p.divided_by(k) if k > 1 else p, [4, 8, 16, 32, 64],
                               Quadrature(n=30_000, seed=70 + j))
        verdict = membership_certificate(preset_spec, f.decay, k).verdict
        assert verdict != _CONTRADICTS.get(scan.verdict), (preset_spec, scan.verdict, verdict)


def test_pipeline_requires_grid():
    with pytest.raises(ValueError):
        liouville_pipeline(CYL, zero_vector(), zero_scalar(), [8, 16, 32])


def test_pipeline_inconclusive_when_slopes_exceed_margin():
    # forcing an impossible margin demotes a confirmable run to inconclusive
    rep = liouville_pipeline(CYL, decaying_solenoidal(2.0), zero_scalar(),
                             [8, 16, 32, 64], Quadrature(n=40_000, seed=14),
                             slope_margin=-10.0)
    assert rep.conclusion == "inconclusive"


def test_pipeline_inconclusive_for_uncertified_preset():
    # with validation off, a preset outside the admissible band can never
    # reach decay-confirmed, even on the zero field
    bad = PresetSpec.make("power_cusp", outer=4, inner=7, gamma="1/2")
    rep = liouville_pipeline(bad, zero_vector(), zero_scalar(), [8, 16, 32, 64],
                             Quadrature(n=20_000, seed=15), validate=False)
    assert rep.conclusion == "inconclusive"
    assert not rep.beta_certificate.overall


def test_fit_decay_skips_non_finite():
    radii = [8.0, 16.0, 32.0, 64.0, 128.0]
    fit = fit_decay(radii, [1.0, 0.5, math.inf, 0.125, 0.0625])
    assert len(fit.values) == 4
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)

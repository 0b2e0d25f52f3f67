"""Exponent field evaluation, conjugates and preset validation."""

import math

import numpy as np
import pytest

from vexlp.errors import ExponentRangeError, PresetConstraintError
from vexlp.exponents import ExponentField, PresetSpec, constant_field, preset, two_piece_field
from vexlp.regions import Ball, Cylinder


def pt(*coords):
    return np.array(coords, dtype=float)


CYL = PresetSpec.make("cylinder", outer=4, inner=5)
CUSP = PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1/2")
SHRINK = PresetSpec.make("shrink_cusp", outer=4, sigma="1/2")


def test_evaluate_presets():
    p = preset(CYL)
    assert p(pt(0, 0.1, 0.1)) == 5.0
    assert p(pt(0, 3, 0)) == 4.0
    assert math.isinf(preset(SHRINK)(pt(1, 0.1, 0)))


def test_evaluate_batch():
    p = preset(CYL)
    pts = np.array([[0, 0.1, 0.1], [0, 3, 0], [7, 0, 0]])
    np.testing.assert_array_equal(p(pts), [5.0, 4.0, 5.0])


def test_an_integer_default_keeps_a_fractional_piece_value():
    # the table's values as floats, whatever numbers it was given
    p = ExponentField(((Cylinder(), 5.5),), 4)
    np.testing.assert_array_equal(p(np.array([[0, 0.1, 0.1], [0, 3, 0]])), p.values())
    assert p(np.array([[0, 0.1, 0.1]])).dtype == float


def test_conjugate_values():
    assert constant_field(3.0).conjugate(1)(pt(0, 0, 0)) == pytest.approx(1.5)
    assert constant_field(4.5).conjugate(2)(pt(0, 0, 0)) == pytest.approx(9 / 5)
    assert constant_field(4.5).conjugate(3)(pt(0, 0, 0)) == pytest.approx(3.0)
    t3_conj = preset(SHRINK).conjugate(2)
    assert t3_conj(pt(1, 0, 0)) == pytest.approx(1.0)
    assert t3_conj(pt(0, 3, 0)) == pytest.approx(2.0)
    cyl_conj = preset(CYL).conjugate(2)
    assert cyl_conj(pt(0, 0, 0)) == pytest.approx(5 / 3)
    assert cyl_conj(pt(0, 3, 0)) == pytest.approx(2.0)


def test_conjugate_requires_margin():
    with pytest.raises(ExponentRangeError):
        constant_field(2.0).conjugate(2)
    with pytest.raises(ExponentRangeError):
        preset(CYL).conjugate(3).conjugate(3)  # conjugate values drop below 3


def test_conjugate_involution_pointwise():
    p = preset(CYL)
    q = p.conjugate(1).conjugate(1)
    pts = np.random.default_rng(0).uniform(-10, 10, size=(10_000, 3))
    np.testing.assert_allclose(q(pts), p(pts), rtol=1e-12)


def test_conjugate_pointwise_identities():
    p = preset(CYL)
    pts = np.random.default_rng(1).uniform(-10, 10, size=(5_000, 3))
    q2 = p.conjugate(2)(pts)
    np.testing.assert_allclose(2.0 / p(pts) + 1.0 / q2, 1.0, rtol=1e-12)
    r3 = p.conjugate(3)(pts)
    np.testing.assert_allclose(
        1.0 / p(pts) + 2.0 / p(pts) + 1.0 / r3, 1.0, rtol=1e-12
    )


@pytest.mark.parametrize("build", [
    lambda: constant_field(math.nan),
    lambda: two_piece_field(Cylinder(), math.nan, 4),
    lambda: constant_field(0.5),
], ids=["constant-nan", "two-piece-nan", "constant-below-1"])
def test_exponent_outside_1_inf_is_rejected(build):
    # NaN fails every comparison, so only a check of v >= 1 rejects it
    with pytest.raises(ExponentRangeError, match="exponent must be >= 1"):
        build()


def test_divided_by():
    p = preset(CYL).divided_by(2)
    assert p(pt(0, 0, 0)) == pytest.approx(2.5)
    assert p(pt(0, 3, 0)) == pytest.approx(2.0)
    assert math.isinf(preset(SHRINK).divided_by(2)(pt(1, 0, 0)))
    with pytest.raises(ExponentRangeError):
        constant_field(2.5).divided_by(3)


def test_piece_disjointness_and_bands():
    # sampled evaluations must sit inside the displayed inequality bands:
    # the outer piece in (3, 9/2), the inner one above 9/2 (below the cusp
    # cap where one applies, pinned at +inf for the shrinking cusp)
    for spec in (CYL, CUSP, SHRINK):
        field = preset(spec)
        regions = [region for region, _ in field.pieces]
        pts = Ball(radius=32).sample(20_000, seed=2)
        claimed = np.zeros(pts.shape[0], dtype=int)
        for region in regions:
            claimed += region.contains(pts).astype(int)
        assert claimed.max() <= 1
        vals = field(pts)
        inner_mask = regions[0].contains(pts)
        outer = vals[~inner_mask]
        assert np.all((3.0 < outer) & (outer < 4.5))
        inner = vals[inner_mask]
        if spec.kind == "shrink_cusp":
            assert np.all(np.isinf(inner))
        else:
            assert np.all(inner > 4.5)
            if spec.kind == "power_cusp":
                cap = (6 * float(spec.gamma) + 3) / (2 * float(spec.gamma))
                assert np.all(inner < cap)


@pytest.mark.parametrize("spec", [
    PresetSpec.make("cylinder", outer=4, inner=5),
    PresetSpec.make("power_cusp", outer="7/2", inner="11/2", gamma="1/2"),
    PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"),
], ids=lambda s: s.kind)
def test_preset_values_are_the_pieces_exponents(spec):
    p = preset(spec)
    (_, inner, _), (_, outer, _) = spec.pieces()
    assert [v for _, v in p.pieces] == [float(inner)] and p.default == float(outer)
    assert p.pieces[0][0] == spec.inner_region()


def test_preset_exponents_and_powers_must_be_floats():
    with pytest.raises(PresetConstraintError, match="at most"):
        preset(PresetSpec.make("cylinder", outer=4, inner="1e400"))
    with pytest.raises(PresetConstraintError, match="rounds to 0.0"):
        preset(PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1e-400"), validate=False)
    with pytest.raises(PresetConstraintError, match="rounds to 1.0"):
        preset(PresetSpec.make("shrink_cusp", outer=4, sigma="0.99999999999999999999"))
    # the exact arithmetic takes what the floats cannot
    assert PresetSpec.make("cylinder", outer=4, inner="1e400").inner_cap() == math.inf


def test_preset_validation_messages():
    with pytest.raises(PresetConstraintError, match=r"\(6\*gamma\+3\)/\(2\*gamma\)"):
        preset(PresetSpec.make("power_cusp", outer=4, inner=7, gamma="1/2"))
    with pytest.raises(PresetConstraintError, match="9/2"):
        preset(PresetSpec.make("cylinder", outer=4, inner=4))
    with pytest.raises(PresetConstraintError, match="outer"):
        preset(PresetSpec.make("cylinder", outer=5, inner=6))
    with pytest.raises(PresetConstraintError, match="sigma"):
        preset(PresetSpec.make("shrink_cusp", outer=4, sigma=2))


@pytest.mark.parametrize("kind, params", [
    ("power_cusp", {"inner": 5, "gamma": "3/2"}),
    ("shrink_cusp", {"sigma": "3/2"}),
    ("cylinder", {}),
], ids=["gamma-3/2", "sigma-3/2", "cylinder-without-inner"])
def test_the_geometry_check_is_one_with_and_without_validation(kind, params):
    spec = PresetSpec.make(kind, outer=4, **params)
    with pytest.raises(PresetConstraintError) as validated:
        spec.validate()
    with pytest.raises(PresetConstraintError) as unvalidated:
        preset(spec, validate=False)
    assert str(validated.value) == str(unvalidated.value)


def test_preset_validation_off_builds_field():
    bad = PresetSpec.make("power_cusp", outer=4, inner=7, gamma="1/2")
    field = preset(bad, validate=False)
    assert field(pt(1, 0, 0)) == 7.0


@pytest.mark.parametrize("kind, params", [
    ("power_cusp", {"inner": 5}),
    ("shrink_cusp", {}),
    ("cylinder", {"inner": 0}),
    ("power_cusp", {"inner": "1/2", "gamma": "1/2"}),
], ids=["power-cusp-without-gamma", "shrink-cusp-without-sigma", "inner-0", "inner-below-1"])
def test_preset_spec_needs_its_shape_parameter_and_inner_at_least_1(kind, params):
    # checked even when the admissibility band is not (validate=False)
    with pytest.raises(PresetConstraintError):
        PresetSpec.make(kind, outer=4, **params)

"""Monte Carlo points are drawn column-major, in chunks of `regions._CHUNK`
rows; neither the layout nor the chunk size may change a bit of a result.

Membership must read the same on C-ordered rows (what fields, the radial
rule and callers pass) and on column-major points (what `Box.sample`
writes), boundary points included; volumes and node sets must not depend
on the chunk size.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexlp import norms, regions
from vexlp.errors import UnboundedRegionError
from vexlp.norms import Quadrature, _build_nodes
from vexlp.regions import (
    Annulus, Ball, Complement, Cylinder, Diff, Intersect, PowerCusp, ShrinkCusp)

SHELL = Annulus(3.0, 7.0)
LAYOUT_REGIONS = {
    "ball-on-axis": Ball((5.0, 0.0, 0.0), 7.0),
    "ball-off-axis": Ball((1.0, -2.0, 4.0), 3.0),
    "annulus": SHELL,
    "tube": Cylinder(),
    "tube-segment": Cylinder(4.0),
    "power-cusp": PowerCusp(0.5),
    "power-cusp-length": PowerCusp(0.3, 4.0),
    "shrink-cusp": ShrinkCusp(0.5),
    "shrink-cusp-length": ShrinkCusp(0.7, 16.0),
    "complement": Complement(SHELL),
    "intersect": Intersect(SHELL, ShrinkCusp(0.5)),
    "diff": Diff(SHELL, Cylinder()),
}

coord = st.floats(-20.0, 20.0, allow_nan=False)
positive = st.floats(1e-300, 20.0)
sign = st.sampled_from([-1.0, 1.0])


@st.composite
def on_sphere(draw):
    """|x - c| = 3 or 7 exactly, about the origin or a ball's center:
    a signed permutation of (1, 2, 2) or (2, 3, 6)."""
    center = draw(st.sampled_from([(0.0, 0.0, 0.0), (5.0, 0.0, 0.0), (1.0, -2.0, 4.0)]))
    d = draw(st.permutations(draw(st.sampled_from([(1.0, 2.0, 2.0), (2.0, 3.0, 6.0)]))))
    return tuple(c + draw(sign) * x for c, x in zip(center, d))


@st.composite
def near_sphere(draw):
    """A random direction scaled to |x - c| = 3 or 7, so |x - c|^2 lands
    within an ulp or two of the bound and the order of the sum decides."""
    center = draw(st.sampled_from([(0.0, 0.0, 0.0), (5.0, 0.0, 0.0), (1.0, -2.0, 4.0)]))
    v = np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=3)
    v *= draw(st.sampled_from([3.0, 7.0])) / np.sqrt(v @ v)
    return tuple(c + x for c, x in zip(center, v))


@st.composite
def on_tube(draw):
    """rho = 1, or x1 at a tube segment's end or the plane x1 = 0."""
    x1 = draw(st.one_of(coord, st.sampled_from([-4.0, 4.0, 0.0, -0.0])))
    side = (draw(sign), 0.0) if draw(st.booleans()) else (0.0, draw(sign))
    return (x1, *side)


@st.composite
def on_cusp(draw):
    """rho^2 = x1^power for a cusp of the table, or x1 at its length."""
    power = draw(st.sampled_from([1.0, 0.6, -0.5, -0.7]))
    x1 = draw(st.one_of(positive, st.sampled_from([4.0, 16.0, 9.0])))
    rho = float(np.sqrt(x1**power))
    return (x1, draw(sign) * rho, 0.0) if draw(st.booleans()) else (x1, 0.0, draw(sign) * rho)


points = st.lists(
    st.one_of(st.tuples(coord, coord, coord), on_sphere(), near_sphere(), on_tube(), on_cusp()),
    min_size=1, max_size=64)


@settings(max_examples=200, deadline=None)
@given(points)
def test_membership_reads_the_same_on_either_layout(rows):
    c_order = np.array(rows, dtype=float)
    column_major = np.array(c_order.T, order="C").T
    assert column_major.flags.f_contiguous
    for name, region in LAYOUT_REGIONS.items():
        np.testing.assert_array_equal(
            region.contains(column_major), region.contains(c_order), err_msg=name)


def test_boundary_points_are_members_on_either_layout():
    shell_edge = [*itertools.permutations((2.0, 3.0, 6.0)), (3.0, 0.0, 0.0)]
    cases = [
        (SHELL, shell_edge),
        (Ball((5.0, 0.0, 0.0), 7.0), [(7.0, 3.0, 6.0), (12.0, 0.0, 0.0)]),
        (Cylinder(4.0), [(4.0, 1.0, 0.0), (-4.0, 0.0, -1.0)]),
        (PowerCusp(0.5, 9.0), [(4.0, 2.0, 0.0), (9.0, 0.0, 3.0)]),
        (ShrinkCusp(0.5, 16.0), [(16.0, 0.5, 0.0), (4.0, 0.0, -0.5)]),
    ]
    for region, rows in cases:
        pts = np.array(rows)
        assert region.contains(pts).all() and region.contains(np.asfortranarray(pts)).all()
    # x1 = 0 lies outside both cusps, on either layout
    plane = np.array([[0.0, 0.0, 0.0], [-0.0, 0.1, 0.0]])
    for cusp in (PowerCusp(0.5), ShrinkCusp(0.5)):
        assert not cusp.contains(plane).any()
        assert not cusp.contains(np.asfortranarray(plane)).any()


CHUNKS = [1 << 10, regions._CHUNK, 1 << 16]


def _shell(R):
    return Annulus(R / 2, R)


# the four volume-growth families at one radius, and the 120-box shell and cusp
VOLUME_REGIONS = {
    "tube": Intersect(_shell(64.0), Cylinder()),
    "widening-cusp": Intersect(_shell(64.0), PowerCusp(0.5)),
    "shrinking-cusp": Intersect(_shell(64.0), ShrinkCusp(0.6)),
    "outside-tube": Diff(_shell(64.0), Cylinder()),
    "shell-cusp-120": Intersect(Annulus(128, 256), ShrinkCusp(0.5)),
}


@pytest.mark.parametrize("name", sorted(VOLUME_REGIONS))
def test_volume_does_not_depend_on_chunk_size(name, monkeypatch):
    region = VOLUME_REGIONS[name]
    estimates = []
    for chunk in CHUNKS:
        monkeypatch.setattr(regions, "_CHUNK", chunk)
        estimates.append(region.volume("monte_carlo", n=150_000, seed=8))
    assert estimates[0] == estimates[1] == estimates[2]
    if name == "shell-cusp-120":
        assert len(region.envelope().boxes) == 120


def test_node_set_does_not_depend_on_chunk_size(monkeypatch):
    domain, quad = Diff(_shell(32.0), Cylinder()), Quadrature(n=150_000, seed=6)
    sets = []
    for chunk in CHUNKS:
        monkeypatch.setattr(regions, "_CHUNK", chunk)
        monkeypatch.setattr(norms, "_memo", None)  # draw afresh
        sets.append(_build_nodes(domain, quad))
    first = sets[0]
    for other in sets[1:]:
        for attr in ("points", "weights", "strata"):
            assert np.array_equal(getattr(other, attr), getattr(first, attr)), attr


def test_sample_is_the_in_domain_nodes_of_the_same_draw(monkeypatch):
    # a Monte Carlo node set is the members of its draw and nothing else:
    # C-ordered and read-only, `Region.sample` bit for bit, weighing the
    # Monte Carlo volume, over strata whose draws add up to the draw
    sampled = []
    for name, region in LAYOUT_REGIONS.items():
        try:
            region.envelope()
        except UnboundedRegionError:
            continue
        sampled.append(name)
        for n, seed in ((1000, 3), (50_000, 8)):
            monkeypatch.setattr(norms, "_memo", None)
            nodes = _build_nodes(region, Quadrature(n=n, seed=seed))
            assert nodes.points.flags.c_contiguous and not nodes.points.flags.writeable
            assert np.array_equal(region.sample(n, seed), nodes.points), (name, n)
            volume = region.volume("monte_carlo", n=n, seed=seed).value
            assert nodes.weights.sum() == pytest.approx(volume, rel=1e-12, abs=0.0), (name, n)
            draw = sum(count for _, _, count, _ in region.envelope().strata(n, seed))
            assert sum(n_i for _, _, n_i, _ in nodes.strata) == draw, (name, n)
    assert len(sampled) == 8  # all but the unbounded tube, cusps and complement

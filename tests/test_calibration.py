"""Monte Carlo error bars of cutoff norms, calibrated against the radial rule.

For each preset, cutoff derivative and radius, ten Monte Carlo norms
(n = 100,000, seeds 0-9) are compared with the piece-aware radial rule,
which is exact on every exponent piece to about 1e-8 relative.  With
z = |MC - reference| / abs_error, an honest error bar gives a median z
near 0.67 and rarely a z above 4.
"""

import numpy as np
import pytest

from vexlp.cutoff import make_cutoff
from vexlp.exponents import PresetSpec, preset
from vexlp.norms import Quadrature, luxemburg_norm

PRESETS = {
    "cylinder": PresetSpec.make("cylinder", outer=4, inner=5),
    "power_cusp": PresetSpec.make("power_cusp", outer=4, inner=5, gamma="1/2"),
    "shrink_cusp": PresetSpec.make("shrink_cusp", outer=4, sigma="1/2"),
}
N, SEEDS = 100_000, range(10)

# The shrinking cusp's inner piece (exponent +inf, conjugate 1) carries
# the gradient norm at large R, yet holds a handful of Monte Carlo nodes
# there; the per-node variance cannot see what no node samples, so the
# error bar is 20-60 times too small (ROADMAP item F: per-piece strata).
SPARSE_PIECE = pytest.mark.xfail(
    strict=True, reason="MC misses the shrinking cusp's inner piece (ROADMAP item F)")



def _case(name: str, kind: str, R: float):
    sparse = (name, kind) == ("shrink_cusp", "gradient") and R > 8.0
    return pytest.param(name, kind, R, marks=SPARSE_PIECE if sparse else ())


CASES = [_case(name, kind, R)
         for name in PRESETS for kind in ("laplacian", "gradient") for R in (8.0, 64.0, 256.0)]


@pytest.mark.parametrize("name, kind, R", CASES)
def test_mc_error_bar_is_calibrated(name, kind, R):
    cut = make_cutoff(R)
    f, shell = cut.size(kind), cut.support()
    p = preset(PRESETS[name]).conjugate(2 if kind == "laplacian" else 3)
    reference = luxemburg_norm(f, p, shell, Quadrature(scheme="radial", rel_tol=1e-10)).value
    z = []
    for seed in SEEDS:
        res = luxemburg_norm(f, p, shell, Quadrature(n=N, seed=seed))
        z.append(abs(res.value - reference) / res.abs_error)
    assert np.median(z) <= 1.5 and max(z) <= 4.0, f"z = {np.round(z, 2).tolist()}"

"""Each bad library input raises its named error with a message naming it."""

import numpy as np
import pytest

from vexlp.cli import RunConfig
from vexlp.errors import ConfigError, PresetConstraintError
from vexlp.estimates import fit_decay, predicted_exponent
from vexlp.exponents import PresetSpec, admissible_upper_bound, constant_field
from vexlp.norms import Quadrature, constant_one, power_identity_check
from vexlp.regions import Ball, as_points

# a call with one bad input, the error it raises and a fragment of its message
BAD_CALLS = {
    "quadrature-scheme": (lambda: Quadrature(scheme="sobol"), ValueError, "'sobol'"),
    "conjugate-numerator": (lambda: constant_field(5.0).conjugate(4), ValueError, "got 4"),
    "preset-kind": (lambda: PresetSpec.make("sphere", 4), PresetConstraintError, "'sphere'"),
    "region-kind": (lambda: admissible_upper_bound("sphere", 4), ValueError, "'sphere'"),
    "power-split": (lambda: power_identity_check(constant_one, constant_field(9.0), 4),
                    ValueError, "got 4"),
    "point-shape": (lambda: as_points(np.zeros((2, 2))), ValueError, "(2, 2)"),
    "volume-method": (lambda: Ball().volume("exact"), ValueError, "'exact'"),
    "shell-term": (lambda: predicted_exponent(PresetSpec.make("cylinder", 4, inner=5), "gamma"),
                   ValueError, "'gamma'"),
    "fit-radii": (lambda: fit_decay([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ValueError,
                  "increasing radii"),
    "config-command": (lambda: RunConfig.from_dict({"out_dir": "x"}), ConfigError, "'command'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_a_bad_input_raises_its_named_error(case):
    call, error, fragment = BAD_CALLS[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)

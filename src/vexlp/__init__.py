"""Numerical toolkit for variable-exponent Lebesgue norms on R^3.

Measures Luxemburg norms against piecewise variable exponents, the volume
growth of the regions those exponents live on, and the decay of localized
energy terms behind Liouville-type uniqueness arguments for the
stationary Navier-Stokes system.
"""

from .cutoff import RadialCutoff, make_cutoff
from .errors import (
    AnalyticUnavailableError,
    ConfigError,
    ExponentRangeError,
    ExponentRelationError,
    InvalidRadiusError,
    PresetConstraintError,
    ToolkitError,
    UnboundedRegionError,
)
from .estimates import (
    DecayFit,
    ExponentCertificate,
    admissible_upper_bound,
    alpha_term,
    beta_terms,
    cutoff_norm_decay,
    energy_identity_check,
    fit_decay,
    liouville_pipeline,
    predicted_exponent,
    shell_terms,
)
from .exponents import (
    ExponentField,
    PresetSpec,
    constant_field,
    preset,
    two_piece_field,
)
from .fields import (
    Decay,
    ScalarField3,
    VectorField3,
    decaying_solenoidal,
    gradient_counterexample,
    membership_scan,
    ns_residual,
)
from .norms import (
    NormResult,
    Quadrature,
    holder_check,
    integrate,
    lemma1_check,
    lemma2_check,
    luxemburg_norm,
    modular,
    power_identity_check,
    restriction_identity_check,
)
from .regions import (
    Annulus,
    Ball,
    Complement,
    Cusp,
    Cylinder,
    Diff,
    Intersect,
    PowerCusp,
    Region,
    ShrinkCusp,
)

__version__ = "0.1.0"

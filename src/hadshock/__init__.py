"""Shock fronts and multidimensional stability for compressible Hadamard
hyperelastic materials: construction of Lax fronts of arbitrary
intensity, explicit evaluation of the stability function, and a
uniform/weak classification backed by brute-force numerical oracles."""

from .classifier import (
    StabilityVerdict,
    Witness,
    cg_alpha_star,
    classify,
    reference_delta,
    transition_alpha,
)
from .errors import HadshockError
from .linalg import cofactor
from .lopatinskii import (
    delta_v1_values,
    delta_v2_values,
    delta_v3_values,
    freq_map_values,
    freq_unmap_values,
    stable_beta_values,
    winding,
)
from .materials import (
    MaterialModel,
    acoustic_spectrum,
    acoustic_tensor,
    b_blocks,
    catalog,
    char_speeds,
    check_hypotheses,
    piola_kirchhoff,
)
from .shock import (
    ElasticState,
    ShockFront,
    alpha_max,
    build,
    freq_coeffs,
    genuine_nonlinearity,
    lax_check,
)

__version__ = "0.1.0"

__all__ = [
    "StabilityVerdict",
    "Witness",
    "cg_alpha_star",
    "classify",
    "reference_delta",
    "transition_alpha",
    "HadshockError",
    "cofactor",
    "delta_v1_values",
    "delta_v2_values",
    "delta_v3_values",
    "freq_map_values",
    "freq_unmap_values",
    "stable_beta_values",
    "winding",
    "MaterialModel",
    "acoustic_spectrum",
    "acoustic_tensor",
    "b_blocks",
    "catalog",
    "char_speeds",
    "check_hypotheses",
    "piola_kirchhoff",
    "ElasticState",
    "ShockFront",
    "alpha_max",
    "build",
    "freq_coeffs",
    "genuine_nonlinearity",
    "lax_check",
]

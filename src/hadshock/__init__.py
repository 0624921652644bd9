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
from .linalg import cofactor, quad_roots, sqrt_principal
from .lopatinskii import (
    FrequencyPoint,
    TransformedFrequency,
    delta_v1,
    delta_v2,
    delta_v3,
    freq_map,
    freq_unmap,
    imag_scan,
    stable_beta,
    winding,
)
from .materials import (
    MaterialModel,
    acoustic_spectrum,
    acoustic_tensor,
    b_tensor,
    catalog,
    cauchy_stress,
    char_speeds,
    check_hypotheses,
    piola_kirchhoff,
)
from .oracle import dense_eig, fd_check_suite, verify_suite
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
    "quad_roots",
    "sqrt_principal",
    "FrequencyPoint",
    "TransformedFrequency",
    "delta_v1",
    "delta_v2",
    "delta_v3",
    "freq_map",
    "freq_unmap",
    "imag_scan",
    "stable_beta",
    "winding",
    "MaterialModel",
    "acoustic_spectrum",
    "acoustic_tensor",
    "b_tensor",
    "catalog",
    "cauchy_stress",
    "char_speeds",
    "check_hypotheses",
    "piola_kirchhoff",
    "dense_eig",
    "fd_check_suite",
    "verify_suite",
    "ElasticState",
    "ShockFront",
    "alpha_max",
    "build",
    "freq_coeffs",
    "genuine_nonlinearity",
    "lax_check",
]

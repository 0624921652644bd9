"""Shock fronts and multidimensional stability for compressible Hadamard
hyperelastic materials: construction of Lax fronts of arbitrary
intensity, explicit evaluation of the stability function, and a
uniform/weak classification backed by brute-force numerical oracles.

The public names below are loaded from their modules on first use, so
``import hadshock`` alone loads no numpy."""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    "StabilityVerdict": "classifier",
    "Witness": "classifier",
    "classify": "classifier",
    "transition_alpha": "classifier",
    "HadshockError": "errors",
    "cofactor": "linalg",
    "delta_v1_values": "lopatinskii",
    "delta_v2_values": "lopatinskii",
    "freq_map_values": "lopatinskii",
    "freq_unmap_values": "lopatinskii",
    "stable_beta_values": "lopatinskii",
    "MaterialModel": "materials",
    "acoustic_spectrum": "materials",
    "acoustic_tensor": "materials",
    "b_blocks": "materials",
    "catalog": "materials",
    "char_speeds": "materials",
    "check_hypotheses": "materials",
    "piola_kirchhoff": "materials",
    "cg_alpha_star": "oracle",
    "delta_v3_values": "oracle",
    "reference_delta": "oracle",
    "winding": "oracle",
    "ElasticState": "shock",
    "ShockFront": "shock",
    "alpha_max": "shock",
    "build": "shock",
    "freq_coeffs": "shock",
    "genuine_nonlinearity": "shock",
    "lax_check": "shock",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)

"""Kernels, slices and weight decompositions of semisimple derivations with
integer weights on Laurent polynomial rings over Q."""

from .derivation import (
    DiagonalDerivation,
    FinitenessVerdict,
    GeneralDerivation,
    Inconclusive,
    LocallyFinite,
    NotLocallyFinite,
    WeightDecomposition,
    commutator,
    conjugate,
    local_finiteness_probe,
    scalar_multiple_semisimple,
)
from .kernel import (
    HilbertBasis,
    KernelGenerators,
    SliceCoordinates,
    brute_force_kernel,
    fraction_kernel_element,
    hilbert_basis,
    kernel_generators_localized,
    kernel_in_B,
    lambert_degree,
    reconstruct_from_slice_coordinates,
    slice_coordinates,
    weight_zero_exponents,
)
from .laurent import LaurentPoly, ParseError, RingCtx, parse
from .numtheory import BezoutResult, bezout_multi, ext_gcd
from .slices import SliceData, build_slice, faithfulness_index, verify_slice

__version__ = "0.1.0"

__all__ = [
    "BezoutResult",
    "DiagonalDerivation",
    "FinitenessVerdict",
    "GeneralDerivation",
    "HilbertBasis",
    "Inconclusive",
    "KernelGenerators",
    "LaurentPoly",
    "LocallyFinite",
    "NotLocallyFinite",
    "ParseError",
    "RingCtx",
    "SliceCoordinates",
    "SliceData",
    "WeightDecomposition",
    "bezout_multi",
    "brute_force_kernel",
    "build_slice",
    "commutator",
    "conjugate",
    "ext_gcd",
    "faithfulness_index",
    "fraction_kernel_element",
    "hilbert_basis",
    "kernel_generators_localized",
    "kernel_in_B",
    "lambert_degree",
    "local_finiteness_probe",
    "parse",
    "reconstruct_from_slice_coordinates",
    "scalar_multiple_semisimple",
    "slice_coordinates",
    "verify_slice",
    "weight_zero_exponents",
]

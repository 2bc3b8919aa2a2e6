"""Kernels, slices and weight decompositions of semisimple derivations with
integer weights on Laurent polynomial rings over Q.

`import ssderiv` loads no submodule: the first read of a public name imports
the submodule that defines it and binds the name here (PEP 562), so a script
that only does Laurent arithmetic never loads the kernel code.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in (
        ("derivation", "DiagonalDerivation FinitenessVerdict GeneralDerivation Inconclusive"
                       " LocallyFinite NotLocallyFinite WeightDecomposition commutator conjugate"
                       " local_finiteness_probe scalar_multiple_semisimple"),
        ("kernel", "HilbertBasis KernelGenerators SliceCoordinates brute_force_kernel"
                   " fraction_kernel_element hilbert_basis kernel_generators_localized kernel_in_B"
                   " lambert_degree reconstruct_from_slice_coordinates slice_coordinates"
                   " weight_zero_exponents"),
        ("laurent", "LaurentPoly ParseError RingCtx parse"),
        ("numtheory", "BezoutResult bezout_multi ext_gcd"),
        ("slices", "SliceData build_slice faithfulness_index verify_slice"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

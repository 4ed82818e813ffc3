"""Exact-arithmetic computation of Hom-Lie and related twisted structures
on finite-dimensional structure-constant algebras.

A public name is looked up in its defining module when first read (PEP 562),
so ``import homlie`` loads no submodule and a program pays only for the
modules it uses.  The value is not kept here: each read goes to the module,
so a name patched there is the name read here.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys(
        ("AlgebraSpec", "BILINEAR_KINDS", "BilinearForm", "LawViolation", "builtin", "builtin_names",
         "killing_form", "make_algebra", "parse_builtin", "structural_subspaces"),
        "algebra",
    ),
    **dict.fromkeys(
        ("NonSplitAction", "NotSubmodule", "WeightComponent", "act", "conjugate", "is_submodule",
         "sl2_decompose", "weight_decompose"),
        "actions",
    ),
    **dict.fromkeys(
        ("Cocycle2", "adjoin_map", "central_extension", "cocycle2", "km_window", "semidirect_derivation",
         "tensor_lie", "twisted_cyclic"),
        "constructions",
    ),
    **dict.fromkeys(
        ("ClosureVerdict", "closure_check", "counterexample_suite", "jordan_product",
         "jordan_structure_constants"),
        "jordan",
    ),
    **dict.fromkeys(("Matrix", "Scalar", "Subspace", "nullspace", "rref", "subspace_combine"), "linalg"),
    **dict.fromkeys(
        ("HOM_2NILP", "HOM_CYCLIC", "HOM_LIE", "HomSolution", "StructureKind", "central_ext_homlie_decomposed",
         "coboundary_space", "current_formula_span", "delta_derivation", "f_t", "is_multiplicative", "seq_uv",
         "solve_bilinear", "solve_qder", "solve_structures", "tensor_formula_span"),
        "solver",
    ),
    **dict.fromkeys(("WindowSolution", "beta_map", "central_maps", "solve_window"), "window"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_MODULE_OF])

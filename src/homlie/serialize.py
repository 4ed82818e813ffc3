"""JSON formats for algebras, windowed algebras, subspaces and solutions.

Rationals travel as strings "p/q" with positive q; on input a JSON int or
a string "p" is accepted too, and nothing else (no decimals, exponents or
bools).  A missing (i, j) table entry means the zero product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from .algebra import FLAVORS, MAX_DIM, AlgebraSpec, make_algebra
from .linalg import Subspace, as_scalar


def format_scalar(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(text) -> Fraction:
    """A JSON int, or a string "p/q" or "p" (``as_scalar``); not a float or a bool."""
    if isinstance(text, (float, bool)):
        raise TypeError(f"{text!r} is not an exact scalar; pass rationals as ints or strings 'p/q'")
    return as_scalar(text)


def algebra_to_json(alg: AlgebraSpec) -> dict:
    table = [[i, j, [[k, format_scalar(c)] for k, c in terms]]
             for i, row in enumerate(alg.rows) for j, terms in row.items()]
    return {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "flavor": alg.flavor,
        "grading": list(alg.grading) if alg.grading is not None else None,
        "table": table,
    }


def algebra_from_json(doc: Mapping[str, Any]) -> AlgebraSpec:
    if not isinstance(doc, Mapping):
        raise ValueError("an algebra document must be a JSON object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 0:  # bool is a subclass of int
        raise ValueError(f"field 'dim' must be an integer >= 0, got {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"field 'dim' is {dim}, above the bound of {MAX_DIM}")
    flavor = doc.get("flavor")
    if flavor not in FLAVORS:
        raise ValueError(f"field 'flavor' must be one of {', '.join(FLAVORS)}; got {flavor!r}")
    basis = doc.get("basis")
    if basis is not None and not _is_list_of(basis, str, dim):
        raise ValueError(f"field 'basis' must be null or a list of {dim} strings, got {basis!r}")
    grading = doc.get("grading")
    if grading is not None and not _is_list_of(grading, int, dim):
        raise ValueError(f"field 'grading' must be null or a list of {dim} integers, got {grading!r}")
    table = doc.get("table", [])
    if not isinstance(table, list):
        raise ValueError(f"field 'table' must be a list, got {table!r}")
    raw: dict = {}
    for entry in table:
        if not _is_table_entry(entry):
            raise ValueError(f"field 'table': entry {entry!r} is not [int, int, [[int, scalar], ...]]")
        i, j, terms = entry
        if (i, j) in raw:
            raise ValueError(f"duplicate table entry for pair {(i, j)}")
        raw[(i, j)] = [(k, parse_scalar(c)) for k, c in terms]
    return make_algebra(dim, raw, basis_names=basis, flavor=flavor, grading=grading)


def _is_list_of(value, kind: type, length: int) -> bool:
    """A JSON list of ``length`` values of exactly ``kind`` (no bool for int)."""
    return isinstance(value, list) and len(value) == length and all(type(x) is kind for x in value)


def _is_table_entry(entry) -> bool:
    """[i, j, [[k, scalar], ...]] with integer indices and int or string scalars."""
    return (
        isinstance(entry, list)
        and len(entry) == 3
        and _is_list_of(entry[:2], int, 2)
        and isinstance(entry[2], list)
        and all(
            isinstance(t, list) and len(t) == 2 and type(t[0]) is int and type(t[1]) in (int, str)
            for t in entry[2]
        )
    )


def partial_to_json(pa: AlgebraSpec) -> dict:
    """A degree window (``km_window``): each bracket once, the Euler action
    as [d, x], and the undefined pairs i < j listed in ``out_of_window``."""
    from .window import window_size

    kinds = ["euler" if name == "d" else "central" if name == "z" else "loop" for name in pa.basis_names]
    first = [-1 if kind == "euler" else i for i, kind in enumerate(kinds)]  # d is written first
    pairs = [(i, j, terms) for i, row in enumerate(pa.rows) for j, terms in row.items()]
    table = [[i, j, [[k, format_scalar(c)] for k, c in terms]] for i, j, terms in pairs
             if terms is not None and first[i] < first[j]]
    return {
        "dim": pa.dim,
        "basis": list(pa.basis_names),
        "flavor": "partial-anticommutative",
        "grading": list(pa.grading),
        "table": table,
        "partial": True,
        "window": window_size(pa),
        "kinds": kinds,
        "out_of_window": [[i, j] for i, j, terms in pairs if terms is None and i < j],
    }


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient,
        "dim": s.dim,
        "basis": [[format_scalar(x) for x in row] for row in s.basis.data],
    }


def solution_to_json(kind: str, algebra_doc: dict, space: Subspace) -> dict:
    return {
        "kind": kind,
        "algebra": algebra_doc,
        "dim": space.dim,
        "basis_maps": [[format_scalar(x) for x in row] for row in space.basis.data],
        "map_rows": algebra_doc["dim"],
    }

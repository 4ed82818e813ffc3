"""Shift blocks of the degree-windowed loop model (``km_window``).

``solve_window`` solves a window's Hom-Jacobi equations through the
solver's shift-block path, ``_solve_shift_blocks``, which keeps each block
on the window and conjugates a block from its kept mirror block.  An
equation is imposed per basis triple and per shift exactly when evaluating
it reads no product that leaves the window (``algebra._hom_terms`` raises
on one), so solutions supported near the degree boundary are kept; that is
why the inner-window comparison below is a report, not an assertion.  The
report is built once per window and shift, and kept on the window with the
solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import AlgebraSpec
from .linalg import Matrix, Subspace, nullspace_of_rows
from .solver import HOM_LIE, HomSolution, _kept, _solve_shift_blocks
from .solver import grading_shifts as window_shifts


@dataclass(frozen=True)
class InnerWindowReport:
    """Comparison of the solution span, restricted to degrees |d| <= N-2,
    against the predicted span (restricted identity + all maps into the
    center)."""

    inner_indices: tuple[int, ...]
    dim_full: int
    dim_restricted: int
    dim_predicted: int
    predicted_included: bool
    excess_dim: int

    def to_json(self) -> dict:
        return {
            "inner_dim": len(self.inner_indices),
            "dim_full": self.dim_full,
            "dim_restricted": self.dim_restricted,
            "dim_predicted": self.dim_predicted,
            "predicted_included": self.predicted_included,
            "excess_dim": self.excess_dim,
        }


@dataclass(frozen=True)
class WindowSolution:
    window: AlgebraSpec
    shift: int | None
    full: HomSolution
    inner: InnerWindowReport


def window_size(pa: AlgebraSpec) -> int:
    """N, the largest |degree| of the window."""
    return max(map(abs, pa.grading or (0,)))


def solve_window(pa: AlgebraSpec, degree_shift: int | None = None) -> WindowSolution:
    """Exact solution space of the Hom-Jacobi constraints over the window, in
    one shift block or in all of them, with its inner-window report; solved
    once per window and shift and kept on the window."""
    if window_size(pa) < 2:
        raise ValueError("window must be at least 2")
    shifts = window_shifts(pa)
    if degree_shift is not None:
        if degree_shift not in shifts:
            raise ValueError(f"degree shift {degree_shift} is outside the window's shifts {shifts[0]}..{shifts[-1]}")
        shifts = [degree_shift]
    return _kept(pa, ("window", degree_shift), lambda: WindowSolution(
        pa, degree_shift,
        HomSolution(pa, HOM_LIE, space := _solve_shift_blocks(pa, HOM_LIE, shifts, nullspace_of_rows)),
        _inner_report(pa, space, degree_shift)))


def central_maps(pa: AlgebraSpec) -> list[Matrix]:
    """All unit maps into the central line; always solutions."""
    z = pa.basis_names.index("z")
    return [Matrix.from_sparse(pa.dim, pa.dim, {(z, c): 1}) for c in range(pa.dim)]


def beta_map(pa: AlgebraSpec) -> Matrix:
    """The map sending the Euler generator to the central one, zero elsewhere."""
    return Matrix.from_sparse(pa.dim, pa.dim, {(pa.basis_names.index("z"), pa.basis_names.index("d")): 1})


def _inner_report(pa: AlgebraSpec, space: Subspace, shift: int | None = None) -> InnerWindowReport:
    inner = tuple(i for i, d in enumerate(pa.grading) if abs(d) <= window_size(pa) - 2)
    k = len(inner)
    pos = {i: p for p, i in enumerate(inner)}
    n = pa.dim

    def restrict(row: Mapping[int, Fraction]) -> dict[int, Fraction]:
        out = {}
        for j, x in row.items():
            u, c = divmod(j, n)
            if u in pos and c in pos:
                out[pos[u] * k + pos[c]] = x
        return out

    restricted = Subspace.from_spanning((restrict(r) for _, r in space.rows), k * k)
    z = pos[pa.basis_names.index("z")]
    # prediction: identity (shift 0 only) plus central maps of the matching shift
    preds = []
    if shift is None or shift == 0:
        preds.append({p * k + p: 1 for p in range(k)})
    for c in inner:
        if shift is None or pa.grading[c] + shift == 0:
            preds.append({z * k + pos[c]: 1})
    predicted = Subspace.from_spanning(preds, k * k)
    # joined contains restricted, so predicted lies in restricted exactly when the dims agree
    joined = restricted.sum(predicted)
    return InnerWindowReport(
        inner_indices=inner,
        dim_full=space.dim,
        dim_restricted=restricted.dim,
        dim_predicted=predicted.dim,
        predicted_included=joined.dim == restricted.dim,
        excess_dim=joined.dim - predicted.dim,
    )

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

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .algebra import AlgebraSpec
from .linalg import Matrix, Subspace, nullspace_of_rows
from .solver import HOM_LIE, HomSolution, _kept, _known_block, _plan, _solve_shift_blocks
from .solver import grading_shifts as window_shifts


class InnerWindowReport(NamedTuple):
    """Comparison of the solution span, restricted to degrees |d| <= N-2,
    against the predicted span: the solver's known solutions K of the
    report's shifts (``solver._known_block``, read in End), restricted alike."""

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


class WindowSolution(NamedTuple):
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
    """The maps e_c -> z, c ascending, for each z in the echelon basis of the
    table's centre: always solutions, and over every shift the maps into the
    centre that K (``solver._known_block``) holds."""
    return [Matrix.from_sparse(pa.dim, pa.dim, {(q, c): x for q, x in z.items()})
            for z in _plan(pa).annihilator for c in range(pa.dim)]


def beta_map(pa: AlgebraSpec) -> Matrix:
    """The map sending the Euler element d of a ``km_window`` to its central z, zero elsewhere."""
    if not {"d", "z"} <= set(pa.basis_names):
        raise ValueError("beta_map needs a km_window's Euler element d and central z (basis names 'd' and 'z')")
    return Matrix.from_sparse(pa.dim, pa.dim, {(pa.basis_names.index("z"), pa.basis_names.index("d")): 1})


def _inner_report(pa: AlgebraSpec, space: Subspace, shift: int | None = None) -> InnerWindowReport:
    reach = window_size(pa) - 2
    inner = tuple(i for i, d in enumerate(pa.grading) if abs(d) <= reach)
    k, n = len(inner), pa.dim
    pos = {i: p for p, i in enumerate(inner)}  # End's column u*n + c -> the inner part's pos[u]*k + pos[c]

    def restrict(rows: Iterable[Mapping[int, Fraction]]) -> Subspace:
        return Subspace.from_spanning(({pos[u] * k + pos[c]: x for j, x in r.items()
                                        if (u := j // n) in pos and (c := j % n) in pos} for r in rows), k * k)

    restricted = restrict(r for _, r in space.rows)
    shifts = window_shifts(pa) if shift is None else [shift]
    predicted = restrict(r for s in shifts for _, r in _known_block(pa, HOM_LIE, s).rows)
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

"""Shift-block driver for the degree-windowed loop model.

The window space is graded by loop degree (the Euler and central generators
sit in degree zero), so an unknown endomorphism splits into shift-graded
blocks and each constraint component touches exactly one block.  Each
block's rows come from the solver's Hom-identity compiler: equations are
imposed per basis triple and per shift, and a component is emitted only
when the triple's inner brackets and every outer bracket pairing the
bracket support with the whole target degree component are defined inside
the window.  Solutions supported near the degree boundary that satisfy all
imposed constraints are therefore kept, which is why the inner-window
comparison below is a report, not an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .constructions import PartialAlgebra
from .linalg import Matrix, Subspace, Vector, dense_vector, nullspace_of_rows
from .solver import HOM_LIE, HomSolution, _hom_generic_rows, _solve_modulo


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
    window: PartialAlgebra
    shift: int | None
    full: HomSolution
    inner: InnerWindowReport


def _degree_components(pa: PartialAlgebra) -> dict[int, list[int]]:
    comps: dict[int, list[int]] = {}
    for i in range(pa.dim):
        comps.setdefault(pa.degree(i), []).append(i)
    return comps


def _component_brackets_defined(pa: PartialAlgebra, support: Sequence[int], component: Sequence[int]) -> bool:
    for p in support:
        for u in component:
            if pa.bracket(p, u) is None:
                return False
    return True


def _solve_block(pa: PartialAlgebra, shift: int) -> list[Vector]:
    """Solution vectors of the shift block, embedded in End coordinates.

    The block is solved modulo a subspace K of its solutions known without
    solving (``solver._solve_modulo``), spanned by two kinds of map:

    - the unit maps e_c -> e_u (deg u = deg c + shift) with u in the right
      annihilator, that is, every product e_p e_u is defined and zero.  No
      compiled row has a term in the column of such a map.  An undefined
      product keeps u out.  In ``km_window`` these are the maps e_c -> z
      with deg c + shift = 0.
    - the identity, at shift 0 on a window certified ``flavor="lie"``.  An
      imposed equation reads only defined products, so for the identity it
      is a coordinate of the Jacobi identity of the Lie algebra those
      products are brackets of (the certificate; see ``km_window``).

    The triples are read by |deg a + deg b + deg c| ascending, stable by
    index: from the centre of the window outward.  A triple of total degree
    D is imposable at shift s only when |D + s| stays inside the window, so
    central triples are imposed in every block and bring the cut system to
    full rank early.  Row order does not change a kernel.
    """
    comps = _degree_components(pa)
    n = pa.dim
    deg = [pa.degree(i) for i in range(n)]
    cols = [(u, c) for c in range(n) for u in comps.get(deg[c] + shift, ())]
    if not cols:
        return []
    col_index = {pair: idx for idx, pair in enumerate(cols)}
    annihilator = [u for u in range(n) if all(pa.bracket(p, u) == () for p in range(n))]
    gens = [{col_index[(u, c)]: 1} for u in annihilator for c in range(n) if deg[c] + shift == deg[u]]
    if shift == 0 and pa.flavor == "lie":
        gens.append({col_index[(c, c)]: 1 for c in range(n)})
    known = Subspace.from_spanning([dense_vector(g, len(cols)) for g in gens], len(cols))
    triples = sorted(combinations(range(n), 3), key=lambda t: abs(deg[t[0]] + deg[t[1]] + deg[t[2]]))
    rows = _hom_generic_rows(pa, triples, "jacobi", (pa.degree, shift, col_index))
    block = _solve_modulo(known, rows, nullspace_of_rows)
    out = []
    for b in block.basis.data:
        dense = [Fraction(0)] * (n * n)
        for (u, c), v in zip(cols, b):
            if v:
                dense[u * n + c] = v
        out.append(tuple(dense))
    return out


def window_shifts(pa: PartialAlgebra) -> list[int]:
    degs = sorted({pa.degree(i) for i in range(pa.dim)})
    return list(range(degs[0] - degs[-1], degs[-1] - degs[0] + 1))


def solve_window(pa: PartialAlgebra, degree_shift: int | None = None) -> WindowSolution:
    """Exact solution space of the Hom-Jacobi constraints over the window."""
    if pa.window < 2:
        raise ValueError("window must be at least 2")
    shifts = window_shifts(pa)
    if degree_shift is not None:
        if degree_shift not in shifts:
            raise ValueError(f"degree shift {degree_shift} is outside the window's shifts {shifts[0]}..{shifts[-1]}")
        shifts = [degree_shift]
    vectors: list[Vector] = []
    for shift in shifts:
        vectors.extend(_solve_block(pa, shift))
    space = Subspace.from_spanning(vectors, pa.dim ** 2)
    full = HomSolution(pa, HOM_LIE, space)  # type: ignore[arg-type]
    return WindowSolution(pa, degree_shift, full, _inner_report(pa, space, degree_shift))


def central_maps(pa: PartialAlgebra) -> list[Matrix]:
    """All unit maps into the central line; always solutions."""
    z = next(i for i, lab in enumerate(pa.labels) if lab.kind == "central")
    return [Matrix.from_sparse(pa.dim, pa.dim, {(z, c): 1}) for c in range(pa.dim)]


def beta_map(pa: PartialAlgebra) -> Matrix:
    """The map sending the Euler generator to the central one, zero elsewhere."""
    z = next(i for i, lab in enumerate(pa.labels) if lab.kind == "central")
    d = next(i for i, lab in enumerate(pa.labels) if lab.kind == "euler")
    return Matrix.from_sparse(pa.dim, pa.dim, {(z, d): 1})


def _inner_report(pa: PartialAlgebra, space: Subspace, shift: int | None = None) -> InnerWindowReport:
    inner = tuple(i for i in range(pa.dim) if abs(pa.degree(i)) <= pa.window - 2)
    k = len(inner)
    pos = {i: p for p, i in enumerate(inner)}
    n = pa.dim

    def restrict(flat: Sequence[Fraction]) -> Vector:
        return tuple(flat[i * n + j] for i in inner for j in inner)

    restricted = Subspace.from_spanning([restrict(b) for b in space.basis.data], k * k)
    z = next(i for i, lab in enumerate(pa.labels) if lab.kind == "central")
    # prediction: identity (shift 0 only) plus central maps of the matching shift
    preds = []
    if shift is None or shift == 0:
        preds.append(Matrix.identity(k).flatten())
    for c in inner:
        if shift is not None and pa.degree(c) + shift != 0:
            continue
        dense = [Fraction(0)] * (k * k)
        dense[pos[z] * k + pos[c]] = Fraction(1)
        preds.append(tuple(dense))
    predicted = Subspace.from_spanning(preds, k * k)
    included = predicted.is_subspace_of(restricted)
    joined = restricted.sum(predicted)
    return InnerWindowReport(
        inner_indices=inner,
        dim_full=space.dim,
        dim_restricted=restricted.dim,
        dim_predicted=predicted.dim,
        predicted_included=included,
        excess_dim=joined.dim - predicted.dim,
    )


def window_jacobi_residual(
    pa: PartialAlgebra, phi: Matrix, triple: tuple[int, int, int], shift: int
) -> Vector | None:
    """Independent evaluator for one imposed component equation.

    Returns None when the component is not imposable for this shift (some
    needed bracket leaves the window), otherwise the exact residual of the
    shift-component of the identity at the triple.
    """
    comps = _degree_components(pa)
    i, j, k = triple
    w_ij, w_ki, w_jk = pa.bracket(i, j), pa.bracket(k, i), pa.bracket(j, k)
    if w_ij is None or w_ki is None or w_jk is None:
        return None
    total = [Fraction(0)] * pa.dim
    for w, c in ((w_ij, k), (w_ki, j), (w_jk, i)):
        component = comps.get(pa.degree(c) + shift, ())
        if not _component_brackets_defined(pa, [p for p, _ in w], component):
            return None
        for p, cw in w:
            for u in component:
                coeff = phi.entry(u, c)
                if not coeff:
                    continue
                for m, cb in pa.bracket(p, u):
                    total[m] += cw * coeff * cb
    return tuple(total)

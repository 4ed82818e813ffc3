"""Shift blocks of the degree-windowed loop model (``km_window``).

``solve_window`` solves a window's Hom-Jacobi equations through the
solver's shift-block path.  An equation is imposed per basis triple and per
shift exactly when evaluating it reads no product that leaves the window
(``algebra._hom_terms`` raises on one), so solutions supported near the
degree boundary are kept; that is why the inner-window comparison below is
a report, not an assertion.  Each block is solved once per window and kept
on it; a block whose mirror block is kept is conjugated from it
(``_block``).
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
    one shift block or in all of them."""
    if window_size(pa) < 2:
        raise ValueError("window must be at least 2")
    shifts = window_shifts(pa)
    if degree_shift is not None:
        if degree_shift not in shifts:
            raise ValueError(f"degree shift {degree_shift} is outside the window's shifts {shifts[0]}..{shifts[-1]}")
        shifts = [degree_shift]
    # the blocks have disjoint columns: their rows, sorted by pivot, are the
    # reduced basis of the direct sum (the lemma in ``_solve_shift_blocks``)
    rows = sorted((pr for shift in shifts for pr in _block(pa, shift).rows), key=lambda pr: pr[0])
    space = Subspace(pa.dim * pa.dim, rows)
    return WindowSolution(pa, degree_shift, HomSolution(pa, HOM_LIE, space), _inner_report(pa, space, degree_shift))


def _sigma(pa: AlgebraSpec) -> tuple[list[int], list[int]] | None:
    """The window's candidate mirror, sigma(e_u) = sign[u] e_perm[u], as
    (perm, sign): x (x) t^i -> x (x) t^-i, d -> -d, z -> -z, with the k-th
    loop vector of degree i sent to the k-th of degree -i; None when the
    two degrees hold different numbers of loop vectors."""
    d, z = pa.basis_names.index("d"), pa.basis_names.index("z")
    loops: dict[int, list[int]] = {}
    for u, deg in enumerate(pa.grading):
        if u not in (d, z):
            loops.setdefault(deg, []).append(u)
    perm, sign = list(range(pa.dim)), [1] * pa.dim
    sign[d] = sign[z] = -1
    for deg, us in loops.items():
        if len(loops.get(-deg, ())) != len(us):
            return None
        for u, v in zip(us, loops[-deg]):
            perm[u] = v
    return perm, sign


def _is_mirror(pa: AlgebraSpec, perm: list[int], sign: list[int]) -> bool:
    """Whether sigma(e_u) = sign[u] e_perm[u] is a bijection that negates
    degrees, sends each defined product e_p e_q to sigma(e_p) sigma(e_q)
    and each undefined one to an undefined one.

    Each row of the index is walked once: its entries map injectively into
    row perm[p], and equal lengths leave that row no other entry, so zero
    products map to zero products too."""
    rows, deg = pa.rows, pa.grading
    if sorted(perm) != list(range(pa.dim)) or any(deg[perm[u]] != -deg[u] for u in range(pa.dim)):
        return False
    for p, row in enumerate(rows):
        image = rows[perm[p]]
        if len(image) != len(row):
            return False
        for q, terms in row.items():
            mapped = image.get(perm[q], ())
            if terms is None or mapped is None:
                if terms is not mapped:
                    return False
            elif dict(mapped) != {perm[k]: sign[p] * sign[q] * sign[k] * c for k, c in terms}:
                return False
    return True


def _mirror(pa: AlgebraSpec) -> tuple[list[int], list[int]] | None:
    """``_sigma`` once it has passed ``_is_mirror``, checked once per window
    and kept on it; None when the window has no such mirror (a twist of
    order 3, say)."""
    return _kept(pa, "mirror", lambda: sigma if (sigma := _sigma(pa)) and _is_mirror(pa, *sigma) else None)


def _block(pa: AlgebraSpec, shift: int) -> Subspace:
    """The Hom-Lie solutions of one shift block, in End, solved once per
    window and kept on it under their shift.  A block whose mirror block
    -shift is kept is conjugated from it; any other is solved by
    ``_solve_shift_blocks``.

    The mirror lemma.  Let sigma(e_u) = s_u e_{pi u} be the checked
    ``_mirror``: a bijection that negates degrees, maps every defined
    product of basis vectors to the product of the images and every
    undefined one to an undefined one.  It is the automorphism x (x) t^i ->
    x (x) t^-i, d -> -d, z -> -z of the affine algebra L(g) + Kz + Kd (Kac,
    *Infinite-dimensional Lie algebras*, ch. 7-8), which also preserves the
    twisted subalgebra of an order-2 twist, as -i = i mod 2.  For phi of
    shift s, phi' = sigma phi sigma^-1 has shift -s, and its entry at
    (pi q, pi c) is s_q s_c times phi's at (q, c).  The equation of the
    triple (a, b, c) at shift s reads e_a e_b, then e_k e_q for every k in
    the support of e_a e_b and every q of degree deg c + s, and likewise
    for its two other terms; pi maps these products onto those that the
    equation of (pi a, pi b, pi c) reads at shift -s, as it maps the
    support of e_a e_b onto that of e_{pi a} e_{pi b} and degree
    deg c + s onto deg pi c - s.  So one equation is imposed exactly when
    the other is (a block's solutions are the common kernel of the
    equations imposed on every ordered triple, which the rows of
    ``_solve_shift_blocks`` span).  When they are, the form of
    (pi a, pi b, pi c) at phi' is s_a s_b s_c sigma of the form of
    (a, b, c) at phi: for instance
    (e_{pi a} e_{pi b}) phi'(e_{pi c}) = s_a s_b s_c sigma(e_a e_b)
    sigma(phi(e_c)) = s_a s_b s_c sigma((e_a e_b) phi(e_c)).  Hence phi
    solves every equation imposed at s exactly when phi' solves every one
    imposed at -s: the invertible map phi -> phi' carries the solutions of
    block s onto those of block -s, and ``Subspace.from_spanning`` of the
    images of a basis is that block's canonical basis.
    """
    blocks = _kept(pa, "window blocks", dict)
    if shift not in blocks:
        mirror, partner = _mirror(pa), blocks.get(-shift)
        if mirror is None or partner is None:
            blocks[shift] = _solve_shift_blocks(pa, HOM_LIE, [shift], nullspace_of_rows)
        else:
            (perm, sign), n = mirror, pa.dim
            images = []
            for _, row in partner.rows:
                image = {}
                for j, x in row.items():
                    q, c = divmod(j, n)
                    image[perm[q] * n + perm[c]] = sign[q] * sign[c] * x
                images.append(image)
            blocks[shift] = Subspace.from_spanning(images, n * n)
    return blocks[shift]


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

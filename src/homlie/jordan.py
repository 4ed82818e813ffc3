"""Jordan-product closure of solved structure spaces.

The symmetrized composition (phi o psi + psi o phi)/2 turns End(L) into a
Jordan algebra; solved structure spaces may or may not be closed under it.
closure_check decides this exactly, jordan_structure_constants extracts the
induced commutative algebra when closed, and counterexample_suite rebuilds
the non-closure example on the two-dimensional nonabelian algebra tensored
with a truncated polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraSpec, builtin, make_algebra, sparse_product
from .constructions import tensor_lie
from .linalg import Matrix, Vector, dense_vector, sparse_lincomb
from .solver import HOM_LIE, HomSolution, grading_shifts, solve_structures, structure_residual


def jordan_product(phi: Matrix, psi: Matrix) -> Matrix:
    """(phi psi + psi phi) / 2."""
    if phi.shape != psi.shape or phi.rows != phi.cols:
        raise ValueError("jordan_product needs two square maps of equal size")
    return (phi @ psi + psi @ phi).scale(Fraction(1, 2))


@dataclass(frozen=True)
class ClosureWitness:
    phi_index: int
    psi_index: int
    product: Matrix
    violating_triple: tuple[int, int, int]
    residual: Vector


@dataclass(frozen=True)
class ClosureVerdict:
    closed: bool
    witness: ClosureWitness | None = None


def _first_violation(alg: AlgebraSpec, phi: Matrix) -> tuple[tuple[int, int, int], Vector] | None:
    """The first triple i < j < k with a nonzero Hom-Jacobi residual; on a
    table with undefined products (a window), of an imposed equation, the
    shifts taken in ascending order."""
    for shift in grading_shifts(alg) if None in alg.table.values() else [None]:
        for triple in combinations(range(alg.dim), 3):
            r = structure_residual(alg, phi, HOM_LIE, triple, shift)
            if r is not None and any(r):
                return triple, r
    return None


def closure_check(sol: HomSolution) -> ClosureVerdict:
    """Is the solved space closed under the Jordan product of basis maps?"""
    maps = sol.basis_maps()
    for i, phi in enumerate(maps):
        for j in range(i, len(maps)):
            prod = jordan_product(phi, maps[j])
            if not sol.space.contains(prod.sparse_flatten()):
                violation = _first_violation(sol.algebra, prod)
                if violation is None:
                    # outside the span yet satisfying the identity cannot
                    # happen: the space is the exact solution set
                    raise AssertionError("non-member with zero residual")  # pragma: no cover
                triple, residual = violation
                return ClosureVerdict(False, ClosureWitness(i, j, prod, triple, residual))
    return ClosureVerdict(True)


def jordan_structure_constants(sol: HomSolution, verdict: ClosureVerdict) -> AlgebraSpec:
    """Commutative algebra structure induced on a closed solution space."""
    if not verdict.closed:
        raise ValueError("structure constants exist only for closed spaces")
    maps = sol.basis_maps()
    table: dict = {}
    for i, phi in enumerate(maps):
        for j, psi in enumerate(maps):
            coords = sol.space.coords(jordan_product(phi, psi).sparse_flatten())
            assert coords is not None
            entry = [(k, c) for k, c in enumerate(coords) if c]
            if entry:
                table[(i, j)] = entry
    return make_algebra(len(maps), table, flavor="generic-commutative")


def jordan_identity_defect(alg: AlgebraSpec) -> tuple[tuple[int, int], Vector] | None:
    """(x^2 o (y o x)) - ((x^2 o y) o x) on basis pairs; None when it holds."""
    n, t = alg.dim, alg.table
    for i in range(n):
        xx = dict(alg.product_on_basis(i, i))
        for j in range(n):
            lhs = sparse_product(t, xx, dict(alg.product_on_basis(j, i)))
            rhs = sparse_product(t, sparse_product(t, xx, {j: 1}), {i: 1})
            diff = sparse_lincomb((1, lhs), (-1, rhs))
            if diff:
                return (i, j), dense_vector(diff, n)
    return None


# ---------------------------------------------------------------------------
# the non-closure counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    truncation_order: int
    alpha_monomial: tuple[int, int]  # alpha sends t^source to t^target
    phi_member: bool
    psi_member: bool
    product_member: bool
    violating_triple: tuple[int, int, int]
    residual: Vector
    composition_is_phi: bool

    def to_json(self) -> dict:
        return {
            "truncation_order": self.truncation_order,
            "alpha": {"source_degree": self.alpha_monomial[0], "target_degree": self.alpha_monomial[1]},
            "phi_member": self.phi_member,
            "psi_member": self.psi_member,
            "product_member": self.product_member,
            "violating_triple": list(self.violating_triple),
            "residual": [str(x) for x in self.residual],
            "composition_is_phi": self.composition_is_phi,
        }


def counterexample_suite(max_order: int = 8) -> CounterexampleReport:
    """Find a Jordan product of two solved structures that leaves the space.

    On L = <x, y | [x,y] = x>, take phi: x -> y, y -> 0 (a structure, since
    every endomorphism of L is one) and psi: x -> x, y -> 0 (image inside
    the line killed by the derived subalgebra).  Tensoring with K[t]/(t^m),
    phi (x) id and psi (x) alpha are structures on the tensor algebra for
    any alpha; a monomial alpha separating degrees makes their Jordan
    product fail, because phi o psi = phi does not have image in that line.
    """
    l = builtin("nonabelian2")
    phi_l = Matrix.from_rows([[0, 0], [1, 0]])  # x -> y
    psi_l = Matrix.from_rows([[1, 0], [0, 0]])  # x -> x
    comp = phi_l @ psi_l
    composition_is_phi = comp == phi_l
    for m in range(3, max_order + 1):
        a = builtin("trunc_poly", m)
        tensor = tensor_lie(a, l)
        sol = solve_structures(tensor, HOM_LIE)
        phi_big = Matrix.identity(a.dim).kron(phi_l)
        for src in range(m):
            for dst in range(m):
                alpha = Matrix.from_sparse(a.dim, a.dim, {(dst, src): 1})
                psi_big = alpha.kron(psi_l)
                prod = jordan_product(phi_big, psi_big)
                if sol.space.contains(prod.sparse_flatten()):
                    continue
                violation = _first_violation(tensor, prod)
                if violation is None:
                    continue  # pragma: no cover
                triple, residual = violation
                return CounterexampleReport(
                    truncation_order=m,
                    alpha_monomial=(src, dst),
                    phi_member=sol.space.contains(phi_big.sparse_flatten()),
                    psi_member=sol.space.contains(psi_big.sparse_flatten()),
                    product_member=False,
                    violating_triple=triple,
                    residual=residual,
                    composition_is_phi=composition_is_phi,
                )
    raise RuntimeError(f"no non-closure witness found up to truncation order {max_order}")

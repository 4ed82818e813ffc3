"""Jordan-product closure of solved structure spaces.

The symmetrized composition (phi o psi + psi o phi)/2 turns End(L) into a
Jordan algebra; solved structure spaces may or may not be closed under it.
closure_check decides this exactly and keeps each product's coordinates, from
which jordan_structure_constants builds the induced commutative algebra;
counterexample_suite rebuilds the non-closure example on the two-dimensional
nonabelian algebra tensored with a truncated polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import AlgebraSpec, _jacobi_triples, builtin, make_algebra, sparse_product
from .constructions import tensor_lie
from .linalg import Matrix, Vector, dense_vector, sparse_lincomb
from .solver import HOM_LIE, HomSolution, _plan, grading_shifts, solve_structures, structure_residual


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
    constants: dict[tuple[int, int], Vector] | None = None  # when closed, at i <= j: coordinates of map i o map j


def _first_violation(alg: AlgebraSpec, phi: Matrix) -> tuple[tuple[int, int, int], Vector]:
    """The first triple of ``_jacobi_triples`` with a nonzero Hom-Jacobi
    residual; on a table with undefined products (a window), of an imposed
    equation, the shifts in ascending order.  phi lies outside a solved
    space, and those triples decide the identity, so one exists."""
    for shift in [None] if _plan(alg).complete else grading_shifts(alg):
        for triple in _jacobi_triples(alg):
            r = structure_residual(alg, phi, HOM_LIE, triple, shift)
            if r is not None and any(r):
                return triple, r
    raise AssertionError("non-member with zero residual")  # pragma: no cover


def closure_check(sol: HomSolution) -> ClosureVerdict:
    """Is the solved space closed under the Jordan product of basis maps?"""
    maps = sol.basis_maps()
    constants = {}
    for i, phi in enumerate(maps):
        for j in range(i, len(maps)):
            prod = jordan_product(phi, maps[j])
            coords = sol.space.coords(prod.sparse_flatten())
            if coords is None:
                return ClosureVerdict(False, ClosureWitness(i, j, prod, *_first_violation(sol.algebra, prod)))
            constants[(i, j)] = coords
    return ClosureVerdict(True, constants=constants)


def jordan_structure_constants(sol: HomSolution, verdict: ClosureVerdict) -> AlgebraSpec:
    """Commutative algebra induced on a closed solution space, from ``closure_check``'s coordinates."""
    if not verdict.closed or verdict.constants is None:
        raise ValueError("structure constants exist only for closed spaces checked by closure_check")
    table: dict = {}
    for i in range(sol.dim):
        for j in range(sol.dim):
            entry = [(k, c) for k, c in enumerate(verdict.constants[min(i, j), max(i, j)]) if c]
            if entry:
                table[(i, j)] = entry
    return make_algebra(sol.dim, table, flavor="generic-commutative")


def jordan_identity_defect(alg: AlgebraSpec) -> tuple[tuple[int, int, int, int], Vector] | None:
    """The first basis tuple (a, b, c, y), a <= b <= c, where the linearized
    Jordan identity fails, with its value there; None when it holds.

    (x^2 y) x = x^2 (y x) is cubic in x, so basis x alone cannot decide
    it.  Its linearization, the sum over t in {a, b, c} of ((pq)y)t -
    (pq)(yt) with {p, q} the other two, is symmetric and trilinear in a, b,
    c and is 3 times the identity's defect at a = b = c = x, so over Q it
    vanishes on basis tuples exactly when the identity holds.  Each pq is
    computed once per (p, q), each (pq)y once per (p, q, y), and a zero pq
    contributes nothing, so a triple whose three pq are zero has no y to
    walk."""
    n, rows = alg.dim, alg.rows
    pqs: dict[tuple[int, int], dict] = {}
    pqys: dict[tuple[int, int, int], dict] = {}
    for a, b, c in combinations_with_replacement(range(n), 3):
        for p, q in ((b, c), (a, c), (a, b)):
            if (p, q) not in pqs:
                pqs[p, q] = dict(alg.product_on_basis(p, q))
        nonzero = [(p, q, t) for p, q, t in ((b, c, a), (a, c, b), (a, b, c)) if pqs[p, q]]
        if not nonzero:
            continue  # every term vanishes at every y
        for y in range(n):
            terms = []
            for p, q, t in nonzero:
                pq = pqs[p, q]
                if (p, q, y) not in pqys:
                    pqys[p, q, y] = sparse_product(rows, pq, {y: 1})
                terms += [(1, sparse_product(rows, pqys[p, q, y], {t: 1})),
                          (-1, sparse_product(rows, pq, dict(alg.product_on_basis(y, t))))]
            defect = sparse_lincomb(*terms)
            if defect:
                return (a, b, c, y), dense_vector(defect, n)
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


def counterexample_suite() -> CounterexampleReport:
    """Find a Jordan product of two solved structures that leaves the space.

    On L = <x, y | [x,y] = x>, take phi: x -> y, y -> 0 (a structure, since
    every endomorphism of L is one) and psi: x -> x, y -> 0 (image inside
    the line killed by the derived subalgebra).  Tensoring with K[t]/(t^m),
    3 <= m <= 8, phi (x) id and psi (x) alpha are structures on the tensor
    algebra for any alpha; a monomial alpha separating degrees makes their
    Jordan product fail, because phi o psi = phi has image outside that line.
    """
    l = builtin("nonabelian2")
    phi_l = Matrix.from_rows([[0, 0], [1, 0]])  # x -> y
    psi_l = Matrix.from_rows([[1, 0], [0, 0]])  # x -> x
    comp = phi_l @ psi_l
    composition_is_phi = comp == phi_l
    for m in range(3, 9):
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
                triple, residual = _first_violation(tensor, prod)
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
    raise RuntimeError("no non-closure witness found up to truncation order 8")

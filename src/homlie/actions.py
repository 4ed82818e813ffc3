"""Module structure on spaces of endomorphisms.

A Lie algebra acts on Hom(L, L) by (h . phi)(x) = [phi(x), h] - phi([x, h]),
and the solved structure spaces are submodules.  One sparse kernel,
``_sandwich``, forms h . phi and the conjugates on maps flattened as
``Subspace`` rows are, from the columns of right multiplication or exp(+-ad x)
read through ``sparse_product``, integral entries as ints.  Torus eigenvalues
must be rational: decomposition fails loudly (NonSplitAction) instead of
silently dropping components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, isqrt, lcm
from typing import Sequence

from .algebra import AlgebraSpec, _require_lie, sparse_product
from .linalg import (Matrix, SparseVector, Subspace, Vector, as_scalar, int_if_integral, minimal_polynomial, nullspace,
                     sparse_lincomb, sparse_vector_in)


class NotSubmodule(ValueError):
    """An element moves a basis map out of the subspace; ``generator_index``
    is None when the element is not a basis generator."""

    def __init__(self, generator_index: int | None, basis_index: int):
        self.generator_index = generator_index
        self.basis_index = basis_index
        actor = "the action" if generator_index is None else f"action of basis generator {generator_index}"
        super().__init__(f"{actor} moves basis map {basis_index} outside the subspace")


class NonSplitAction(ValueError):
    """The action has non-rational eigenvalues or is not diagonalizable."""


@dataclass(frozen=True)
class SubmoduleWitness:
    generator_index: int
    map_index: int


@dataclass(frozen=True)
class WeightComponent:
    weight: tuple[Fraction, ...]
    component: Subspace


def _right(alg: AlgebraSpec, h: Sequence[Fraction]) -> list[SparseVector]:
    """The columns e_c h of right multiplication by h, read as ``right_mul_matrix``
    reads them, after checking the algebra's flavor and h's length."""
    _require_lie(alg, "act")
    sh = {q: int_if_integral(x) for q, x in sparse_vector_in(tuple(map(as_scalar, h)), alg.dim).items()}
    return [sparse_product(alg.rows, {c: 1}, sh) for c in range(alg.dim)]


def _sandwich(left: Sequence[SparseVector], phi: SparseVector, right: Sequence[SparseVector]) -> SparseVector:
    """left . phi . right for square matrices given by their columns and phi
    flattened (entry (a, b) at a*n + b), flattened the same way."""
    n = len(left)
    phi_cols: list[SparseVector] = [{} for _ in range(n)]
    for k, x in phi.items():
        phi_cols[k % n][k // n] = x
    out: dict[int, int | Fraction] = {}
    for c, col in enumerate(right):  # right e_c, then phi, then left
        for b, w in col.items():
            for a, v in phi_cols[b].items():
                for q, u in left[a].items():
                    out[q * n + c] = out.get(q * n + c, 0) + u * v * w
    return {k: x for k, x in out.items() if x}


def _act(right: Sequence[SparseVector], phi: SparseVector) -> SparseVector:
    """h . phi = R phi - phi R, flattened as phi is, for R's columns ``right`` = ``_right(alg, h)``."""
    one = [{c: 1} for c in range(len(right))]
    return sparse_lincomb((1, _sandwich(right, phi, one)), (-1, _sandwich(one, phi, right)))


def act(alg: AlgebraSpec, h: Sequence[Fraction], phi: Matrix) -> Matrix:
    """(h . phi)(x) = [phi(x), h] - phi([x, h]), that is R phi - phi R for R
    the right multiplication by h."""
    right = _right(alg, h)
    if phi.shape != (alg.dim, alg.dim):
        raise ValueError("map shape does not match the algebra")
    return Matrix.unflatten(_act(right, phi.sparse_flatten()), alg.dim, alg.dim)


def is_submodule(alg: AlgebraSpec, s: Subspace) -> bool | SubmoduleWitness:
    """True iff e_i . phi stays in s for every generator and basis map."""
    if s.ambient != alg.dim ** 2:
        raise ValueError("subspace must live in the endomorphism space")
    for i in range(alg.dim):
        right = _right(alg, alg.basis_vector(i))
        for j, (_, phi) in enumerate(s.rows):
            if not s.contains(_act(right, phi)):
                return SubmoduleWitness(i, j)
    return True


def action_matrix(alg: AlgebraSpec, h: Sequence[Fraction], s: Subspace) -> Matrix:
    """Matrix of phi -> h . phi on s, in the echelon-basis coordinates.
    Raises NotSubmodule when h moves s out of itself."""
    right = _right(alg, h)
    cols = []
    for _, phi in s.rows:
        coords = s.coords(_act(right, phi))
        if coords is None:
            raise NotSubmodule(None, len(cols))
        cols.append(coords)
    return Matrix.from_sparse(s.dim, s.dim, {(r, k): c for k, col in enumerate(cols) for r, c in enumerate(col) if c})


def rational_eigenvalues(m: Matrix) -> list[Fraction]:
    """Distinct rational eigenvalues of a square matrix, ascending.

    With D the lcm of the entries' denominators, the minimal polynomial of
    D*m is monic with integer coefficients (it divides the characteristic
    polynomial, Gauss's lemma), so its rational roots are integers r.  Each
    divides the lowest nonzero coefficient c and has |r| at most the largest
    absolute row sum B of D*m; the candidates are found by trial division up
    to min(B, sqrt|c|), checked by exact evaluation, and returned as r/D.
    That search bounds the reach: eigenvalues (times D) near 10^6 take a
    fraction of a second, near 10^12 they are out of reach.
    """
    denom = lcm(*(v.denominator for r in m.sparse_rows for v in r.values()))
    scaled = m.scale(denom)
    poly = [c.numerator for c in minimal_polynomial(scaled)]
    low = next(i for i, c in enumerate(poly) if c)
    c = abs(poly[low])
    bound = max((sum(abs(v) for v in r.values()) for r in scaled.sparse_rows), default=0)
    divisors = [r for r in range(1, min(bound, isqrt(c)) + 1) if not c % r]
    candidates = {s * x for r in divisors for x in (r, c // r) if x <= bound for s in (1, -1)}

    def value(x: int) -> int:
        acc = 0
        for coeff in reversed(poly):
            acc = acc * x + coeff
        return acc

    roots = [x for x in candidates if value(x) == 0] + ([0] if low else [])
    return sorted(Fraction(x, denom) for x in roots)


def _eigen_subspaces(alg: AlgebraSpec, h: Sequence[Fraction], s: Subspace) -> list[tuple[Fraction, Subspace]]:
    """Split s into exact eigenspaces of the h-action; raise if it does not
    split over the rationals."""
    if s.dim == 0:
        return []
    a = action_matrix(alg, h, s)
    pieces = []
    covered = 0
    for lam in rational_eigenvalues(a):
        kern = nullspace(a - Matrix.identity(a.rows).scale(lam))
        # kern's rows combine s's rows into a reduced basis of the eigenspace:
        # on s's pivot columns a combination is kern's row, and s's row j is
        # zero before its pivot, so the combination's pivot is s's pivot at
        # kern's pivot, with entry 1
        rows = [(s.rows[p][0], sparse_lincomb(*((c, s.rows[j][1]) for j, c in r.items()))) for p, r in kern.rows]
        pieces.append((lam, Subspace(s.ambient, rows)))
        covered += kern.dim
    if covered != s.dim:
        raise NonSplitAction(
            f"action splits only {covered} of {s.dim} dimensions over the rationals"
        )
    return pieces


def noncommuting_pair(alg: AlgebraSpec, torus: Sequence[Sequence[Fraction]]) -> tuple[int, int] | None:
    """The first positions i < j in ``torus`` whose elements do not commute,
    or None when they all do."""
    pairs = combinations(enumerate(torus), 2)
    return next(((i, j) for (i, s), (j, t) in pairs if any(alg.multiply(s, t))), None)


def weight_decompose(
    alg: AlgebraSpec, torus: Sequence[Sequence[Fraction]], s: Subspace
) -> list[WeightComponent]:
    """Joint eigenspace decomposition of s under commuting torus elements.

    Components direct-sum to s; empty weights are omitted.  The torus
    elements must commute and the subspace must be a submodule (both
    checked), and the action must split over Q.
    """
    _require_lie(alg, "weight_decompose")
    pair = noncommuting_pair(alg, torus)
    if pair:
        raise ValueError(f"torus elements {pair[0]} and {pair[1]} do not commute")
    verdict = is_submodule(alg, s)
    if verdict is not True:
        raise NotSubmodule(verdict.generator_index, verdict.map_index)
    components: list[tuple[tuple[Fraction, ...], Subspace]] = [((), s)]
    for t in torus:
        sparse_vector_in(tuple(map(as_scalar, t)), alg.dim)  # checked also where no component is left to split
        refined: list[tuple[tuple[Fraction, ...], Subspace]] = []
        for weight, comp in components:
            for lam, piece in _eigen_subspaces(alg, t, comp):
                refined.append((weight + (lam,), piece))
        components = refined
    total = sum(c.dim for _, c in components)
    if total != s.dim:
        raise NonSplitAction("weight components do not exhaust the subspace")  # pragma: no cover
    return [WeightComponent(w, c) for w, c in sorted(components, key=lambda wc: wc[0])]


def is_sl2_triple(alg: AlgebraSpec, lower: Vector, h: Vector, raiser: Vector) -> bool:
    """Relations of the 3-dimensional simple algebra in the fixed convention:
    [lower, h] = -lower, [raiser, h] = raiser, [lower, raiser] = h."""
    neg = tuple(-a for a in lower)
    return (
        alg.multiply(lower, h) == neg
        and alg.multiply(raiser, h) == raiser
        and alg.multiply(lower, raiser) == h
    )


def sl2_decompose(
    alg: AlgebraSpec,
    triple: tuple[Sequence[Fraction], Sequence[Fraction], Sequence[Fraction]],
    s: Subspace,
) -> list[int]:
    """Multiset of irreducible dimensions of an invariant subspace under a
    3-dimensional simple triple, by weight-multiplicity counting.

    With the convention used here the middle element acts on the adjoint
    module with eigenvalues -1, 0, 1, so an m-dimensional irreducible shows
    m consecutive weights centred at zero, each with multiplicity one.
    """
    lower, h, raiser = (tuple(as_scalar(a) for a in v) for v in triple)
    if not is_sl2_triple(alg, lower, h, raiser):
        raise ValueError("supplied vectors do not satisfy the triple relations")
    comps = weight_decompose(alg, [h], s)
    mult: dict[Fraction, int] = {c.weight[0]: c.component.dim for c in comps}
    dims: list[int] = []
    for w in sorted(mult, reverse=True):
        if w < 0:
            break
        count = mult.get(w, 0) - mult.get(w + 1, 0)
        if count < 0 or mult.get(w, 0) != mult.get(-w, 0):
            raise NonSplitAction("weight multiplicities are not symmetric unimodal")
        size = 2 * w + 1
        if count and (size.denominator != 1 or size <= 0):
            raise NonSplitAction(f"weight {w} cannot head an irreducible block")
        dims.extend([int(size)] * count)
    if sum(dims) != s.dim:
        raise NonSplitAction("irreducible dimensions do not sum to the subspace dimension")
    return sorted(dims, reverse=True)


def _exp_ad(alg: AlgebraSpec, x: Sequence[Fraction]) -> tuple[list[SparseVector], list[SparseVector]] | None:
    """The columns of exp(+-ad x), sums of (+-ad x)^k / k!, or None when ad x ** dim != 0; column
    c of ad x is x e_c, read as ``left_mul_matrix`` reads it, after checking x's length."""
    sx = {q: int_if_integral(v) for q, v in sparse_vector_in(tuple(map(as_scalar, x)), alg.dim).items()}
    powers = [[{c: 1} for c in range(alg.dim)]]  # the columns of (ad x)^k, k = 0, 1, ...
    while any(powers[-1]):
        if len(powers) > alg.dim:
            return None
        powers.append([sparse_product(alg.rows, sx, col) for col in powers[-1]])
    weights = [int_if_integral(Fraction(1, factorial(k))) for k in range(len(powers))]
    return tuple([sparse_lincomb(*((sign ** k * w, p[c]) for k, (w, p) in enumerate(zip(weights, powers))))
                  for c in range(alg.dim)] for sign in (1, -1))


def conjugate(alg: AlgebraSpec, phi: Matrix, x: Sequence[Fraction]) -> Matrix:
    """exp(-ad x) . phi . exp(ad x) for ad-nilpotent x (exact finite sums)."""
    _require_lie(alg, "conjugate")
    pair = _exp_ad(alg, x)
    if pair is None:
        raise ValueError("ad(x) is not nilpotent within dim iterations")
    if phi.shape != (alg.dim, alg.dim):
        raise ValueError("map shape does not match the algebra")
    return Matrix.unflatten(_sandwich(pair[1], phi.sparse_flatten(), pair[0]), alg.dim, alg.dim)

"""Finite-dimensional algebras given by structure constants.

An :class:`AlgebraSpec` is a bilinear product on Q^dim recorded as an index
of its basis products by left factor, ``rows[i][j] = ((k, coefficient),
...)``, together with a declared flavor.  Construction validates the laws
the flavor promises (anticommutativity and Jacobi for ``lie``,
commutativity and associativity for ``commutative-associative``, ...), so
downstream code can rely on them.
A build whose laws follow from a theorem about its validated inputs (a span
of matrices closed under the commutator, a central extension by a verified
cocycle, ...) is certified by that proof instead of a scan of every basis
triple.

In a degree window (``constructions.km_window``) the index maps undefined
products to None; ``product_on_basis``, ``sparse_product`` and the term
builders raise a ValueError naming the pair (``UndefinedProduct``) instead
of reading such a product as zero.  A window imposes an equation exactly
when evaluating it raises nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, product
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import (
    Matrix,
    SpanSolver,
    SparseVector,
    Subspace,
    Vector,
    _entry,
    dense_vector,
    int_if_integral,
    nullspace_of_rows,
    sparse_lincomb,
    sparse_vector_in,
)

FLAVORS = (
    "lie",
    "commutative-associative",
    "generic-anticommutative",
    "generic-commutative",
    "unchecked",
)

# The largest algebra dim accepted from input, a builtin name or a file: a
# law check visits C(dim, 3) basis triples and a solve has dim^2 unknowns,
# and E8 (dim 248) still fits.
MAX_DIM = 256

ANTICOMMUTATIVE_FLAVORS = ("lie", "generic-anticommutative")
COMMUTATIVE_FLAVORS = ("commutative-associative", "generic-commutative")


class LawViolation(ValueError):
    """A declared algebra law fails; carries a witness tuple and residual."""

    def __init__(self, law: str, witness: tuple[int, ...], residual: Vector):
        self.law = law
        self.witness = witness
        self.residual = residual
        shown = ", ".join(f"{x.numerator}/{x.denominator}" for x in residual)
        super().__init__(f"{law} fails on basis tuple {witness}: residual ({shown})")


_Index = Sequence[Mapping[int, Sequence[tuple[int, int | Fraction]] | None]]  # [p][q]: e_p e_q, None: undefined


class UndefinedProduct(ValueError):
    """An undefined (None) basis product e_i e_j was read; ``pair`` is (i, j).
    The message is built only when it is shown: a window solve raises and
    catches one for every equation it does not impose."""

    def __init__(self, i: int, j: int):
        super().__init__(i, j)
        self.pair = (i, j)

    def __str__(self) -> str:
        i, j = self.pair
        return f"the basis product ({i}, {j}) is undefined: it leaves the degree window"


def _undefined(i: int, j: int) -> UndefinedProduct:
    return UndefinedProduct(i, j)


def sparse_product(rows: _Index, u: Mapping[int, Fraction], v: Mapping[int, Fraction]) -> SparseVector:
    """u*v for sparse vectors, read straight from a product index: each
    pair of nonzero coordinates (i, j) contributes ``rows[i][j]``.
    Reading an undefined product (None) raises ValueError."""
    out: dict[int, Fraction] = {}
    for i, ui in u.items():
        for j, vj in v.items():
            terms = rows[i].get(j, ())
            if terms is None:
                raise _undefined(i, j)
            for k, c in terms:
                out[k] = out.get(k, 0) + ui * vj * c
    return {k: c for k, c in out.items() if c}


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """A structure-constant algebra, validated by ``make_algebra`` or
    certified Lie by a theorem (``_lie_by_theorem``, ``km_window``).

    ``rows``, the one store of its products, maps q ascending to the terms
    of e_p e_q at ``rows[p]`` ((k, c), k ascending, integral c as ints), or
    to None where the product is undefined; a zero product has no entry."""

    dim: int
    basis_names: tuple[str, ...]
    rows: tuple[dict[int, tuple[tuple[int, int | Fraction], ...] | None], ...] = field(repr=False)
    flavor: str
    grading: tuple[int, ...] | None = None
    # present when tensor_lie demotes a would-be Lie algebra: a basis triple
    # with nonzero Jacobi residual
    jacobi_witness: tuple[int, int, int] | None = None

    @cached_property
    def _solved(self) -> dict:
        """What the solver keeps for this algebra: its compile plan and
        mirror, the forms f_t checked, and the blocks, spaces and window
        solutions it solved.  An algebra is immutable, so they stay valid,
        and they go with the algebra."""
        return {}

    @property
    def table(self) -> Mapping[tuple[int, int], tuple[tuple[int, int | Fraction], ...] | None]:
        """``rows`` read by pair: a read-only view for readers outside the package."""
        return _Pairs(self.rows)

    def product_on_basis(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """The terms of e_i e_j; ValueError when it is undefined (None)."""
        terms = self.rows[i].get(j, ())
        if terms is None:
            raise _undefined(i, j)
        return terms

    def multiply(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        """Bilinear extension of the basis products to arbitrary vectors."""
        n = self.dim
        return dense_vector(sparse_product(self.rows, sparse_vector_in(u, n), sparse_vector_in(v, n)), n)

    def basis_vector(self, i: int) -> Vector:
        return _basis_vector(i, self.dim)

    def is_anticommutative(self) -> bool:
        return self.flavor in ANTICOMMUTATIVE_FLAVORS

    def is_commutative(self) -> bool:
        return self.flavor in COMMUTATIVE_FLAVORS

    def right_mul_matrix(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> Matrix:
        """Matrix of x -> x*v in the basis."""
        sv = sparse_vector_in(v, self.dim)
        return self._columns_matrix(sparse_product(self.rows, {j: 1}, sv) for j in range(self.dim))

    def left_mul_matrix(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> Matrix:
        """Matrix of x -> v*x in the basis (``ad v`` for Lie flavors)."""
        sv = sparse_vector_in(v, self.dim)
        return self._columns_matrix(sparse_product(self.rows, sv, {j: 1}) for j in range(self.dim))

    def _columns_matrix(self, cols: Iterable[Mapping[int, Fraction]]) -> Matrix:
        return Matrix.from_sparse(self.dim, self.dim, {(i, j): c for j, col in enumerate(cols) for i, c in col.items()})


@dataclass(frozen=True, eq=False)
class _Pairs(Mapping):
    """A product index read by pair: (p, q) -> rows[p][q], pairs ascending."""

    _rows: _Index

    def __getitem__(self, pair: tuple[int, int]):
        p, q = pair
        return (self._rows[p] if 0 <= p < len(self._rows) else {})[q]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((p, q) for p, row in enumerate(self._rows) for q in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows))


def _basis_vector(i: int, dim: int) -> Vector:
    if not 0 <= i < dim:
        raise IndexError(f"basis index {i} out of range for dim {dim}")
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def _clean_table(dim: int, raw: Mapping[tuple[int, int], Iterable]) -> tuple[dict, ...]:
    """The product index of the pair-keyed ``raw``: terms summed per k, zeros dropped."""
    rows: list[dict] = [{} for _ in range(dim)]
    for (i, j), terms in raw.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"table index ({i},{j}) out of range for dim {dim}")
        acc: dict[int, int | Fraction] = {}
        for k, coeff in terms:
            if not (0 <= int(k) < dim):
                raise ValueError(f"product index {k} out of range for dim {dim}")
            c = _entry(coeff)  # an int stays an int; a sum only for a repeated k
            acc[int(k)] = acc[int(k)] + c if int(k) in acc else c
        # integral constants as ints, so rows compiled from the table are integral
        entry = tuple(sorted((k, int_if_integral(c)) for k, c in acc.items() if c))
        if entry:
            rows[i][j] = entry
    return tuple(dict(sorted(row.items())) for row in rows)


def _check_laws(alg: AlgebraSpec) -> None:
    """Check the flavor's laws on every basis tuple, walking the index; the
    first failing tuple (in lexicographic order) is the witness."""
    n, rows = alg.dim, alg.rows

    def e(i: int, j: int) -> SparseVector:  # e_i e_j
        return dict(rows[i].get(j, ()))

    def require(law: str, witness: tuple[int, ...], residual: SparseVector) -> None:
        if residual:
            raise LawViolation(law, witness, dense_vector(residual, n))

    if alg.flavor in ANTICOMMUTATIVE_FLAVORS:
        for i in range(n):
            for j in range(i, n):
                require("anticommutativity", (i, j), sparse_lincomb((1, e(i, j)), (1, e(j, i))))
    if alg.flavor in COMMUTATIVE_FLAVORS:
        for i in range(n):
            for j in range(i + 1, n):
                require("commutativity", (i, j), sparse_lincomb((1, e(i, j)), (-1, e(j, i))))
    if alg.flavor == "lie":
        ident = [{z: z} for z in range(n)]  # Jacobi is Hom-Jacobi at phi = id: e_z -> e_z at column z
        ones = dict.fromkeys(range(n), 1)
        for i, j, k in _jacobi_triples(alg):
            require("jacobi", (i, j, k), _evaluate(_hom_terms(alg.rows, alg.rows, (1, 1, 1), i, j, k, ident), ones))
    if alg.flavor == "commutative-associative":
        for i in range(n):
            for j in range(n):
                ij = e(i, j)
                for k in range(n):
                    lhs = sparse_product(rows, ij, {k: 1})
                    rhs = sparse_product(rows, {i: 1}, e(j, k))
                    require("associativity", (i, j, k), sparse_lincomb((1, lhs), (-1, rhs)))
    if alg.grading is not None:
        if len(alg.grading) != n:
            raise ValueError("grading must assign a degree to every basis vector")
        for i, row in enumerate(rows):
            for j, terms in row.items():
                want = alg.grading[i] + alg.grading[j]
                for k, _ in terms:
                    if alg.grading[k] != want:
                        require("grading", (i, j, k), dict(terms))


# The identities' terms: the solver compiles them into rows, the validators
# evaluate them.  One equation group is a run of (row key, column, coefficient)
# terms, and the terms that share a row key sum to one linear form.
_Terms = Iterable[tuple[object, int, Fraction]]


def _evaluate(terms: _Terms, x: Mapping[int, int | Fraction]) -> dict[object, int | Fraction]:
    """The forms ``terms`` sum to at the point x (column -> value, absent
    columns 0): the sum of coeff * x[col] per row key, zero sums dropped."""
    out: dict[object, int | Fraction] = {}
    for key, col, c in terms:
        if col in x:
            out[key] = out.get(key, 0) + c * x[col]
    return {key: v for key, v in out.items() if v}


def _hom_terms(rows: _Index, second: _Index, signs: Sequence[int], a: int, b: int, c: int,
               col_of: Sequence[Mapping[int, int]] | Mapping[int, Mapping[int, int]]) -> _Terms:
    """The terms of (ab)phi(c) + s1 (ca)phi(b) + s2 (bc)phi(a) at the basis
    triple (a, b, c) by output coordinate, one term per sign of ``signs`` =
    (1, s1, s2) or a prefix of it, for an unknown map phi with phi(e_z) ->
    e_q at column ``col_of[z][q]``, e_x e_y read from the index ``rows``
    (``AlgebraSpec.rows``) and e_p e_q from ``second``: ``rows`` again, or a
    form's pairing (``_pairing``).  A term reads e_x e_y, and e_p e_q for
    every p in it and q in ``col_of[z]``: it walks the row e_p e_* filtered
    by ``col_of[z]`` or looks ``col_of[z]`` up in the row, whichever is
    shorter, so the zero products of a long image are never looked up.
    Both walks go through q ascending, the order of the row and of every
    caller's ``col_of[z]``, so the terms come in one order.  Reading an
    undefined product raises ``UndefinedProduct``, as ``product_on_basis``
    does (both walks read it exactly when its q is in ``col_of[z]``), so a
    caller imposes the equation exactly when evaluating it raises nothing.

    The symmetry lemmas.  Let e_j e_i = sigma e_i e_j on the basis, with
    sigma = -1 on an anticommutative table and 1 on a commutative one
    (``make_algebra`` validates the law for those flavors; ``km_window``
    builds it, undefined products included: e_i e_j and e_j e_i are both
    None or neither).  Write J, C and N for the forms of the signs (1, 1, 1),
    (1, -1) and (1,): the Hom-Jacobiator, the Hom-cyclic identity and the
    Hom-2-nilpotent one.  As forms in phi, output coordinate by coordinate:
    - J(b, a, c) = (ba)phi(c) + (cb)phi(a) + (ac)phi(b) = sigma J(a, b, c),
      and every other transposition of (a, b, c) acts the same way, so J is
      alternating when sigma = -1 (the alternation lemma) and totally
      symmetric when sigma = 1.
    - C(a, c, b) = (ac)phi(b) - (ba)phi(c) = -sigma C(a, b, c).
    - N(b, a, c) = (ba)phi(c) = sigma N(a, b, c).
    A swap that multiplies the forms by -1 and exchanges two equal arguments
    fixes the triple, so its forms are their own negatives and vanish: J
    with two equal arguments when sigma = -1, C(a, b, b) when sigma = 1,
    and N(a, a, c) when sigma = -1.  So in an orbit of the triple under
    these swaps, the forms of every triple are plus or minus those of the
    one whose swapped arguments are in order, and all of them are zero when
    that one has two equal swapped arguments and the swap changes the sign.
    These lemmas and the two below use only the law of the first product:
    e_p e_q is never swapped, so they hold whatever table ``second`` is.

    The cyclic lemma.  On an anticommutative table, e_b e_b is () where it
    is defined (``make_algebra`` checks e_i e_i = 0, and ``km_window``
    writes no diagonal entry).  There C(a, b, b) = (ab)phi(b) - (ba)phi(b)
    = 2 (ab)phi(b) and C(b, a, b) = (ba)phi(b) - (bb)phi(a) = -(ab)phi(b),
    that is C(a, b, b) = -2 C(b, a, b), and C(b, a, b) = C(b, b, a) by the
    swap of its last two arguments.  In a window both triples read e_a e_b
    or e_b e_a, which are undefined together, and e_p e_q for the same p
    (those of e_a e_b) and the same q (those phi(e_b) may reach);
    C(b, a, b) also reads e_b e_b = (), which reads nothing further.  So
    evaluating C(a, b, b) raises exactly when evaluating C(b, a, b) does,
    and a window imposes both or neither.  Where e_b e_b is undefined,
    C(b, a, b) is never imposed and C(a, b, b) may be, so no lemma drops it.

    The window lemma.  Under each of those swaps the terms (x, y, z) of the
    triple, a product e_x e_y against phi(e_z), go to the terms (y, x, z)
    or (x, y, z) of the image triple: J(a, b, c)'s (a, b, c), (c, a, b),
    (b, c, a) become (b, a, c), (a, c, b), (c, b, a), C's (a, b, c),
    (c, a, b) become (b, a, c), (a, c, b), and N's one term becomes
    (b, a, c).  e_y e_x is undefined exactly when e_x e_y is, and otherwise
    it is sigma e_x e_y, with the same basis vectors p.  So, when phi(e_z)
    ranges over the q of degree deg z + shift, every triple of an orbit
    reads the same products e_x e_y and e_p e_q, and evaluating one raises
    exactly when evaluating any other does: a window imposes all of the
    orbit's equations or none of them."""
    for (x, y, z), sign in zip(((a, b, c), (c, a, b), (b, c, a)), signs):
        xy = rows[x].get(y, ())
        if xy is None:
            raise _undefined(x, y)
        image = col_of[z]
        for p, w in xy:
            w = sign * w
            row = second[p]
            if len(row) < len(image):  # the two walks are spelled out: this is the compiler's inner loop
                for q, pq in row.items():
                    col = image.get(q)
                    if col is None:
                        continue
                    if pq is None:
                        raise _undefined(p, q)
                    for m, cpq in pq:
                        yield m, col, w * cpq
            else:
                for q, col in image.items():
                    pq = row.get(q, ())
                    if pq is None:
                        raise _undefined(p, q)
                    for m, cpq in pq:
                        yield m, col, w * cpq


def _jacobi_triples(alg: AlgebraSpec) -> Iterator[tuple[int, int, int]]:
    """The basis triples that decide the Hom-Jacobi identity J, in
    lexicographic order: a < b < c on an anticommutative table, a <= b <= c
    on a commutative one, every ordered triple otherwise.  Proof: by the
    symmetry lemmas in ``_hom_terms`` J at any triple is sigma^k times J at
    its sorted rearrangement, and zero with two equal arguments when sigma
    = -1.  So J vanishes on every ordered triple exactly when it vanishes
    on these, and the first failing one is among them."""
    n = alg.dim
    if alg.is_anticommutative():
        return combinations(range(n), 3)
    return combinations_with_replacement(range(n), 3) if alg.is_commutative() else product(range(n), repeat=3)


def _leibniz_pairs(alg: AlgebraSpec) -> Iterator[tuple[int, int]]:
    """The basis pairs the Leibniz identity is imposed on: i < j on an
    anticommutative table, i <= j on a commutative one, every ordered pair
    otherwise.  Proof, for e_j e_i = sigma e_i e_j on the basis: every
    product in the defect X(e_i e_j) - delta (Y(e_i) e_j + e_i Y(e_j))
    changes by sigma when its factors swap, so the defect at (j, i) is
    sigma times the one at (i, j), and at (i, i) it is 0 when sigma = -1.
    So the first failing ordered pair has i < j, or i <= j when sigma = 1."""
    n = alg.dim
    if alg.is_anticommutative():
        return combinations(range(n), 2)
    return combinations_with_replacement(range(n), 2) if alg.is_commutative() else product(range(n), repeat=2)


def _leibniz_terms(rows: _Index, i: int, j: int, outer: Sequence[Mapping[int, int]], inner: Sequence[Mapping[int, int]],
                   delta: int | Fraction) -> _Terms:
    """The terms of X(e_i e_j) - delta*(Y(e_i) e_j + e_i Y(e_j)) by output
    coordinate, for unknown maps X and Y with X(e_c) -> e_q at column
    ``outer[c][q]`` and Y(e_c) -> e_q at column ``inner[c][q]``, read from
    the product index ``rows`` as ``_hom_terms`` reads it: e_i Y(e_j) walks
    the row e_i e_* filtered by ``inner[j]``, q ascending, so its zero
    products are never looked up.  Reading an undefined product raises
    ``UndefinedProduct``."""
    ij = rows[i].get(j, ())
    if ij is None:
        raise _undefined(i, j)
    for k, c in ij:
        for m, col in outer[k].items():
            yield m, col, c
    for q, col in inner[i].items():  # Y(e_i) = sum_q Y[q][i] e_q
        qj = rows[q].get(j, ())
        if qj is None:
            raise _undefined(q, j)
        for k, c in qj:
            yield k, col, -delta * c
    image = inner[j]
    for q, iq in rows[i].items():
        col = image.get(q)
        if col is None:
            continue
        if iq is None:
            raise _undefined(i, q)
        for k, c in iq:
            yield k, col, -delta * c


# The form kinds ``solver.solve_bilinear`` solves from these terms, named
# here so that the command line lists them without loading the solver.
BILINEAR_KINDS = (
    "asym-cocycle",
    "skew-cocycle",
    "sym-cocycle",
    "coboundary",
    "b-space",
    "sym-invariant",
)


def _pairing(form_rows: Sequence[Mapping[int, int | Fraction]]) -> list[dict[int, tuple[tuple[int, int | Fraction]]]]:
    """The form xi with sparse rows ``form_rows`` as a product index: e_p e_q
    = xi(e_p, e_q) e_0.  ``_hom_terms`` with it as ``second`` gives the terms
    of xi(xy, f(z)) + s1 xi(zx, f(y)) + s2 xi(yz, f(x)) for an unknown map f."""
    return [{q: ((0, w),) for q, w in sorted(row.items())} for row in form_rows]


def _invariance_terms(rows: _Index, i: int, j: int, k: int) -> _Terms:
    """The terms of f(xy, z) - f(x, yz) at the basis triple (i, j, k), for
    an unknown form f with f(e_p, e_q) at column p*n + q, read from the
    index ``rows``; an undefined product raises ``UndefinedProduct``."""
    n = len(rows)
    ij, jk = rows[i].get(j, ()), rows[j].get(k, ())
    if ij is None or jk is None:
        raise _undefined(*((i, j) if ij is None else (j, k)))
    for p, c in ij:
        yield 0, p * n + k, c
    for p, c in jk:
        yield 0, i * n + p, -c


def make_algebra(
    dim: int,
    table: Mapping[tuple[int, int], Iterable],
    *,
    basis_names: Sequence[str] | None = None,
    flavor: str = "unchecked",
    grading: Sequence[int] | None = None,
    jacobi_witness: tuple[int, int, int] | None = None,
) -> AlgebraSpec:
    """Build and validate an algebra from a structure-constant table."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    names = tuple(basis_names) if basis_names is not None else tuple(f"e{i}" for i in range(dim))
    if len(names) != dim:
        raise ValueError("basis_names length must equal dim")
    alg = AlgebraSpec(
        dim=dim,
        basis_names=names,
        rows=_clean_table(dim, table),
        flavor=flavor,
        grading=tuple(grading) if grading is not None else None,
        jacobi_witness=jacobi_witness,
    )
    _check_laws(alg)
    return alg


def _lie_by_theorem(dim: int, table: Mapping[tuple[int, int], Iterable], names: Sequence[str]) -> AlgebraSpec:
    """A ``lie`` algebra whose laws a theorem guarantees: the table is
    cleaned as ``make_algebra`` cleans it, and the law scan is skipped.

    Each caller proves in its docstring that its table is anticommutative
    and satisfies Jacobi, from inputs it has validated.  These callers and
    ``km_window`` are the only builds that skip the scan (a tier-1 test
    keeps that set closed); user tables, hand tables and tensor products
    with a generic factor go through ``make_algebra``.
    """
    return AlgebraSpec(dim=dim, basis_names=tuple(names), rows=_clean_table(dim, table), flavor="lie")


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------


def _from_matrices(mats: Sequence[Matrix], names: Sequence[str]) -> AlgebraSpec:
    """Structure constants of an independent list of matrices whose span is
    closed under the commutator, certified Lie by theorem.

    Proof.  The list is checked independent (its rank is its length), so
    the coordinate map c from the span onto Q^n is a linear isomorphism.
    Every bracket [m_i, m_j] is checked to lie in the span, so the span is
    a subalgebra of gl_N and the table, the coordinates of the brackets, is
    its commutator carried over by c.  The commutator of matrices is
    anticommutative and satisfies Jacobi, and a linear isomorphism keeps
    both, so the table is Lie and the triple scan of ``make_algebra`` would
    find nothing.  For the same reason [m_j, m_i] = -[m_i, m_j] exactly,
    so only the brackets with i < j are computed.
    """
    n = len(mats)
    size = mats[0].rows
    flat = [m.sparse_flatten() for m in mats]
    solver = SpanSolver(flat, size * size)
    if solver.rank < n:
        raise ValueError(f"the {n} matrices are linearly dependent: their span has dim {solver.rank}")
    # E_rk E_kc = E_rc: the matrix product of flattened matrices is the
    # sparse product over the index of the matrix units
    units = tuple({k * size + c: ((r * size + c, 1),) for c in range(size)} for r in range(size) for k in range(size))
    upper: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            bracket = sparse_lincomb(
                (1, sparse_product(units, flat[i], flat[j])), (-1, sparse_product(units, flat[j], flat[i]))
            )
            coords = solver.express(bracket)
            if coords is None:
                raise ValueError(f"matrix span is not closed at pair ({i},{j})")
            if coords:
                upper[(i, j)] = list(coords.items())
    lower = {(j, i): [(k, -c) for k, c in terms] for (i, j), terms in upper.items()}
    return _lie_by_theorem(n, {**upper, **lower}, names)


def _unit_matrix(size: int, i: int, j: int) -> Matrix:
    return Matrix.from_sparse(size, size, {(i, j): 1})


def _sl2_paper_basis() -> AlgebraSpec:
    # basis (e-, h, e+) with [e-,h] = -e-, [e+,h] = e+, [e-,e+] = h
    table = {
        (0, 1): [(0, -1)],
        (1, 0): [(0, 1)],
        (2, 1): [(2, 1)],
        (1, 2): [(2, -1)],
        (0, 2): [(1, 1)],
        (2, 0): [(1, -1)],
    }
    return make_algebra(3, table, basis_names=("e-", "h", "e+"), flavor="lie")


def _sl(n: int) -> AlgebraSpec:
    if n < 2:
        raise ValueError("sl requires n >= 2")
    if n == 2:
        return _sl2_paper_basis()
    mats: list[Matrix] = []
    names: list[str] = []
    for i in range(n - 1):
        mats.append(Matrix.from_sparse(n, n, {(i, i): 1, (i + 1, i + 1): -1}))
        names.append(f"H{i + 1}")
    for i in range(n):
        for j in range(n):
            if i != j:
                mats.append(_unit_matrix(n, i, j))
                names.append(f"E{i + 1}{j + 1}")
    return _from_matrices(mats, names)


def _gl(n: int) -> AlgebraSpec:
    if n < 1:
        raise ValueError("gl requires n >= 1")
    mats = [_unit_matrix(n, i, j) for i in range(n) for j in range(n)]
    names = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return _from_matrices(mats, names)


def _so(n: int) -> AlgebraSpec:
    # skew-symmetric n x n matrices, basis E_ij - E_ji for i < j
    if n < 2:
        raise ValueError("so requires n >= 2")
    mats = []
    names = []
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(Matrix.from_sparse(n, n, {(i, j): 1, (j, i): -1}))
            names.append(f"M{i + 1}{j + 1}")
    return _from_matrices(mats, names)


def _sp(n: int) -> AlgebraSpec:
    # X with X^T J + J X = 0 for J = [[0, I], [-I, 0]]; X = [[A, B], [C, -A^T]]
    # with B, C symmetric
    if n < 2 or n % 2:
        raise ValueError("sp requires an even parameter >= 2")
    m = n // 2
    mats = []
    names = []
    for i in range(m):
        for j in range(m):
            mats.append(Matrix.from_sparse(n, n, {(i, j): 1, (m + j, m + i): -1}))
            names.append(f"A{i + 1}{j + 1}")
    for i in range(m):
        for j in range(i, m):
            entries = {(i, m + j): 1} if i == j else {(i, m + j): 1, (j, m + i): 1}
            mats.append(Matrix.from_sparse(n, n, entries))
            names.append(f"B{i + 1}{j + 1}")
    for i in range(m):
        for j in range(i, m):
            entries = {(m + i, j): 1} if i == j else {(m + i, j): 1, (m + j, i): 1}
            mats.append(Matrix.from_sparse(n, n, entries))
            names.append(f"C{i + 1}{j + 1}")
    return _from_matrices(mats, names)


def _heisenberg() -> AlgebraSpec:
    table = {(0, 1): [(2, 1)], (1, 0): [(2, -1)]}
    return make_algebra(3, table, basis_names=("x", "y", "z"), flavor="lie")


def _abelian(n: int) -> AlgebraSpec:
    if n < 0:
        raise ValueError("abelian requires n >= 0")
    return make_algebra(n, {}, basis_names=tuple(f"a{i + 1}" for i in range(n)), flavor="lie")


def _nonabelian2() -> AlgebraSpec:
    table = {(0, 1): [(0, 1)], (1, 0): [(0, -1)]}
    return make_algebra(2, table, basis_names=("x", "y"), flavor="lie")


def _trunc_poly(m: int) -> AlgebraSpec:
    # K[t]/(t^m), basis 1, t, ..., t^(m-1), graded by degree
    if m < 1:
        raise ValueError("trunc_poly requires m >= 1")
    table = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                table[(i, j)] = [(i + j, 1)]
    names = tuple("1" if i == 0 else ("t" if i == 1 else f"t^{i}") for i in range(m))
    return make_algebra(m, table, basis_names=names, flavor="commutative-associative", grading=range(m))


def _cyclic_group_alg(m: int) -> AlgebraSpec:
    # K[t]/(t^m - 1)
    if m < 1:
        raise ValueError("cyclic_group_alg requires m >= 1")
    table = {(i, j): [((i + j) % m, 1)] for i in range(m) for j in range(m)}
    names = tuple("1" if i == 0 else ("t" if i == 1 else f"t^{i}") for i in range(m))
    return make_algebra(m, table, basis_names=names, flavor="commutative-associative")


# name -> (constructor, parameter count, the dim it builds)
_BUILTINS = {
    "sl": (_sl, 1, lambda n: n * n - 1),
    "gl": (_gl, 1, lambda n: n * n),
    "so": (_so, 1, lambda n: n * (n - 1) // 2),
    "sp": (_sp, 1, lambda n: n * (n + 1) // 2),
    "heisenberg": (_heisenberg, 0, lambda: 3),
    "abelian": (_abelian, 1, lambda n: n),
    "nonabelian2": (_nonabelian2, 0, lambda: 2),
    "trunc_poly": (_trunc_poly, 1, lambda m: m),
    "cyclic_group_alg": (_cyclic_group_alg, 1, lambda m: m),
}


def builtin(name: str, *params: int) -> AlgebraSpec:
    """Named algebra families; e.g. builtin('sl', 3) or builtin('heisenberg').
    A parameter whose algebra would have dim above ``MAX_DIM`` is rejected
    before anything is built."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin algebra {name!r}")
    fn, arity, dim_of = _BUILTINS[name]
    if len(params) != arity:
        raise ValueError(f"builtin {name!r} takes {arity} parameter(s), got {len(params)}")
    if all(p >= 0 for p in params) and dim_of(*params) > MAX_DIM:
        shown = ", ".join(map(str, params))
        raise ValueError(f"builtin {name}({shown}) has dim {dim_of(*params)}, above the bound of {MAX_DIM}")
    return fn(*params)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def parse_builtin(spec: str) -> AlgebraSpec:
    """Parse compact names like 'sl3', 'sp4', 'trunc_poly:3', 'heisenberg';
    a parameter is [0-9]+ (ASCII digits, no sign or space)."""
    if spec in _BUILTINS and _BUILTINS[spec][1] == 0:
        return builtin(spec)
    name, colon, arg = spec.partition(":")
    if not colon:
        name = next((known for known in _BUILTINS if spec.startswith(known)), spec)
        arg = spec[len(name):]
    if arg.isascii() and arg.isdigit():
        return builtin(name, int(arg))
    raise ValueError(f"cannot parse algebra name {spec!r}")


# ---------------------------------------------------------------------------
# bilinear forms and structural subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear scalar form; matrix[i][j] = f(e_i, e_j)."""

    matrix: Matrix

    def __call__(self, u: Sequence[Fraction] | Mapping[int, Fraction],
                 v: Sequence[Fraction] | Mapping[int, Fraction]) -> Fraction:
        """f(u, v) for dense vectors or sparse ones (index -> scalar)."""
        m = self.matrix
        f, su, sv = m.sparse_rows, sparse_vector_in(u, m.rows), sparse_vector_in(v, m.cols)
        return sum((x * c * sv[j] for i, x in su.items() for j, c in f[i].items() if j in sv), Fraction(0))

    def is_symmetric(self) -> bool:
        return self.matrix == self.matrix.transpose()

    def is_skew(self) -> bool:
        return self.matrix == self.matrix.transpose().scale(-1)

    def is_invariant(self, alg: AlgebraSpec) -> bool:
        """f(xy, z) == f(x, yz) on all basis triples: no ``_invariance_terms``
        row is nonzero at this form.  A triple with e_i e_j and e_j e_k both
        zero (no entry in ``rows``; an undefined one has one) has no terms."""
        n, rows = alg.dim, alg.rows
        if self.matrix.shape != (n, n):
            raise ValueError("form shape does not match the algebra")
        f = self.matrix.sparse_flatten()
        return not any(_evaluate(_invariance_terms(rows, i, j, k), f)
                       for i, j, k in product(range(n), repeat=3) if j in rows[i] or k in rows[j])


def _require_lie(alg: AlgebraSpec, op: str) -> None:
    if alg.flavor != "lie":
        raise ValueError(f"{op} requires a lie-flavor algebra, got {alg.flavor!r}")


def right_annihilator(alg: AlgebraSpec) -> Subspace:
    """{z : e_j z = 0 for every j}, read straight from the product index; a
    basis vector e_q with an undefined product e_j e_q is excluded (z_q = 0)."""
    undefined = {q for row in alg.rows for q, terms in row.items() if terms is None}
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}  # (j, m) -> coefficients of e_j z at e_m
    for j, row in enumerate(alg.rows):
        for q, terms in row.items():
            for m, c in terms or ():  # None only where q is undefined, and z_q = 0 is imposed there
                rows.setdefault((j, m), {})[q] = c
    return nullspace_of_rows(alg.dim, chain(({q: 1} for q in undefined), rows.values()))


def structural_subspaces(alg: AlgebraSpec) -> tuple[Subspace, Subspace, Subspace]:
    """(center, derived subalgebra, annihilator of the derived subalgebra)."""
    _require_lie(alg, "structural_subspaces")
    n = alg.dim
    center = right_annihilator(alg)  # [e_j, z] = 0 for all j
    products = (alg.product_on_basis(p, q) for p, row in enumerate(alg.rows) for q in row)
    derived = Subspace.from_spanning(map(dict, products), n)
    ann_derived = nullspace_of_rows(n, (row for _, w in derived.rows for row in alg.left_mul_matrix(w).sparse_rows))
    return center, derived, ann_derived


def killing_form(alg: AlgebraSpec) -> BilinearForm:
    """trace(ad e_i . ad e_j); symmetric and invariant for Lie algebras.

    With e_i e_m = sum_k c_im^k e_k, ``ad e_i`` has entry c_im^k at (k, m),
    so the trace sums c_im^k c_jk^m over the nonzero products e_i e_m of the
    index and their terms e_k; as trace(AB) = trace(BA), only for i <= j."""
    _require_lie(alg, "killing_form")
    n, e = alg.dim, alg.product_on_basis
    upper = {(i, j): sum((a * b for m in alg.rows[i] for k, a in e(i, m) for p, b in e(j, k) if p == m))
             for i in range(n) for j in range(i, n)}
    return BilinearForm(Matrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n)), n))

"""Finite-dimensional algebras given by structure constants.

An :class:`AlgebraSpec` is a bilinear product on Q^dim recorded as a table
``(i, j) -> [(k, coefficient), ...]`` for basis products, together with a
declared flavor.  Construction validates the laws the flavor promises
(anticommutativity and Jacobi for ``lie``, commutativity and associativity
for ``commutative-associative``, ...), so downstream code can rely on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    RowAccumulator,
    SpanSolver,
    Subspace,
    Vector,
    as_scalar,
    is_zero_vector,
    vec_add,
)

FLAVORS = (
    "lie",
    "commutative-associative",
    "generic-anticommutative",
    "generic-commutative",
    "unchecked",
)

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


Table = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """A validated structure-constant algebra."""

    dim: int
    basis_names: tuple[str, ...]
    table: Table = field(repr=False)
    flavor: str
    grading: tuple[int, ...] | None = None
    # present when tensor_lie demotes a would-be Lie algebra: a basis triple
    # with nonzero Jacobi residual
    jacobi_witness: tuple[int, int, int] | None = None

    def product_on_basis(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        return self.table.get((i, j), ())

    def multiply(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        """Bilinear extension of the table to arbitrary vectors."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        out = [Fraction(0)] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = ui * vj
                for k, coeff in self.table.get((i, j), ()):
                    out[k] += c * coeff
        return tuple(out)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def is_anticommutative(self) -> bool:
        return self.flavor in ANTICOMMUTATIVE_FLAVORS

    def is_commutative(self) -> bool:
        return self.flavor in COMMUTATIVE_FLAVORS

    def right_mul_matrix(self, v: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> x*v in the basis."""
        cols = [self.multiply(self.basis_vector(j), v) for j in range(self.dim)]
        return Matrix(tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim)), self.dim)

    def left_mul_matrix(self, v: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> v*x in the basis (``ad v`` for Lie flavors)."""
        cols = [self.multiply(v, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim)), self.dim)


def _clean_table(dim: int, raw: Mapping[tuple[int, int], Iterable]) -> Table:
    table: Table = {}
    for (i, j), terms in raw.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"table index ({i},{j}) out of range for dim {dim}")
        acc: dict[int, Fraction] = {}
        for k, coeff in terms:
            if not (0 <= int(k) < dim):
                raise ValueError(f"product index {k} out of range for dim {dim}")
            c = as_scalar(coeff)
            if c:
                acc[int(k)] = acc.get(int(k), Fraction(0)) + c
        entry = tuple(sorted((k, c) for k, c in acc.items() if c))
        if entry:
            table[(i, j)] = entry
    return table


def _check_laws(alg: AlgebraSpec) -> None:
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    if alg.flavor in ANTICOMMUTATIVE_FLAVORS:
        for i in range(n):
            for j in range(i, n):
                lhs = alg.multiply(basis[i], basis[j])
                rhs = alg.multiply(basis[j], basis[i])
                residual = vec_add(lhs, rhs)
                if not is_zero_vector(residual):
                    raise LawViolation("anticommutativity", (i, j), residual)
    if alg.flavor in COMMUTATIVE_FLAVORS:
        for i in range(n):
            for j in range(i + 1, n):
                lhs = alg.multiply(basis[i], basis[j])
                rhs = alg.multiply(basis[j], basis[i])
                residual = tuple(a - b for a, b in zip(lhs, rhs))
                if not is_zero_vector(residual):
                    raise LawViolation("commutativity", (i, j), residual)
    if alg.flavor == "lie":
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    residual = jacobi_residual(alg, basis[i], basis[j], basis[k])
                    if not is_zero_vector(residual):
                        raise LawViolation("jacobi", (i, j, k), residual)
    if alg.flavor == "commutative-associative":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = alg.multiply(alg.multiply(basis[i], basis[j]), basis[k])
                    rhs = alg.multiply(basis[i], alg.multiply(basis[j], basis[k]))
                    residual = tuple(a - b for a, b in zip(lhs, rhs))
                    if not is_zero_vector(residual):
                        raise LawViolation("associativity", (i, j, k), residual)
    if alg.grading is not None:
        if len(alg.grading) != n:
            raise ValueError("grading must assign a degree to every basis vector")
        for (i, j), terms in alg.table.items():
            want = alg.grading[i] + alg.grading[j]
            for k, _ in terms:
                if alg.grading[k] != want:
                    raise LawViolation(
                        "grading", (i, j, k), alg.multiply(basis[i], basis[j])
                    )


def jacobi_residual(alg: AlgebraSpec, x: Vector, y: Vector, z: Vector) -> Vector:
    """(xy)z + (zx)y + (yz)x, the Jacobi defect for anticommutative products."""
    t1 = alg.multiply(alg.multiply(x, y), z)
    t2 = alg.multiply(alg.multiply(z, x), y)
    t3 = alg.multiply(alg.multiply(y, z), x)
    return tuple(a + b + c for a, b, c in zip(t1, t2, t3))


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
        table=_clean_table(dim, table),
        flavor=flavor,
        grading=tuple(grading) if grading is not None else None,
        jacobi_witness=jacobi_witness,
    )
    _check_laws(alg)
    return alg


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------


def _from_matrices(mats: Sequence[Matrix], names: Sequence[str], *, bracket: bool = True) -> AlgebraSpec:
    """Structure constants of a span of matrices closed under commutator."""
    n = len(mats)
    size = mats[0].rows
    solver = SpanSolver([m.flatten() for m in mats], size * size)
    table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i in range(n):
        for j in range(n):
            prod = mats[i] @ mats[j]
            if bracket:
                prod = prod - (mats[j] @ mats[i])
            coords = solver.express(prod.flatten())
            if coords is None:
                raise ValueError(f"matrix span is not closed at pair ({i},{j})")
            entry = [(k, c) for k, c in enumerate(coords) if c]
            if entry:
                table[(i, j)] = entry
    return make_algebra(n, table, basis_names=names, flavor="lie" if bracket else "unchecked")


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


_BUILTINS = {
    "sl": (_sl, 1),
    "gl": (_gl, 1),
    "so": (_so, 1),
    "sp": (_sp, 1),
    "heisenberg": (_heisenberg, 0),
    "abelian": (_abelian, 1),
    "nonabelian2": (_nonabelian2, 0),
    "trunc_poly": (_trunc_poly, 1),
    "cyclic_group_alg": (_cyclic_group_alg, 1),
}


def builtin(name: str, *params: int) -> AlgebraSpec:
    """Named algebra families; e.g. builtin('sl', 3) or builtin('heisenberg')."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin algebra {name!r}")
    fn, arity = _BUILTINS[name]
    if len(params) != arity:
        raise ValueError(f"builtin {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def parse_builtin(spec: str) -> AlgebraSpec:
    """Parse compact names like 'sl3', 'sp4', 'trunc_poly:3', 'heisenberg'."""
    if spec in _BUILTINS and _BUILTINS[spec][1] == 0:
        return builtin(spec)
    if ":" in spec:
        name, _, arg = spec.partition(":")
        return builtin(name, int(arg))
    for name in _BUILTINS:
        if spec.startswith(name) and spec[len(name):].isdigit():
            return builtin(name, int(spec[len(name):]))
    raise ValueError(f"cannot parse algebra name {spec!r}")


# ---------------------------------------------------------------------------
# bilinear forms and structural subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear scalar form; matrix[i][j] = f(e_i, e_j)."""

    matrix: Matrix

    def __call__(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return _eval_form(self.matrix, u, v)

    def is_symmetric(self) -> bool:
        return self.matrix == self.matrix.transpose()

    def is_skew(self) -> bool:
        return self.matrix == self.matrix.transpose().scale(-1)

    def is_invariant(self, alg: AlgebraSpec) -> bool:
        """f(xy, z) == f(x, yz) on all basis triples."""
        n = alg.dim
        basis = [alg.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = _eval_form(self.matrix, alg.multiply(basis[i], basis[j]), basis[k])
                    rhs = _eval_form(self.matrix, basis[i], alg.multiply(basis[j], basis[k]))
                    if lhs != rhs:
                        return False
        return True


def _eval_form(m: Matrix, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = m.data[i]
        total += ui * sum((row[j] * vj for j, vj in enumerate(v) if vj and row[j]), Fraction(0))
    return total


def _require_lie(alg: AlgebraSpec, op: str) -> None:
    if alg.flavor != "lie":
        raise ValueError(f"{op} requires a lie-flavor algebra, got {alg.flavor!r}")


def right_annihilator(alg: AlgebraSpec) -> Subspace:
    """{z : e_j z = 0 for every j}, read straight from the product table."""
    n = alg.dim
    acc = RowAccumulator(n)
    for j in range(n):
        rows: dict[int, dict[int, Fraction]] = {}  # m -> coefficients of e_j z at e_m
        for q in range(n):
            for m, c in alg.product_on_basis(j, q):
                rows.setdefault(m, {})[q] = c
        for row in rows.values():
            acc.add(row)
    return acc.nullspace()


def structural_subspaces(alg: AlgebraSpec) -> tuple[Subspace, Subspace, Subspace]:
    """(center, derived subalgebra, annihilator of the derived subalgebra)."""
    _require_lie(alg, "structural_subspaces")
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    center = right_annihilator(alg)  # [e_j, z] = 0 for all j
    derived = Subspace.from_spanning(
        [alg.multiply(basis[i], basis[j]) for i in range(n) for j in range(i + 1, n)], n
    )
    acc = RowAccumulator(n)
    for w in derived.basis.data:
        lm = alg.left_mul_matrix(w)
        for row in lm.data:
            acc.add_dense(row)
    ann_derived = acc.nullspace()
    return center, derived, ann_derived


def killing_form(alg: AlgebraSpec) -> BilinearForm:
    """trace(ad e_i . ad e_j); symmetric and invariant for Lie algebras."""
    _require_lie(alg, "killing_form")
    n = alg.dim
    ads = [alg.left_mul_matrix(alg.basis_vector(i)) for i in range(n)]
    rows = []
    for i in range(n):
        rows.append(tuple((ads[i] @ ads[j]).trace() for j in range(n)))
    return BilinearForm(Matrix(tuple(rows), n))

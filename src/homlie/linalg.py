"""Exact linear algebra over the rationals.

Stored scalars are exact: ints when integral, else ``fractions.Fraction``
(ints are far cheaper, and the two compare and hash equal); coordinates and
dense entries are handed out as Fractions.  Elimination is fraction-free on
integer-scaled sparse rows, and every subspace is kept as a reduced
row-echelon basis, so equality of subspaces is literal equality of bases.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

Scalar = Fraction
Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


# A scalar written as text: "p/q" or "p" in decimal digits, p may be negative, q > 0.
_SCALAR_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def as_scalar(x) -> Fraction:
    """Coerce ints, Fractions and strings "p/q" or "p" (no other text) to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _SCALAR_TEXT.fullmatch(x):
            raise ValueError(f"scalar {x!r} is not of the form 'p/q' (q > 0) or 'p'")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def int_if_integral(x: Fraction) -> int | Fraction:
    """x as an int when integral: int arithmetic is far cheaper than
    Fraction's, and the two compare and hash equal."""
    return x.numerator if x.denominator == 1 else x


# A sparse vector maps an index to a nonzero scalar; absent indices are zero.
SparseVector = dict[int, Fraction]


def sparse_vector_in(v: Sequence[Fraction] | Mapping[int, Fraction], n: int) -> SparseVector:
    """The nonzero entries of a vector of Q^n, dense or sparse, checked to have length n or its indices in range(n)."""
    if isinstance(v, Mapping):
        if v and not (0 <= min(v) and max(v) < n):
            raise ValueError(f"vector dimension mismatch: an index outside range({n})")
        return {j: x for j, x in v.items() if x}
    if len(v) != n:
        raise ValueError(f"vector dimension mismatch: length {len(v)}, not {n}")
    return {j: x for j, x in enumerate(v) if x}


def dense_vector(v: Mapping[int, Fraction], n: int) -> Vector:
    out = [_ZERO] * n
    for j, x in v.items():
        out[j] = Fraction(x)
    return tuple(out)


def sparse_lincomb(*terms: tuple[Fraction | int, Mapping[int, Fraction]]) -> SparseVector:
    """The sum of c * v over the (c, v) terms, zero entries dropped."""
    out: dict[int, Fraction] = {}
    for c, v in terms:
        for j, x in v.items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def _entry(x) -> int | Fraction:
    """A matrix entry as ``Matrix`` stores it: an int as itself, anything else through ``as_scalar``."""
    return x if type(x) is int else as_scalar(x)


@dataclass(frozen=True, init=False)
class Matrix:
    """Immutable matrix of exact scalars, stored as sparse rows.

    ``sparse_rows[i]`` maps a column to the nonzero entry of row i, an int
    when integral (int arithmetic is far cheaper than Fraction's, and the
    two compare and hash equal), and cannot be changed.  ``cols`` is stored
    explicitly so that matrices with zero rows keep their width.  ``data``
    is the dense tuple of row tuples of Fractions, built on first use.
    """

    sparse_rows: tuple[Mapping[int, int | Fraction], ...]
    cols: int

    def __init__(self, data: Iterable[Iterable], cols: int):
        """The matrix with dense rows ``data`` of length ``cols``; entries are coerced by ``_entry``."""
        rows = [tuple(map(_entry, r)) for r in data]
        if any(len(r) != cols for r in rows):
            raise ValueError(f"ragged rows: a row's length is not {cols}")
        self._store(map(enumerate, rows), cols)

    def _store(self, rows: Iterable[Iterable[tuple[int, int | Fraction]]], cols: int) -> None:
        """Set the fields from (column, entry) pairs per row, zeros dropped."""
        frozen = tuple(MappingProxyType({j: x.numerator if x.denominator == 1 else x for j, x in r if x}) for r in rows)
        object.__setattr__(self, "sparse_rows", frozen)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _of(cls, rows: Iterable[Mapping[int, int | Fraction]], cols: int) -> "Matrix":
        """The matrix with these sparse rows of exact scalars (zeros allowed)."""
        m = cls.__new__(cls)
        m._store((r.items() for r in rows), cols)
        return m

    def __hash__(self) -> int:
        return hash((self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "Matrix":
        data = [tuple(row) for row in rows]
        if data:
            if cols is not None and cols != len(data[0]):
                raise ValueError("explicit cols disagrees with row width")
            cols = len(data[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(data, cols)

    @classmethod
    def from_sparse(cls, rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "Matrix":
        table: list[dict[int, int | Fraction]] = [{} for _ in range(rows)]
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            table[i][j] = _entry(x)
        return cls._of(table, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(({i: 1} for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([{}] * rows, cols)

    @cached_property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(r[j]) if j in r else _ZERO for j in range(self.cols)) for r in self.sparse_rows)

    @cached_property
    def sparse_cols(self) -> tuple[Mapping[int, int | Fraction], ...]:
        """The sparse rows of the transpose: column j as row -> entry, built on first use."""
        return self.transpose().sparse_rows

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.sparse_rows), self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        x = self.sparse_rows[i].get(range(self.cols)[j], _ZERO)
        return x if type(x) is Fraction else Fraction(x)

    def transpose(self) -> "Matrix":
        out: list[dict[int, int | Fraction]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for j, x in r.items():
                out[j][i] = x
        return Matrix._of(out, self.rows)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        sv = sparse_vector_in(v, self.cols)
        return tuple(Fraction(sum(x * sv[j] for j, x in r.items() if j in sv)) for r in self.sparse_rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        b = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            row: dict[int, int | Fraction] = {}
            for t, x in r.items():
                for c, y in b[t].items():
                    row[c] = row.get(c, 0) + x * y
            out.append(row)
        return Matrix._of(out, other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        pairs = zip(self.sparse_rows, other.sparse_rows)
        return Matrix._of((sparse_lincomb((1, r), (sign, s)) for r, s in pairs), self.cols)

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix._of(({j: c * x for j, x in r.items()} for r in self.sparse_rows), self.cols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) is self[i][j] * other."""
        w = other.cols
        rows = ({j * w + q: x * y for j, x in r.items() for q, y in s.items()}
                for r in self.sparse_rows for s in other.sparse_rows)
        return Matrix._of(rows, self.cols * w)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(r.get(i, 0) for i, r in enumerate(self.sparse_rows)))

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def flatten(self) -> Vector:
        """Row-major vectorization."""
        return tuple(a for r in self.data for a in r)

    def sparse_flatten(self) -> SparseVector:
        """``flatten`` as a sparse vector: entry (i, j) at index i * cols + j."""
        w = self.cols
        return {i * w + j: x for i, r in enumerate(self.sparse_rows) for j, x in r.items()}

    @classmethod
    def unflatten(cls, v: Sequence[Fraction] | Mapping[int, Fraction], rows: int, cols: int) -> "Matrix":
        """The matrix whose ``flatten`` is v, given dense or sparse (index -> scalar)."""
        if not isinstance(v, Mapping):
            if len(v) != rows * cols:
                raise ValueError("vector length does not match shape")
            v = dict(enumerate(v))
        return cls.from_sparse(rows, cols, {divmod(j, cols): x for j, x in v.items()})

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(str(a) for a in r) + "]" for r in self.data)


# ---------------------------------------------------------------------------
# fraction-free sparse elimination
# ---------------------------------------------------------------------------

IntRow = dict  # column -> nonzero int


def _normalize_content(row: IntRow) -> None:
    content = 0
    for v in row.values():
        content = gcd(content, v)
        if content == 1:
            return
    if content > 1:
        for c in row:
            row[c] //= content


def _clear(work: IntRow, piv: IntRow, c: int) -> None:
    """Clear column c of ``work`` by ``piv`` (both hold c), in integers and
    in place: the one integer elimination step.  work is kept up to scale:
    g takes a's sign so that ca > 0, and ca is 1 when a divides b (a = 1: no gcd)."""
    a, b = piv[c], work[c]
    if a == 1:
        cb = b
    else:
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        ca, cb = a // g, b // g
        if ca != 1:
            for j in work:
                work[j] *= ca
    for j, v in piv.items():
        n = work.get(j, 0) - v * cb
        if n:
            work[j] = n
        else:
            del work[j]


class RowAccumulator:
    """Incremental echelon form for a stream of sparse rational rows.

    Pivot rows are integer dicts with the content divided out, indexed by
    their leading column; when a cheaper pivot (smaller leading magnitude)
    arrives for an occupied column, it replaces the stored one, which keeps
    coefficient growth down on large systems.  A row that repeats the span
    so far reduces to zero against the pivots, so no other record of the
    rows seen is kept.

    The pivot dicts belong to the accumulator: a row is reduced in place,
    and a pivot that a cheaper one replaces becomes the row being reduced.
    Nothing outside this module reads them; other modules ask ``rank`` and
    ``free_col``.

    ``columns``, ascending, are the unknowns of the system: the rows added
    hold no other column.  The full-rank count, ``free_col`` and
    ``nullspace`` read only them; a vector of the kernel is 0 on every other
    column of Q^ncols.
    """

    def __init__(self, ncols: int, columns: Sequence[int] | None = None):
        self.ncols = ncols
        self.columns = range(ncols) if columns is None else columns
        self.pivots: dict[int, IntRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_col(self, k: int) -> int:
        """The lowest place >= k in ``columns`` whose column is not a pivot,
        ``len(columns)`` when there is none (with every column listed, place
        and column are one).  A column never stops being a pivot, so a
        caller that asks again from the last answer never misses one."""
        pivots, columns, end = self.pivots, self.columns, len(self.columns)
        while k < end and columns[k] in pivots:
            k += 1
        return k

    def add(self, row: Mapping[int, Fraction] | IntRow) -> bool:
        """Insert one row (never changed); returns True if the rank grew.
        A one-entry row is read in place, a longer one copied (zeros dropped).

        A row with one nonzero entry, at c, is e_c up to scale.  A pivot
        with one entry at c is e_c too, so such a row repeats it.  A longer
        pivot at c is e_c plus its tail beyond c; e_c takes its place, and
        the rank grows exactly when that tail is independent of the other
        pivots.
        """
        work = row
        if len(row) != 1 or 0 in row.values():
            work = dict(row)
            if 0 in work.values():
                work = {c: v for c, v in work.items() if v}
        if len(work) != 1:
            for v in work.values():
                if type(v) is not int:
                    # an int's denominator is 1, so one expression clears both kinds of entry
                    denom = lcm(*[v.denominator for v in work.values()])
                    work = {c: v.numerator * (denom // v.denominator) for c, v in work.items()}
                    break
            return self._insert(work)
        (c,) = work
        piv = self.pivots.get(c)
        if piv is not None and len(piv) == 1:
            return False
        self.pivots[c] = {c: 1}
        if piv is None:
            return True
        del piv[c]
        return self._insert(piv)

    def _insert(self, work: IntRow) -> bool:
        """Reduce ``work``, an integer row this accumulator owns, in place by
        the pivots; True if it ends as a new pivot."""
        pivots = self.pivots
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None or abs(work[lead]) < abs(piv[lead]):
                _normalize_content(work)
                pivots[lead] = work
                if piv is None:
                    return True
                work, piv = piv, work
            _clear(work, piv, lead)
        return False

    def _reduced_rows(self) -> list[tuple[int, dict[int, int | Fraction]]]:
        """Back-substituted rows with unit pivots, ordered by pivot column.

        Row p is cleared at each later pivot column q it holds by the
        already reduced row q, in integers: row q is zero at every other
        pivot column, so no step brings back a pivot column cleared before.
        Each row is divided by its pivot entry once, at the end, into ints
        where it divides.
        """
        pivots = self.pivots
        reduced: dict[int, IntRow] = {}
        for p in sorted(pivots, reverse=True):
            row = pivots[p]
            later = [q for q in row if q in reduced]
            if later:
                row = dict(row)
                for q in later:
                    _clear(row, reduced[q], q)
                _normalize_content(row)
            reduced[p] = row
        out = []
        for p in sorted(reduced):
            row, lead = reduced[p], reduced[p][p]
            out.append((p, {c: Fraction(v, lead) if v % lead else v // lead for c, v in row.items()}))
        return out

    def rref_matrix(self, extra_zero_rows: int = 0) -> Matrix:
        return Matrix._of([r for _, r in self._reduced_rows()] + [{}] * extra_zero_rows, self.ncols)

    def nullspace(self) -> "Subspace":
        # one kernel vector per free column f: e_f - sum of row_p[f] e_p
        kernel = {f: {f: 1} for f in self.columns if f not in self.pivots}
        for p, row in self._reduced_rows():
            for c, v in row.items():
                if c != p:
                    kernel[c][p] = -v
        return Subspace.from_spanning(kernel.values(), self.ncols)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row-echelon form of ``m`` and its rank.

    The output has the same shape as the input (zero rows padded at the
    bottom), so ``rref(rref(m)) == rref(m)``.
    """
    acc = RowAccumulator(m.cols)
    for r in m.sparse_rows:
        acc.add(r)
    return acc.rref_matrix(extra_zero_rows=m.rows - acc.rank), acc.rank


def nullspace(m: Matrix) -> "Subspace":
    """Exact kernel of ``m`` as a canonical subspace of the column space."""
    return nullspace_of_rows(m.cols, m.sparse_rows)


def nullspace_of_rows(ncols: "int | RowAccumulator", rows: Iterable[Mapping[int, Fraction]]) -> "Subspace":
    """Kernel of a (possibly huge) system given as a stream of sparse rows,
    in ``ncols`` columns, or added to ``ncols`` when it is an accumulator
    (a caller that reads the accumulator while the stream is produced).

    Stops pulling rows once the rank reaches the count of the accumulator's
    ``columns``: a full-rank system has kernel 0 whatever rows remain (read
    as the pivots' count).
    """
    acc = ncols if isinstance(ncols, RowAccumulator) else RowAccumulator(ncols)
    full, add, pivots = len(acc.columns), acc.add, acc.pivots
    for r in rows:
        if add(r) and len(pivots) == full:
            return Subspace.zero(acc.ncols)
    return acc.nullspace()


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient stored by its reduced row-echelon basis.

    ``rows`` holds (pivot, row) pairs in ascending pivot order; each row is
    sparse, has entry 1 at its pivot and 0 at every other pivot, and cannot
    be changed (the kernel writes integral entries as ints).  The reduced
    basis is unique, so two subspaces are equal as sets exactly when their
    rows are equal, which makes ``==`` a decision procedure for equality of
    spaces.  ``basis`` is the same basis as a dense matrix.
    """

    ambient: int
    rows: tuple[tuple[int, Mapping[int, int | Fraction]], ...]

    def __post_init__(self):
        """Freeze the rows and check, in time linear in their nonzeros, that
        they are the reduced basis the class promises: otherwise ``==``
        would not decide equality.  ValueError names the first bad row."""
        n, last, pivots = self.ambient, -1, {p for p, _ in self.rows}
        for p, r in self.rows:
            if p < 0 or max(r, default=p) >= n:
                raise ValueError(f"vector dimension mismatch: the row with pivot {p} has an index outside range({n})")
            if not (last < p == min(r, default=None) and r[p] == 1 and len(pivots.intersection(r)) == 1):
                raise ValueError(f"the row with pivot {p} is not a reduced echelon row: its pivots must ascend, "
                                 "and it must start at its pivot with entry 1 and be 0 at every other pivot")
            last = p
        rows = tuple((p, r if isinstance(r, MappingProxyType) else MappingProxyType(r)) for p, r in self.rows)
        object.__setattr__(self, "rows", rows)

    def __hash__(self) -> int:
        return hash((self.ambient, tuple((p, frozenset(r.items())) for p, r in self.rows)))

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence[Fraction] | Mapping[int, Fraction]], ambient: int) -> "Subspace":
        """Span of dense vectors or sparse ones (index -> scalar)."""
        acc = RowAccumulator(ambient)
        for v in vectors:
            acc.add(sparse_vector_in(v, ambient))
        return cls(ambient, acc._reduced_rows())

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple((i, {i: 1}) for i in range(ambient)))

    @property
    def basis(self) -> Matrix:
        """The reduced basis as a matrix, one row per basis vector."""
        return Matrix._of((r for _, r in self.rows), self.ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def pivot_cols(self) -> list[int]:
        return [p for p, _ in self.rows]

    @cached_property
    def _by_pivot(self) -> dict[int, tuple[int, Mapping[int, int | Fraction]]]:
        """Pivot column -> (index of its row, the row)."""
        return {p: (i, r) for i, (p, r) in enumerate(self.rows)}

    def _reduce(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> tuple[dict[int, Fraction], SparseVector]:
        """The nonzero coefficients of the rows in v (dense, or sparse as
        index -> scalar), keyed by row index, and the residual v minus their
        combination, which is empty exactly when v lies in the space.

        Every row is zero at the other rows' pivots, so the coefficient of
        the row with pivot p is v's own entry at p, and only the rows whose
        pivots v holds take part.
        """
        return self._reduce_owned(sparse_vector_in(v, self.ambient))

    def _reduce_owned(self, residual: SparseVector) -> tuple[dict[int, Fraction], SparseVector]:
        """``_reduce`` of a checked sparse copy, which it reduces in place."""
        by_pivot = self._by_pivot
        coeffs = {}
        for p in [p for p in residual if p in by_pivot]:
            i, r = by_pivot[p]
            c = coeffs[i] = residual[p]
            for j, x in r.items():
                n = residual.get(j, 0) - c * x
                if n:
                    residual[j] = n
                else:
                    del residual[j]
        return coeffs, residual

    def coords(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> Vector | None:
        """Coefficients of ``v`` (dense, or sparse as index -> scalar) in the
        echelon basis as Fractions, or None if outside."""
        coeffs, residual = self._reduce(v)
        return None if residual else dense_vector(coeffs, self.dim)

    def contains(self, v: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        return not self._reduce(v)[1]

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(not other._reduce(r)[1] for _, r in self.rows)

    def combine(self, other: "Subspace") -> tuple["Subspace", "Subspace"]:
        """Sum and intersection in one elimination (Zassenhaus block trick).

        The rows (a, a) for a in self and (b, 0) for b in other are reduced
        in 2n columns.  A reduced row with pivot p < n, cut to its first n
        columns, is a row of the sum's reduced basis; a row with pivot
        p >= n is zero on the first n columns, and shifted down by n it is a
        row of the intersection's.  Both sets are already reduced, because
        the whole system is.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient
        acc = RowAccumulator(2 * n)
        for _, r in self.rows:
            acc.add({**r, **{n + j: v for j, v in r.items()}})
        for _, r in other.rows:
            acc.add(r)
        sum_rows, int_rows = [], []
        for p, r in acc._reduced_rows():
            if p < n:
                sum_rows.append((p, {j: v for j, v in r.items() if j < n}))
            else:
                int_rows.append((p - n, {j - n: v for j, v in r.items()}))
        return Subspace(n, sum_rows), Subspace(n, int_rows)

    def sum(self, other: "Subspace") -> "Subspace":
        return self.combine(other)[0]

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.combine(other)[1]


def subspace_combine(s1: Subspace, s2: Subspace) -> tuple[Subspace, Subspace]:
    return s1.combine(s2)


class SpanSolver:
    """Expresses vectors in terms of a fixed spanning list; the coefficients
    are unique when the list is independent (``rank`` equals its length)."""

    def __init__(self, vectors: Sequence[Sequence[Fraction] | Mapping[int, Fraction]], ambient: int):
        """The spanning list is given as dense vectors or sparse ones (index -> scalar)."""
        self.ambient = ambient
        self.k = len(vectors)
        acc = RowAccumulator(ambient + self.k)
        for i, v in enumerate(vectors):
            acc.add(sparse_vector_in(v, ambient) | {ambient + i: 1})
        # a reduced row (a | b) has a = sum_i b_i v_i; past the ambient coordinates, a = 0 (a relation)
        self._space = Subspace(ambient + self.k, [(p, r) for p, r in acc._reduced_rows() if p < ambient])
        self.rank = self._space.dim

    def express(self, target: Sequence[Fraction] | Mapping[int, Fraction]) -> dict[int, Fraction] | None:
        """Coefficients c with sum(c_i * v_i) == target, as the sparse map
        i -> c_i (nonzero only, ascending i), or None; the target is a dense
        vector or a sparse one (index -> scalar).

        Reducing (target | 0) by the rows (a | b) leaves the residual
        (target - sum_r c_r a_r | -sum_r c_r b_r).  Its first part is zero at
        every pivot of the a's, the span's reduced basis, so it is 0 exactly
        when the target lies in the span, and the second part is then -c.
        The zero target is sum(0 * v_i), with nothing to reduce.
        """
        ambient = self.ambient
        target = sparse_vector_in(target, ambient)
        if not target:
            return {}
        _, residual = self._space._reduce_owned(target)
        if min(residual, default=ambient) < ambient:
            return None
        return {j - ambient: Fraction(-x) for j, x in sorted(residual.items())}


def minimal_polynomial(m: Matrix) -> Vector:
    """Coefficients c_0, ..., c_(d-1), 1 of the monic minimal polynomial of
    a square matrix: d is the smallest power with m^d in span(I, ..., m^(d-1)).
    The rows (m^i | e_i) are reduced in n^2 + n + 1 columns; the first row
    with its pivot past n^2 is a relation among I, ..., m^d (d <= n by
    Cayley-Hamilton), and it holds m^d, since the lower powers are independent.
    """
    if m.rows != m.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n, nn = m.rows, m.rows ** 2
    acc = RowAccumulator(nn + n + 1)
    power = Matrix.identity(n)
    for d in range(n + 1):
        acc.add(power.sparse_flatten() | {nn + d: 1})
        last = max(acc.pivots)
        if last >= nn:
            break
        power = power @ m
    relation = acc.pivots[last]
    return tuple(Fraction(relation.get(nn + i, 0), relation[nn + d]) for i in range(d + 1))

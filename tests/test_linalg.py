import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlie.linalg import (
    Matrix,
    RowAccumulator,
    SpanSolver,
    Subspace,
    minimal_polynomial,
    nullspace,
    nullspace_of_rows,
    rref,
    subspace_combine,
)
from shared import naive_rref

F = Fraction


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_rows(data, cols)


def test_rref_identity():
    m = Matrix.identity(3)
    r, rank = rref(m)
    assert r == m and rank == 3


def test_rref_zero():
    z = Matrix.zeros(2, 4)
    r, rank = rref(z)
    assert r == z and rank == 0


def test_rref_dependent_rows():
    r, rank = rref(Matrix.from_rows([[1, 2], [2, 4]]))
    assert rank == 1
    assert r == Matrix.from_rows([[1, 2], [0, 0]])


@settings(max_examples=120, deadline=None)
@given(int_matrices())
def test_rref_matches_naive_and_is_idempotent(m):
    r, rank = rref(m)
    naive, naive_rank = naive_rref(m.data)
    assert rank == naive_rank
    assert [list(row) for row in r.data] == naive
    r2, rank2 = rref(r)
    assert r2 == r and rank2 == rank


@settings(max_examples=120, deadline=None)
@given(int_matrices())
def test_rank_nullity_and_exact_kernel(m):
    r, rank = rref(m)
    ns = nullspace(m)
    assert rank + ns.dim == m.cols
    for v in ns.basis.data:
        assert all(x == 0 for x in m.apply(v))


def test_nullspace_examples():
    assert nullspace(Matrix.zeros(3, 3)) == Subspace.full(3)
    assert nullspace(Matrix.identity(4)).dim == 0
    ns = nullspace(Matrix.from_rows([[1, 1, 0]]))
    assert ns.dim == 2
    assert ns.contains([1, -1, 0])
    assert ns.contains([0, 0, 1])
    assert not ns.contains([1, 0, 0])


def test_streamed_rows_match_matrix_nullspace():
    rows = [{0: F(1), 2: F(-3)}, {1: F(2), 2: F(5)}, {0: F(2), 2: F(-6)}]
    dense = Matrix.from_rows([[1, 0, -3], [0, 2, 5], [2, 0, -6]])
    assert nullspace_of_rows(3, iter(rows)) == nullspace(dense)


def _rows_then_raise(rows):
    yield from rows
    raise AssertionError("a row past full rank was pulled")


def test_streamed_rows_stop_at_full_rank():
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}, {1: F(2)}]  # full rank at the third row
    assert nullspace_of_rows(2, _rows_then_raise(rows)) == Subspace.zero(2)


def test_rank_deficient_stream_is_read_to_the_end():
    pulled = []
    rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {0: F(-1), 1: F(-1)}]
    ns = nullspace_of_rows(2, (pulled.append(r) or r for r in rows))
    assert pulled == rows
    assert ns == Subspace.from_spanning([[1, -1]], 2)


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    mk = lambda: Subspace.from_spanning(
        draw(
            st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=0,
                max_size=3,
            )
        ),
        n,
    )
    return mk(), mk()


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
def test_combine_dimension_formula(pair):
    s1, s2 = pair
    total, inter = subspace_combine(s1, s2)
    assert total.dim + inter.dim == s1.dim + s2.dim
    assert s1.is_subspace_of(total) and s2.is_subspace_of(total)
    assert inter.is_subspace_of(s1) and inter.is_subspace_of(s2)


def test_combine_examples():
    s = Subspace.from_spanning([[1, 1, 0], [0, 2, 2]], 3)
    zero = Subspace.zero(3)
    total, inter = subspace_combine(s, zero)
    assert total == s and inter == zero
    total, inter = subspace_combine(s, s)
    assert total == s and inter == s
    x = Subspace.from_spanning([[1, 0]], 2)
    y = Subspace.from_spanning([[0, 1]], 2)
    total, inter = subspace_combine(x, y)
    assert total == Subspace.full(2) and inter.dim == 0


def test_contains_edge_cases():
    s = Subspace.from_spanning([[1, 1]], 2)
    assert s.contains([0, 0])
    assert Subspace.full(2).contains([7, -3])
    assert not s.contains([1, 0])
    with pytest.raises(ValueError):
        s.contains([1, 0, 0])


def test_canonical_equality_is_set_equality():
    a = Subspace.from_spanning([[1, 2, 0], [0, 0, 1]], 3)
    b = Subspace.from_spanning([[2, 4, 2], [1, 2, 5]], 3)
    assert a == b


def test_coords_are_fractions_for_integral_input():
    s = Subspace.from_spanning([[1, 0], [0, 1]], 2)
    for v in ((1, 2), {0: 1, 1: 2}, (F(1), 2)):
        coords = s.coords(v)
        assert coords == (1, 2) and all(type(c) is F for c in coords)


def test_coords_reconstruct():
    s = Subspace.from_spanning([[1, 0, 2], [0, 1, -1]], 3)
    v = (F(3), F(-2), F(8))
    coords = s.coords(v)
    assert coords is not None
    rebuilt = [F(0)] * 3
    for c, b in zip(coords, s.basis.data):
        rebuilt = [x + c * y for x, y in zip(rebuilt, b)]
    assert tuple(rebuilt) == v



@settings(max_examples=120, deadline=None)
@given(int_matrices())
def test_subspace_rows_are_the_naive_rref(m):
    s = Subspace.from_spanning(m.data, m.cols)
    naive, rank = naive_rref(m.data)
    assert [list(r) for r in s.basis.data] == naive[:rank]
    assert s.dim == rank
    assert s.pivot_cols() == [next(j for j, x in enumerate(r) if x) for r in naive[:rank]]
    for (p, row), dense in zip(s.rows, naive):
        assert row == {j: x for j, x in enumerate(dense) if x} and row[p] == 1


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
def test_sum_and_intersection_from_rows(pair):
    s1, s2 = pair
    n = s1.ambient
    total, inter = s1.sum(s2), s1.intersect(s2)
    assert total == Subspace.from_spanning(s1.basis.data + s2.basis.data, n)
    assert inter.is_subspace_of(s1) and inter.is_subspace_of(s2)
    assert total.dim + inter.dim == s1.dim + s2.dim


@settings(max_examples=120, deadline=None)
@given(subspace_pairs(), *[st.lists(small_entries, min_size=4, max_size=4)] * 2)
def test_coords_reconstruct_and_decide_membership(pair, coeffs, probe):
    s, _ = pair
    n = s.ambient
    v = tuple(sum((F(c) * b[j] for c, b in zip(coeffs, s.basis.data)), F(0)) for j in range(n))
    assert s.coords(v) == tuple(F(c) for c in coeffs[: s.dim])
    assert s.coords({j: x for j, x in enumerate(v) if x}) == s.coords(v)
    w = tuple(F(x) for x in probe[:n])
    inside = Subspace.from_spanning(s.basis.data + (w,), n) == s
    assert (s.coords(w) is not None) == inside == s.contains(w)


@settings(max_examples=120, deadline=None)
@given(int_matrices(), st.randoms(use_true_random=False))
def test_equal_spaces_hash_equal(m, rnd):
    rows = list(m.data)
    rnd.shuffle(rows)
    # another spanning set of the same space, eliminated in another order
    other = [tuple(3 * x for x in r) for r in rows]
    other += [tuple(a + b for a, b in zip(r, t)) for r, t in zip(rows, rows[1:])]
    a, b = Subspace.from_spanning(m.data, m.cols), Subspace.from_spanning(other, m.cols)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Subspace.from_spanning(a.basis.data, m.cols)}) == 1


def test_rows_cannot_be_changed_from_outside():
    s = Subspace.from_spanning([[1, 2, 0], [0, 0, 1]], 3)
    with pytest.raises(TypeError):
        s.rows[0][1][1] = F(5)
    with pytest.raises(TypeError):
        del s.rows[1][1][2]
    with pytest.raises(TypeError):
        s.rows[0] = (0, {0: F(1)})
    with pytest.raises(AttributeError):
        s.rows = ()
    assert s.basis == Matrix.from_rows([[1, 2, 0], [0, 0, 1]])

@pytest.mark.parametrize("rows", [
    ((0, {0: 1, 7: 1}),),  # an index outside range(3)
    ((-1, {-1: 1}),),
    ((1, {0: 1, 1: 1}),),  # the pivot is not the first key
    ((1, {2: 1}),),  # the pivot is not a key
    ((0, {}),),
    ((0, {0: 2}),),  # pivot entry 2
    ((1, {1: 1}), (0, {0: 1})),  # pivots descend
    ((0, {0: 1}), (0, {0: 1})),
    ((0, {0: 1, 1: 1}), (1, {1: 1})),  # row 0 is not 0 at the pivot 1
], ids=str)
def test_a_malformed_basis_is_refused(rows):
    with pytest.raises(ValueError):
        Subspace(3, rows)


def test_a_reduced_basis_is_accepted():
    space = Subspace(3, ((0, {0: 1, 2: F(1, 2)}), (1, {1: F(1), 2: -1})))
    assert space == Subspace.from_spanning([[2, 0, 1], [0, 1, -1]], 3)
    assert Subspace(0, ()).dim == 0


def test_span_solver(monkeypatch):
    solver = SpanSolver([[1, 0, 1], [0, 1, 1]], 3)
    assert solver.express([2, 3, 5]) == {0: F(2), 1: F(3)}
    assert solver.express([0, 0, 1]) is None
    # the zero target is expressed without a reduction
    monkeypatch.setattr(Subspace, "_reduce_owned", None)
    assert solver.express([0, 0, 0]) == solver.express({}) == solver.express({1: 0}) == {}
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        solver.express({3: 0})


def test_sparse_and_dense_construction_agree():
    sparse = Matrix.from_sparse(2, 3, {(0, 1): F(1, 2), (1, 2): -3})
    dense = Matrix.from_rows([[0, F(1, 2), 0], [0, 0, -3]])
    assert sparse == dense


def test_int_entries_are_kept_as_ints():
    """Both constructors store an int entry as itself and pass every other
    entry through ``as_scalar``: matrices built from ints and from the same
    Fractions are equal and hash equal, ``entry`` and ``data`` read
    Fractions, strings are parsed and a float is refused."""
    ints = [[1, 0, -2], [0, 3, 0]]
    for a, b in ((Matrix.from_rows(ints), Matrix.from_rows([[F(x) for x in r] for r in ints])),
                 (Matrix.from_sparse(2, 3, {(0, 0): 1, (1, 1): 3}), Matrix.from_sparse(2, 3, {(0, 0): F(1), (1, 1): F(3)}))):
        assert a == b and hash(a) == hash(b)
        assert all(type(x) is int for r in a.sparse_rows for x in r.values())
        assert type(a.entry(0, 0)) is Fraction and all(type(x) is Fraction for r in a.data for x in r)
    assert Matrix.from_rows([["1/2", "3"]]) == Matrix.from_sparse(1, 2, {(0, 0): "1/2", (0, 1): 3})
    with pytest.raises(TypeError):
        Matrix.from_rows([[1, 0.5]])
    with pytest.raises(TypeError):
        Matrix.from_sparse(1, 2, {(0, 1): 0.5})


def test_matrix_operations():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_rows([[2, 1], [4, 3]])
    assert a.apply((F(1), F(1))) == (F(3), F(7))
    assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert a.kron(b).shape == (4, 4)
    assert Matrix.unflatten(a.flatten(), 2, 2) == a


@settings(max_examples=120, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.one_of(st.just(0), small_entries,
                                                             st.fractions(-3, 3, max_denominator=4))), max_size=8))
def test_accumulator_clears_ints_and_fractions_alike(rows):
    # the rows as drawn, ints and Fractions mixed, and the same rows as Fractions
    mixed, fractions = RowAccumulator(6), RowAccumulator(6)
    for r in rows:
        assert mixed.add(r) == fractions.add({c: F(v) for c, v in r.items()})
    assert mixed.pivots == fractions.pivots
    assert mixed._reduced_rows() == fractions._reduced_rows()


def test_sparse_vectors_with_indices_outside_the_space_are_rejected():
    for bad in ({5: 1}, {3: 1}, {-1: 1}, {0: 1, 3: F(1, 2)}):
        with pytest.raises(ValueError, match="outside"):
            Subspace.from_spanning([bad], 3)
        with pytest.raises(ValueError, match="outside"):
            SpanSolver([{0: 1}, bad], 3)
    assert Subspace.from_spanning([{2: 1}, {}], 3).rows == ((2, {2: 1}),)
    assert SpanSolver([{2: 1}, {0: 1, 1: 1}], 3).express({0: 2, 1: 2, 2: 4}) == {0: F(4), 1: F(2)}


@pytest.mark.parametrize("bad", [[1, 2], [1, 2, 3, 4], {0: 1, 7: 1}, {-1: 1}], ids=str)
def test_vectors_of_another_space_are_refused(bad):
    # a short dense vector is not read as padded with zeros, and an index
    # out of range is an error, not a coordinate outside the space
    space, solver = Subspace.from_spanning([[1, 0, 0], [0, 1, 0]], 3), SpanSolver([[1, 0, 0], [0, 1, 0]], 3)
    for reads in (solver.express, space.coords, space.contains):
        with pytest.raises(ValueError, match="vector dimension mismatch"):
            reads(bad)
    if isinstance(bad, dict):
        with pytest.raises(ValueError, match="vector dimension mismatch"):
            Subspace(3, ((min(bad), bad),)).is_subspace_of(space)


def test_accumulator_deduplicates_and_ranks():
    acc = RowAccumulator(3)
    assert acc.add({0: F(1), 1: F(1)})
    assert not acc.add({0: F(2), 1: F(2)})  # scalar multiple
    assert acc.add({1: F(1)})
    assert acc.rank == 2


def test_minimal_polynomial():
    assert minimal_polynomial(Matrix((), 0)) == (F(1),)
    assert minimal_polynomial(Matrix.identity(3)) == (F(-1), F(1))
    assert minimal_polynomial(Matrix.zeros(2, 2)) == (F(0), F(1))
    # (x - 1)(x - 2) for diag(1, 1, 2); (x - 2)^2 for a Jordan block
    assert minimal_polynomial(Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == (F(2), F(-3), F(1))
    assert minimal_polynomial(Matrix.from_rows([[2, 1], [0, 2]])) == (F(4), F(-4), F(1))
    assert minimal_polynomial(Matrix.from_rows([[0, -1], [1, 0]])) == (F(1), F(0), F(1))
    with pytest.raises(ValueError):
        minimal_polynomial(Matrix.zeros(2, 3))


def _block_diagonal(*blocks):
    entries, at = {}, 0
    for b in blocks:
        entries.update({(at + i, at + j): x for i, r in enumerate(b.sparse_rows) for j, x in r.items()})
        at += b.rows
    return Matrix.from_sparse(at, at, entries)


def _random_matrices(seed=23):
    """Random rational square matrices of sizes 0..5, and scalar, nilpotent
    and derogatory block-diagonal ones built from them."""
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    def dense(n, keep=lambda i, j: True):
        return Matrix.from_sparse(n, n, {(i, j): entry() for i in range(n) for j in range(n) if keep(i, j)})

    out = [Matrix.zeros(0, 0)]
    for n in range(1, 6):
        out += [dense(n) for _ in range(4)]
        out.append(Matrix.identity(n).scale(entry()))
        out.append(dense(n, lambda i, j: i < j))  # strictly upper triangular: nilpotent
        a = dense(rng.randint(1, 3))
        out.append(_block_diagonal(a, a, Matrix.identity(n).scale(2)))  # a repeated block: derogatory
        out.append(_block_diagonal(dense(n, lambda i, j: j == i + 1), Matrix.zeros(n, n)))
    return out


@pytest.mark.parametrize("m", _random_matrices(), ids=lambda m: f"{m.rows}x{m.cols}")
def test_minimal_polynomial_is_the_monic_relation_of_least_degree(m):
    poly = minimal_polynomial(m)
    d, n = len(poly) - 1, m.rows
    assert poly[-1] == 1 and all(type(c) is Fraction for c in poly)
    powers = [Matrix.identity(n)]
    for _ in range(d):
        powers.append(powers[-1] @ m)
    value = Matrix.zeros(n, n)
    for c, power in zip(poly, powers):
        value = value + power.scale(c)
    assert value.is_zero()
    assert Subspace.from_spanning([p.sparse_flatten() for p in powers[:d]], n * n).dim == d


# ---------------------------------------------------------------------------
# Matrix against nested-list arithmetic
# ---------------------------------------------------------------------------

scalars = st.one_of(st.just(0), small_entries, st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _grid(draw, rows, cols):
    return draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def matrix_cases(draw):
    """a and b of shape r x c, e of shape c x k, a vector of length c and a scalar."""
    r, c, k = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return _grid(draw, r, c), _grid(draw, r, c), _grid(draw, c, k), _grid(draw, 1, c)[0], draw(scalars), (r, c, k)


def _dense(rows):
    return tuple(tuple(F(x) for x in r) for r in rows)


@settings(max_examples=120, deadline=None)
@given(matrix_cases())
def test_matrix_matches_nested_list_arithmetic(case):
    a, b, e, v, s, (r, c, k) = case
    ma, mb, me = Matrix(a, c), Matrix(b, c), Matrix(e, k)
    assert ma.data == _dense(a) and ma.shape == (r, c)
    assert (ma @ me).data == _dense([[sum(a[i][t] * e[t][j] for t in range(c)) for j in range(k)] for i in range(r)])
    assert (ma + mb).data == _dense([[x + y for x, y in zip(p, q)] for p, q in zip(a, b)])
    assert (ma - mb).data == _dense([[x - y for x, y in zip(p, q)] for p, q in zip(a, b)])
    assert ma.scale(s).data == _dense([[s * x for x in p] for p in a])
    assert ma.kron(me).data == _dense(
        [[a[i][j] * e[p][q] for j in range(c) for q in range(k)] for i in range(r) for p in range(c)]
    )
    assert ma.transpose().data == _dense([[a[i][j] for i in range(r)] for j in range(c)])
    assert ma.apply(tuple(map(F, v))) == tuple(F(sum(x * y for x, y in zip(p, v))) for p in a)
    assert ma.is_zero() == all(x == 0 for p in a for x in p)
    flat = [x for p in a for x in p]
    assert ma.flatten() == tuple(map(F, flat))
    assert Matrix.unflatten(flat, r, c) == ma
    assert Matrix.unflatten({j: x for j, x in enumerate(flat) if x}, r, c) == ma
    square = Matrix([p[:r] for p in a[: min(r, c)]], min(r, c))
    assert square.trace() == sum(a[i][i] for i in range(min(r, c)))
    assert type(square.trace()) is F


def test_matrix_value_contract():
    plain = Matrix.from_rows([[1, 3], [0, 2]])
    fractions = Matrix.from_rows([[F(1), F(3)], [F(0), F(2)]])
    with_zero = Matrix.from_sparse(2, 2, {(0, 1): 3, (0, 0): 1, (1, 0): 0, (1, 1): F(4, 2)})
    without_zero = Matrix.from_sparse(2, 2, {(0, 0): 1, (0, 1): 3, (1, 1): 2})
    unflattened = Matrix.unflatten({3: 2, 1: F(3), 0: F(1)}, 2, 2)
    same = [plain, fractions, with_zero, without_zero, unflattened, Matrix(((1, 3), (0, 2)), 2)]
    assert all(m == plain and hash(m) == hash(plain) for m in same)
    assert len(set(same)) == 1
    assert plain != Matrix.from_rows([[1, 3], [0, 3]]) and plain != Matrix.zeros(2, 3)
    assert all(type(x) is F for m in same for row in m.data for x in row)
    assert all(type(m.entry(i, j)) is F for m in same for i in range(2) for j in range(2))
    assert plain.entry(1, 1) == 2 and plain.entry(1, 0) == 0
    for i, j in ((2, 0), (0, 2), (5, 5)):
        with pytest.raises(IndexError):
            plain.entry(i, j)
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_rows([[1, 2], [3]])
    for data in ([[1, 2, 3]], [[1, 2], [3]]):  # a row wider or narrower than cols
        with pytest.raises(ValueError, match="ragged"):
            Matrix(data, 2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        Matrix.from_rows([])
    with pytest.raises(ValueError, match="out of bounds"):
        Matrix.from_sparse(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        Matrix.unflatten([1, 2, 3], 2, 2)
    with pytest.raises(ValueError):
        Matrix.unflatten({4: 1}, 2, 2)
    with pytest.raises(TypeError):
        plain.sparse_rows[0][1] = F(5)
    with pytest.raises(AttributeError):
        plain.cols = 3
    assert plain.cols == 2 and plain.shape == (2, 2)


def test_sparse_matrix_builds_no_dense_rows_until_read():
    m = Matrix.from_sparse(3, 3, {(0, 1): 1, (2, 0): F(1, 2)})
    product = (m @ m.transpose() + Matrix.identity(3)).scale(2)
    assert product.sparse_rows == ({0: 4}, {1: 2}, {2: F(5, 2)})  # 2 (m m^T + I), m m^T = diag(1, 0, 1/4)
    assert "data" not in vars(m) and "data" not in vars(product)
    assert product.data[2] == (F(0), F(0), F(5, 2))
    assert "data" in vars(product)

from fractions import Fraction

import pytest

from homlie.algebra import (
    LawViolation,
    builtin,
    builtin_names,
    killing_form,
    make_algebra,
    parse_builtin,
    structural_subspaces,
)
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import km_window
from homlie.linalg import Matrix, Subspace

F = Fraction


def test_sl2_paper_table():
    sl2 = builtin("sl", 2)
    em, h, ep = (sl2.basis_vector(i) for i in range(3))
    assert sl2.multiply(em, h) == (F(-1), F(0), F(0))
    assert sl2.multiply(ep, h) == (F(0), F(0), F(1))
    assert sl2.multiply(em, ep) == (F(0), F(1), F(0))
    assert sl2.basis_names == ("e-", "h", "e+")


def test_sign_flipped_sl2_is_still_lie():
    # isomorphic copy: the [e-, e+] product negated
    table = {
        (0, 1): [(0, -1)],
        (1, 0): [(0, 1)],
        (2, 1): [(2, 1)],
        (1, 2): [(2, -1)],
        (0, 2): [(1, -1)],
        (2, 0): [(1, 1)],
    }
    alg = make_algebra(3, table, flavor="lie")
    assert alg.dim == 3


def test_anticommutativity_rejected():
    with pytest.raises(LawViolation) as err:
        make_algebra(1, {(0, 0): [(0, 1)]}, flavor="lie")
    assert err.value.law == "anticommutativity"


def test_jacobi_rejected():
    # [x,y] = z and [y,z] = y: J(x,y,z) = [[y,z],x] = [y,x] = -z != 0
    table = {
        (0, 1): [(2, 1)], (1, 0): [(2, -1)],
        (1, 2): [(1, 1)], (2, 1): [(1, -1)],
    }
    with pytest.raises(LawViolation) as err:
        make_algebra(3, table, flavor="lie")
    assert err.value.law == "jacobi"


def test_associativity_rejected():
    table = {(0, 0): [(1, 1)], (0, 1): [(0, 1)], (1, 0): [(0, 1)]}
    with pytest.raises(LawViolation):
        make_algebra(2, table, flavor="commutative-associative")


def test_grading_witness_is_the_first_failing_tuple_in_any_input_order():
    """The law scan walks the product index, so the grading witness is the
    lexicographically first failing (i, j, k) however the table is ordered."""
    entries = [((1, 1), [(0, 1)]), ((0, 1), [(0, 2)]), ((0, 0), [(1, 3)])]  # all three leave their degree
    for order in (entries, entries[::-1]):
        with pytest.raises(LawViolation) as info:
            make_algebra(2, dict(order), grading=(0, 1))
        assert (info.value.law, info.value.witness, info.value.residual) == ("grading", (0, 0, 1), (0, 3))


def test_basis_vector_index_out_of_range():
    sl2 = builtin("sl", 2)
    for alg in (sl2, km_window(sl2, killing_form(sl2), 2)):
        assert alg.basis_vector(alg.dim - 1)[-1] == 1
        for index in (-1, alg.dim, alg.dim + 4):
            with pytest.raises(IndexError, match=f"basis index {index} out of range for dim {alg.dim}"):
                alg.basis_vector(index)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        make_algebra(2, {(0, 5): [(0, 1)]})
    with pytest.raises(ValueError):
        make_algebra(2, {(0, 1): [(7, 1)]})


def test_grading_validation():
    good = make_algebra(2, {(0, 0): [(1, 1)]}, flavor="generic-commutative", grading=[1, 2])
    assert good.grading == (1, 2)
    with pytest.raises(LawViolation):
        make_algebra(2, {(0, 0): [(1, 1)]}, flavor="generic-commutative", grading=[1, 3])


@pytest.mark.parametrize(
    "name,params,dim",
    [
        ("sl", (2,), 3),
        ("sl", (3,), 8),
        ("sl", (4,), 15),
        ("gl", (2,), 4),
        ("so", (3,), 3),
        ("so", (5,), 10),
        ("sp", (4,), 10),
        ("heisenberg", (), 3),
        ("abelian", (4,), 4),
        ("nonabelian2", (), 2),
    ],
)
def test_builtin_lie_families(name, params, dim):
    alg = builtin(name, *params)
    assert alg.dim == dim
    assert alg.flavor == "lie"


def test_builtin_commutative_families():
    tp = builtin("trunc_poly", 3)
    assert tp.dim == 3 and tp.flavor == "commutative-associative"
    assert tp.grading == (0, 1, 2)
    t = tp.basis_vector(1)
    assert tp.multiply(t, tp.multiply(t, t)) == (F(0),) * 3  # t^3 = 0
    assert tp.multiply(tp.basis_vector(0), t) == t

    cg = builtin("cyclic_group_alg", 2)
    assert cg.multiply(cg.basis_vector(1), cg.basis_vector(1)) == cg.basis_vector(0)  # t^2 = 1


def test_builtin_errors():
    with pytest.raises(ValueError):
        builtin("sl", 1)
    with pytest.raises(ValueError):
        builtin("sp", 3)
    with pytest.raises(ValueError):
        builtin("does-not-exist")
    with pytest.raises(ValueError):
        builtin("heisenberg", 3)


def test_parse_builtin():
    assert parse_builtin("sl3").dim == 8
    assert parse_builtin("trunc_poly:4").dim == 4
    assert parse_builtin("heisenberg").dim == 3
    with pytest.raises(ValueError):
        parse_builtin("nope")
    assert "sl" in builtin_names()


def test_multiply_is_bilinear():
    sl2 = builtin("sl", 2)
    u = (F(1), F(2), F(0))
    v = (F(0), F(-1), F(3))
    w = (F(2), F(0), F(1))
    left = sl2.multiply(tuple(a + b for a, b in zip(u, v)), w)
    split = tuple(a + b for a, b in zip(sl2.multiply(u, w), sl2.multiply(v, w)))
    assert left == split
    assert sl2.multiply((F(0),) * 3, v) == (F(0),) * 3


# longer and shorter than sl2's dim 3, and sparse with an index outside range(3)
WRONG_VECTORS = [(0, 1, 0, 5), (0, 1), {3: 1}, {-1: 1}, {0: 1, 7: F(1, 2)}]


@pytest.mark.parametrize("v", WRONG_VECTORS)
@pytest.mark.parametrize("side", ["left_mul_matrix", "right_mul_matrix"])
def test_multiplication_matrices_reject_a_vector_outside_the_algebra(side, v):
    sl2 = builtin("sl", 2)
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        getattr(sl2, side)(v)
    assert getattr(sl2, side)({1: 1}) == getattr(sl2, side)((0, 1, 0))


@pytest.mark.parametrize("v", WRONG_VECTORS)
def test_bilinear_form_rejects_a_vector_outside_its_space(v):
    form = killing_form(builtin("sl", 2))
    for u, w in ((v, (0, 0, 1)), ((1, 0, 0), v)):
        with pytest.raises(ValueError, match="vector dimension mismatch"):
            form(u, w)
    assert form({0: 1}, {2: 1}) == form((1, 0, 0), (0, 0, 1)) != 0


def test_structural_subspaces():
    assert structural_subspaces(builtin("sl", 2)) == (
        Subspace.zero(3),
        Subspace.full(3),
        Subspace.zero(3),
    )
    center, derived, ann = structural_subspaces(builtin("heisenberg"))
    z_line = Subspace.from_spanning([[0, 0, 1]], 3)
    assert center == z_line and derived == z_line and ann == Subspace.full(3)
    # 2x2 hand elimination: derived = ann = the line through x
    center, derived, ann = structural_subspaces(builtin("nonabelian2"))
    x_line = Subspace.from_spanning([[1, 0]], 2)
    assert center.dim == 0 and derived == x_line and ann == x_line


def test_structural_subspaces_requires_lie():
    with pytest.raises(ValueError):
        structural_subspaces(builtin("trunc_poly", 2))


def _ad_matrix_from_table(alg, idx):
    # independent oracle: build ad(e_idx) column by column straight from the table
    n = alg.dim
    cols = []
    for j in range(n):
        col = [F(0)] * n
        for k, c in alg.table.get((idx, j), ()):
            col[k] += c
        cols.append(col)
    return Matrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)), n)


def test_killing_form_sl2_against_hand_traces():
    sl2 = builtin("sl", 2)
    ads = [_ad_matrix_from_table(sl2, i) for i in range(3)]
    expected = [[(ads[i] @ ads[j]).trace() for j in range(3)] for i in range(3)]
    kf = killing_form(sl2)
    assert [list(r) for r in kf.matrix.data] == expected
    assert kf.matrix.entry(1, 1) == 2 and kf.matrix.entry(0, 2) == 2
    assert kf.matrix.entry(0, 1) == 0 and kf.matrix.entry(1, 2) == 0
    # nondegenerate: full rank
    from homlie.linalg import rref

    assert rref(kf.matrix)[1] == 3
    assert kf.is_symmetric() and kf.is_invariant(sl2)


def test_killing_form_degenerate_cases():
    assert killing_form(builtin("abelian", 3)).matrix.is_zero()
    assert killing_form(builtin("heisenberg")).matrix.is_zero()  # nilpotent


@pytest.mark.parametrize("name,params", [("sl", (3,)), ("so", (5,)), ("sp", (4,)), ("gl", (2,))])
def test_killing_symmetry_invariance(name, params):
    alg = builtin(name, *params)
    kf = killing_form(alg)
    assert kf.is_symmetric()
    assert kf.is_invariant(alg)


KILLING_FAMILIES = {
    "builtin": builtin_battery,
    "classical": lambda: [(f"{name}{n}", builtin(name, n)) for name, n in (("sl", 5), ("so", 7), ("sp", 6))],
    "random": lambda: random_lie_battery(25),
}


@pytest.mark.parametrize("family", KILLING_FAMILIES)
def test_killing_form_is_the_trace_of_ad_products(family):
    """``killing_form`` walks the nonzero products of the index; the
    reference multiplies the matrices of left multiplication by e_i and e_j
    and takes the trace, entry by entry."""
    for name, alg in KILLING_FAMILIES[family]():
        if alg.flavor != "lie":
            with pytest.raises(ValueError, match="killing_form requires a lie-flavor algebra"):
                killing_form(alg)
            continue
        ads = [alg.left_mul_matrix({i: 1}) for i in range(alg.dim)]
        expected = Matrix.from_rows([[(x @ y).trace() for y in ads] for x in ads], alg.dim)
        assert killing_form(alg).matrix == expected, name


def _constants(alg):
    return [c for terms in alg.table.values() if terms is not None for _, c in terms]


@pytest.mark.parametrize(
    "name", ["sl2", "sl3", "sl4", "gl2", "so3", "so5", "sp4", "heisenberg", "abelian2", "nonabelian2",
             "trunc_poly:3", "cyclic_group_alg:3"]
)
def test_integral_builtin_constants_are_ints(name):
    assert all(type(c) is int for c in _constants(parse_builtin(name)))


def _sl2_twist():
    g0 = Subspace.from_spanning([[0, 1, 0]], 3)
    g1 = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    return [g0, g1], 2


@pytest.mark.parametrize(
    "name, n_window, twisted", [("sl2", 2, False), ("sl2", 4, False), ("sl2", 3, True), ("sl3", 2, False),
                                ("so5", 2, False)]
)
def test_integral_window_constants_are_ints(name, n_window, twisted):
    # the Killing forms of these algebras are integral, so is every constant
    g = parse_builtin(name)
    pa = km_window(g, killing_form(g), n_window, twist=_sl2_twist() if twisted else None)
    assert all(type(c) is int for c in _constants(pa))


def test_half_constant_from_json_stays_a_fraction():
    from homlie.serialize import algebra_from_json

    alg = algebra_from_json({"dim": 2, "flavor": "unchecked", "table": [[0, 1, [[0, "1/2"], [1, "4/2"]]]]})
    (_, half), (_, two) = alg.table[(0, 1)]
    assert (type(half), half) == (Fraction, F(1, 2))
    assert (type(two), two) == (int, 2)

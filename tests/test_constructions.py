import itertools
import random
from fractions import Fraction

import pytest

from homlie.algebra import MAX_DIM, BilinearForm, LawViolation, builtin, killing_form, make_algebra
from homlie.battery import _random_derivation
from homlie import constructions
from homlie.constructions import (
    adjoin_map,
    central_extension,
    cocycle2,
    derivation_defect,
    km_window,
    semidirect_derivation,
    tensor_lie,
    twisted_cyclic,
)
from homlie.linalg import Matrix, Subspace

F = Fraction


def test_tensor_current_algebra():
    cur = tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))
    assert cur.dim == 6 and cur.flavor == "lie"


def test_tensor_unit_case_identical_table():
    sl2 = builtin("sl", 2)
    unit = tensor_lie(builtin("trunc_poly", 1), sl2)
    assert unit.dim == 3
    assert unit.table == sl2.table


def test_tensor_cyclic_factor():
    t6 = tensor_lie(builtin("cyclic_group_alg", 2), builtin("sl", 2))
    assert t6.dim == 6 and t6.flavor == "lie"


def test_tensor_rejects_wrong_flavors():
    with pytest.raises(ValueError):
        tensor_lie(builtin("sl", 2), builtin("sl", 2))
    with pytest.raises(ValueError):
        tensor_lie(builtin("trunc_poly", 2), builtin("trunc_poly", 2))


def test_tensor_nonlie_gets_witness():
    # generic anticommutative factor with a genuine Jacobi defect
    from homlie.algebra import make_algebra

    b = make_algebra(
        3,
        {(0, 1): [(2, 1)], (1, 0): [(2, -1)], (1, 2): [(1, 1)], (2, 1): [(1, -1)]},
        flavor="generic-anticommutative",
    )
    a = builtin("trunc_poly", 2)
    t = tensor_lie(a, b)
    assert t.flavor == "generic-anticommutative"
    assert t.jacobi_witness is not None


def test_cocycle_validation():
    ab2 = builtin("abelian", 2)
    with pytest.raises(LawViolation):
        cocycle2(ab2, Matrix.from_rows([[1, 0], [0, 0]]))  # not skew
    # on sl2 + K (trivial center) the skew form pairing e- with the central
    # generator fails the cocycle equation at the triple (e-, h, z)
    sl2 = builtin("sl", 2)
    ext = central_extension(sl2, cocycle2(sl2, Matrix.zeros(3, 3)))
    with pytest.raises(LawViolation) as err:
        cocycle2(ext, Matrix.from_sparse(4, 4, {(0, 3): 1, (3, 0): -1}))
    assert err.value.law == "cocycle-equation"


def test_central_extension_heisenberg():
    ab2 = builtin("abelian", 2)
    xi = cocycle2(ab2, Matrix.from_rows([[0, 1], [-1, 0]]))
    ext = central_extension(ab2, xi)
    assert ext.dim == 3 and ext.flavor == "lie"
    assert ext.multiply(ext.basis_vector(0), ext.basis_vector(1)) == (F(0), F(0), F(1))
    # z central
    for i in range(3):
        assert ext.multiply(ext.basis_vector(2), ext.basis_vector(i)) == (F(0),) * 3


def test_central_extension_trivial_cocycle():
    sl2 = builtin("sl", 2)
    xi = cocycle2(sl2, Matrix.zeros(3, 3))
    ext = central_extension(sl2, xi)
    assert ext.dim == 4
    # quotient by z recovers the original table exactly
    recovered = {
        (i, j): tuple((k, c) for k, c in terms if k < 3)
        for (i, j), terms in ext.table.items()
        if i < 3 and j < 3
    }
    recovered = {k: v for k, v in recovered.items() if v}
    assert recovered == dict(sl2.table)


def test_central_extension_quotient_recovers_base():
    cur = tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))
    from homlie.solver import solve_bilinear

    sk = solve_bilinear(cur, "skew-cocycle")
    mat = Matrix.unflatten(next(v for v in sk.basis.data if any(v)), cur.dim, cur.dim)
    ext = central_extension(cur, cocycle2(cur, mat))
    assert ext.dim == cur.dim + 1
    n = cur.dim
    recovered = {
        (i, j): tuple((k, c) for k, c in terms if k < n)
        for (i, j), terms in ext.table.items()
        if i < n and j < n
    }
    recovered = {k: v for k, v in recovered.items() if v}
    assert recovered == dict(cur.table)


def test_derivations_of_truncated_polynomials():
    tp2 = builtin("trunc_poly", 2)
    assert derivation_defect(tp2, Matrix.from_sparse(2, 2, {(1, 1): 1})) is None  # t d/dt
    # d/dt is not a derivation of K[t]/(t^2): D(t*t) = 0 but 2t D(t) = 2t
    defect = derivation_defect(tp2, Matrix.from_sparse(2, 2, {(0, 1): 1}))
    assert defect is not None and defect[0] == (1, 1)


def test_semidirect_derivation():
    sl2 = builtin("sl", 2)
    tp3 = builtin("trunc_poly", 3)
    euler = Matrix.from_sparse(3, 3, {(1, 1): 1, (2, 2): 2})
    ext = semidirect_derivation(sl2, tp3, euler)
    assert ext.dim == 10 and ext.flavor == "lie"
    # [D, x (x) t] = x (x) t for the euler weighting
    x_t = ext.basis_vector(3)  # basis is a-major: (t, e-) sits after the three (1, *) vectors
    assert ext.multiply(ext.basis_vector(9), x_t) == x_t


def test_semidirect_zero_derivation_central_contribution():
    sl2 = builtin("sl", 2)
    ext = semidirect_derivation(sl2, builtin("trunc_poly", 2), Matrix.zeros(2, 2))
    assert ext.dim == 7
    d = ext.basis_vector(6)
    for i in range(7):
        assert ext.multiply(d, ext.basis_vector(i)) == (F(0),) * 7


def _semidirect_by_bracket_loop(l, a, d):
    """The extension table written out bracket by bracket, as
    ``semidirect_derivation`` built it before it went through ``adjoin_map``:
    [D, a_i (x) l_j] = d(a_i) (x) l_j."""
    base = tensor_lie(a, l)
    n = base.dim
    table = {k: list(v) for k, v in base.table.items()}
    for ai in range(a.dim):
        img = d.apply(a.basis_vector(ai))
        for li in range(l.dim):
            entry = [(k * l.dim + li, c) for k, c in enumerate(img) if c]
            if entry:
                table[(n, ai * l.dim + li)] = entry
                table[(ai * l.dim + li, n)] = [(k, -c) for k, c in entry]
    return make_algebra(n + 1, table, basis_names=base.basis_names + ("D",), flavor="lie")


def test_semidirect_matches_the_bracket_loop():
    rng = random.Random(1)
    cases = [
        (builtin("sl", 2), builtin("trunc_poly", 3), Matrix.from_sparse(3, 3, {(1, 1): 1, (2, 2): 2})),
        (builtin("heisenberg"), builtin("trunc_poly", 2), Matrix.zeros(2, 2)),
        # pairs of the random battery, with its random derivations
        (builtin("nonabelian2"), builtin("trunc_poly", 2), _random_derivation(builtin("trunc_poly", 2), rng)),
        (builtin("abelian", 1), builtin("trunc_poly", 4), _random_derivation(builtin("trunc_poly", 4), rng)),
    ]
    assert not any(d.is_zero() for _, _, d in cases[2:])
    for l, a, d in cases:
        ext, ref = semidirect_derivation(l, a, d), _semidirect_by_bracket_loop(l, a, d)
        assert (ext.dim, ext.basis_names, ext.flavor, ext.table) == (ref.dim, ref.basis_names, ref.flavor, ref.table)


def test_semidirect_rejects_non_derivation():
    with pytest.raises(LawViolation) as err:
        semidirect_derivation(builtin("sl", 2), builtin("trunc_poly", 2), Matrix.identity(2))
    assert err.value.law == "leibniz"


def _cartan_grading():
    g0 = Subspace.from_spanning([[0, 1, 0]], 3)
    g1 = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    return g0, g1


def test_twisted_cyclic():
    sl2 = builtin("sl", 2)
    g0, g1 = _cartan_grading()
    tw = twisted_cyclic(sl2, [g0, g1], 4)
    assert tw.dim == 6 and tw.flavor == "lie"
    # closure: products of returned basis vectors stay inside (the validator
    # would have rejected otherwise); spot-check one bracket lands in degree 2
    prod = tw.multiply(tw.basis_vector(1), tw.basis_vector(2))
    assert any(prod)


def test_twisted_cyclic_trivial_grading():
    sl2 = builtin("sl", 2)
    tw = twisted_cyclic(sl2, [Subspace.full(3)], 2)
    t = tensor_lie(builtin("cyclic_group_alg", 2), sl2)
    assert tw.dim == t.dim == 6


def test_twisted_cyclic_bad_grading_witness():
    sl2 = builtin("sl", 2)
    g0, g1 = _cartan_grading()
    with pytest.raises(LawViolation) as err:
        twisted_cyclic(sl2, [g1, g0], 4)
    assert err.value.law == "grading-compatibility"
    with pytest.raises(ValueError):
        twisted_cyclic(sl2, [g0, g1], 5)  # not a multiple of 2


def _expand(pa, terms):
    """The dense vector of a product's sparse terms."""
    out = [F(0)] * pa.dim
    for k, c in terms:
        out[k] += c
    return tuple(out)


def _window_multiply(pa, u, v):
    """``pa.multiply``, or None when the product reads an undefined basis product."""
    if any(pa.table.get((i, j), ()) is None for i, x in enumerate(u) if x for j, y in enumerate(v) if y):
        return None
    return pa.multiply(u, v)


def _loop_index(pa, sl2, degree, basis_index):
    name = f"{sl2.basis_names[basis_index]}(x)t^{degree}"
    return pa.basis_names.index(name)


def test_km_window_shape_and_brackets():
    sl2 = builtin("sl", 2)
    pa = km_window(sl2, killing_form(sl2), 2)
    assert pa.dim == 3 * 5 + 2
    assert pa.flavor == "lie"  # the certificate the shift-0 block relies on
    assert pa.basis_names[-2:] == ("d", "z") and max(map(abs, pa.grading)) == 2
    deg2 = [i for i, d in enumerate(pa.grading) if d == 2]
    assert pa.table[(deg2[0], deg2[1])] is None  # leaves the window
    assert pa.table[(deg2[1], deg2[0])] is None
    with pytest.raises(ValueError, match=rf"\({deg2[0]}, {deg2[1]}\) is undefined"):
        pa.product_on_basis(deg2[0], deg2[1])
    em_t = _loop_index(pa, sl2, 1, 0)
    ep_tinv = _loop_index(pa, sl2, -1, 2)
    h_0 = _loop_index(pa, sl2, 0, 1)
    vec = _expand(pa, pa.product_on_basis(em_t, ep_tinv))
    expected = [F(0)] * pa.dim
    expected[h_0] = F(1)       # [e-, e+] = h at degree 0
    expected[pa.dim - 1] = F(2)  # residue pairing: 1 * <e-, e+> = 2
    assert list(vec) == expected
    assert _expand(pa, pa.product_on_basis(ep_tinv, em_t)) == tuple(-x for x in expected)


def test_km_window_table_holds_both_orders():
    sl2 = builtin("sl", 2)
    pa = km_window(sl2, killing_form(sl2), 3)
    for (i, j), terms in pa.table.items():
        back = pa.table[(j, i)]
        assert (back is None) == (terms is None)
        if terms is not None:
            assert back == tuple((k, -c) for k, c in terms)
    with pytest.raises(ValueError, match=r"\(0, 1\) is undefined"):  # reading an undefined product fails loudly
        pa.multiply(pa.basis_vector(0), pa.basis_vector(1))  # degrees -3 + -3


def test_km_window_euler_and_center():
    sl2 = builtin("sl", 2)
    pa = km_window(sl2, killing_form(sl2), 2)
    d = pa.dim - 2
    z = pa.dim - 1
    for i in range(d):
        br = pa.product_on_basis(d, i)
        if pa.grading[i] == 0:
            assert br == ()
        else:
            assert br == ((i, F(pa.grading[i])),)
    for i in range(pa.dim):
        assert pa.product_on_basis(z, i) == ()


def test_km_window_jacobi_where_defined():
    sl2 = builtin("sl", 2)
    for twist in (None, (_cartan_grading(), 2)):
        pa = km_window(sl2, killing_form(sl2), 2, twist=([*twist[0]], twist[1]) if twist else None)
        for i, j, k in itertools.combinations(range(pa.dim), 3):
            inner = [pa.table.get(pair, ()) for pair in ((i, j), (k, i), (j, k))]
            if any(t is None for t in inner):
                continue
            outer = [
                _window_multiply(pa, _expand(pa, inner[0]), pa.basis_vector(k)),
                _window_multiply(pa, _expand(pa, inner[1]), pa.basis_vector(j)),
                _window_multiply(pa, _expand(pa, inner[2]), pa.basis_vector(i)),
            ]
            if any(t is None for t in outer):
                continue
            total = tuple(a + b + c for a, b, c in zip(*outer))
            assert not any(total), (i, j, k)


def test_km_window_twisted_dimensions():
    sl2 = builtin("sl", 2)
    g0, g1 = _cartan_grading()
    pa = km_window(sl2, killing_form(sl2), 3, twist=([g0, g1], 2))
    # degrees -3..3: odd degrees carry dim-2 components, even carry dim-1
    assert pa.dim == (4 * 2 + 3 * 1) + 2


def test_km_window_rejects_bad_inputs():
    sl2 = builtin("sl", 2)
    with pytest.raises(ValueError):
        km_window(sl2, killing_form(sl2), 1)
    from homlie.algebra import BilinearForm

    skew = BilinearForm(Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        km_window(sl2, skew, 2)
    # a Z/4 grading with g_2 = 0 leaves degrees -2 and 2 of an N=2 window empty
    z4 = [Subspace.from_spanning(v, 3) for v in ([[0, 1, 0]], [[0, 0, 1]], [], [[1, 0, 0]])]
    with pytest.raises(ValueError, match="cannot be read back"):
        km_window(sl2, killing_form(sl2), 2, twist=(z4, 4))
    assert km_window(sl2, killing_form(sl2), 3, twist=(z4, 4)).grading[0] == -3
    # untwisted, a zero g leaves every loop degree empty
    zero = builtin("abelian", 0)
    with pytest.raises(ValueError, match="cannot be read back"):
        km_window(zero, killing_form(zero), 2)


def test_km_window_refuses_a_window_above_the_bound_before_building_it(monkeypatch):
    """A window above ``MAX_DIM`` is refused from its dim formula alone,
    before the grading check that starts a build (made to fail here, so a
    lost bound fails fast instead of building a window of N = 10^9); the
    message names the dim and the bound.  The sl2 window N = 41 (dim 251)
    is the largest that is built."""
    sl2 = builtin("sl", 2)
    form = killing_form(sl2)
    assert km_window(sl2, form, 41).dim == 251 <= MAX_DIM
    monkeypatch.setattr(constructions, "check_cyclic_grading", _must_not_build)
    for n_window in (10**9, 42):
        dim = 3 * (2 * n_window + 1) + 2
        with pytest.raises(ValueError, match=f"^the window has dim {dim}, above the bound of {MAX_DIM}$"):
            km_window(sl2, form, n_window)
    g0, g1 = _cartan_grading()
    n = 10**9 + 1  # -N..N of an odd N: N even degrees (g0, dim 1) and N + 1 odd ones (g1, dim 2)
    with pytest.raises(ValueError, match=f"dim {n + 2 * (n + 1) + 2}, above the bound of {MAX_DIM}$"):
        km_window(sl2, form, n, twist=([g0, g1], 2))


def _must_not_build(*args):
    raise AssertionError("the window was built")


def test_adjoin_map_rejects_a_map_of_the_wrong_shape():
    sl2 = builtin("sl", 2)
    for d in (Matrix.from_sparse(4, 3, {(3, 0): 1}), Matrix.zeros(3, 4), Matrix.identity(2)):
        with pytest.raises(ValueError, match="shape"):
            adjoin_map(sl2, d)


def test_adjoin_map():
    sl2 = builtin("sl", 2)
    lie_ext = adjoin_map(sl2, sl2.left_mul_matrix(sl2.basis_vector(1)))
    assert lie_ext.dim == 4 and lie_ext.flavor == "lie"
    # a half-derivation is not a derivation: the extension drops to anticommutative
    half = Matrix.identity(3)
    anti = adjoin_map(sl2, half.scale(F(1, 2)))
    assert anti.flavor in ("lie", "generic-anticommutative")


def _window_calls():
    """Library calls that read an undefined product of the sl2 window N = 2."""
    from homlie.actions import is_submodule
    from homlie.algebra import structural_subspaces
    from homlie.solver import coboundary_space, seq_uv, solve_bilinear, solve_qder

    sl2 = builtin("sl", 2)
    pa = km_window(sl2, killing_form(sl2), 2)
    i, j = next(pair for pair, terms in pa.table.items() if terms is None)
    return pa, {
        "solve_bilinear": lambda: solve_bilinear(pa, "asym-cocycle"),
        "coboundary_space": lambda: coboundary_space(pa),
        "solve_qder": lambda: solve_qder(pa),
        "seq_uv": lambda: seq_uv(pa),
        "killing_form": lambda: killing_form(pa),
        "structural_subspaces": lambda: structural_subspaces(pa),
        "is_submodule": lambda: is_submodule(pa, Subspace.full(pa.dim ** 2)),
        "left_mul_matrix": lambda: pa.left_mul_matrix(pa.basis_vector(i)),
        "multiply": lambda: pa.multiply(pa.basis_vector(i), pa.basis_vector(j)),
        "tensor_lie": lambda: tensor_lie(builtin("trunc_poly", 2), pa),
        "adjoin_map": lambda: adjoin_map(pa, Matrix.identity(pa.dim)),
        # a form of the window's shape, so the invariance check reads the window's products
        "km_window": lambda: km_window(pa, BilinearForm(Matrix.zeros(pa.dim, pa.dim)), 2),
    }


@pytest.mark.parametrize("call", list(_window_calls()[1]))
def test_reading_an_undefined_product_raises_a_value_error(call):
    with pytest.raises(ValueError, match=r"basis product \(\d+, \d+\) is undefined"):
        _window_calls()[1][call]()


def test_calls_that_read_defined_products_work_on_a_window():
    from homlie.actions import act

    pa, _ = _window_calls()
    d = pa.basis_names.index("d")
    phi = Matrix.from_sparse(pa.dim, pa.dim, {(0, 0): 1})
    grading = pa.grading
    assert act(pa, pa.basis_vector(d), phi) == Matrix.zeros(pa.dim, pa.dim)  # phi has degree 0
    psi = Matrix.from_sparse(pa.dim, pa.dim, {(0, 3): 1})  # degree -2 <- -1
    assert act(pa, pa.basis_vector(d), psi) == psi.scale(grading[3] - grading[0])

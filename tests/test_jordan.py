import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from homlie import jordan
from homlie.algebra import builtin, killing_form, make_algebra, sparse_product
from homlie.battery import builtin_battery
from homlie.constructions import km_window, tensor_lie
from homlie.jordan import (
    closure_check,
    counterexample_suite,
    jordan_identity_defect,
    jordan_product,
    jordan_structure_constants,
)
from homlie.linalg import Matrix, Subspace, dense_vector, sparse_lincomb
from homlie.solver import HOM_LIE, solve_structures, structure_residual
from homlie.window import solve_window

F = Fraction


def test_jordan_product_unit_and_symmetry():
    psi = Matrix.from_rows([[1, 2], [3, 4]])
    assert jordan_product(Matrix.identity(2), psi) == psi
    phi = Matrix.from_rows([[0, 1], [5, 0]])
    assert jordan_product(phi, psi) == jordan_product(psi, phi)
    assert jordan_product(phi, phi) == phi @ phi


def test_jordan_product_matches_the_dense_products():
    rng = random.Random(3)
    for n in (1, 2, 5):
        for _ in range(20):
            phi, psi = (
                Matrix.from_rows([[F(rng.choice((0, 0, 1, -2)), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
                for _ in range(2)
            )
            assert jordan_product(phi, psi) == ((phi @ psi) + (psi @ phi)).scale(F(1, 2))


def test_jordan_product_matrix_units():
    e12 = Matrix.from_sparse(2, 2, {(0, 1): 1})
    e21 = Matrix.from_sparse(2, 2, {(1, 0): 1})
    assert jordan_product(e12, e21) == Matrix.identity(2).scale(F(1, 2))


def test_jordan_product_shape_mismatch():
    with pytest.raises(ValueError):
        jordan_product(Matrix.identity(2), Matrix.identity(3))


@pytest.mark.parametrize(
    "factory",
    [
        lambda: builtin("sl", 2),
        lambda: builtin("sl", 3),
        lambda: tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2)),
        lambda: builtin("abelian", 2),
    ],
)
def test_closure_holds(factory):
    alg = factory()
    verdict = closure_check(solve_structures(alg, HOM_LIE))
    assert verdict.closed and verdict.witness is None


def test_one_dimensional_spaces_are_closed():
    verdict = closure_check(solve_structures(builtin("sl", 4), HOM_LIE))
    assert verdict.closed


def test_structure_constants_sl2():
    sol = solve_structures(builtin("sl", 2), HOM_LIE)
    jalg = jordan_structure_constants(sol, closure_check(sol))
    assert jalg.dim == 6 and jalg.flavor == "generic-commutative"
    assert jordan_identity_defect(jalg) is None
    # re-expansion reproduces the product exactly
    maps = sol.basis_maps()
    for i in range(6):
        for j in range(6):
            expanded = [F(0)] * 9
            for k, c in jalg.table.get((i, j), ()):
                expanded = [x + c * y for x, y in zip(expanded, maps[k].flatten())]
            assert tuple(expanded) == jordan_product(maps[i], maps[j]).flatten()


def test_structure_constants_trivial_and_full_cases():
    sol3 = solve_structures(builtin("sl", 3), HOM_LIE)
    j3 = jordan_structure_constants(sol3, closure_check(sol3))
    assert j3.dim == 1 and j3.table[(0, 0)] == ((0, F(1)),)
    sol_ab = solve_structures(builtin("abelian", 2), HOM_LIE)
    jab = jordan_structure_constants(sol_ab, closure_check(sol_ab))
    assert jab.dim == 4
    assert jordan_identity_defect(jab) is None


def test_the_jordan_identity_is_checked_beyond_basis_x():
    """e1 e2 = e2 e1 = -e0 - e1 passes (x^2 y) x = x^2 (y x) at every basis
    x and y, yet at x = e1 + e2, y = e2 one side is -2e0 - 2e1 and the other
    is 0; the linearized check finds it at a basis tuple."""
    alg = make_algebra(3, {(1, 2): [(0, -1), (1, -1)], (2, 1): [(0, -1), (1, -1)]}, flavor="generic-commutative")
    x, y = {1: 1, 2: 1}, {2: 1}
    xx = sparse_product(alg.rows, x, x)
    assert sparse_product(alg.rows, sparse_product(alg.rows, xx, y), x) == {0: -2, 1: -2}
    assert sparse_product(alg.rows, xx, sparse_product(alg.rows, y, x)) == {}
    for i, j in product(range(3), repeat=2):  # the identity at basis x and y
        xx = dict(alg.product_on_basis(i, i))
        assert sparse_product(alg.rows, sparse_product(alg.rows, xx, {j: 1}), {i: 1}) == \
            sparse_product(alg.rows, xx, dict(alg.product_on_basis(j, i)))
    assert jordan_identity_defect(alg) == ((1, 2, 2, 2), (F(-2), F(-2), F(0)))


def test_the_jordan_identity_check_reuses_its_products(monkeypatch):
    """On the Jordan algebra of the closed sl2 N = 2 window space, where the
    identity holds, the check makes one sparse product per (p, q, y) with
    pq nonzero and two per such (p, q, t) in each tuple: under a fifth of
    the nine per tuple made when every pq and (pq)y was recomputed."""
    sol = solve_window(km_window(builtin("sl", 2), killing_form(builtin("sl", 2)), 2)).full
    jalg = jordan_structure_constants(sol, closure_check(sol))
    n, calls = jalg.dim, []
    monkeypatch.setattr(jordan, "sparse_product", lambda *args: calls.append(args) or sparse_product(*args))
    assert jordan_identity_defect(jalg) is None
    nonzero = {(p, q) for p in range(n) for q in range(p, n) if jalg.product_on_basis(p, q)}
    tuples = [(a, b, c) for a in range(n) for b in range(a, n) for c in range(b, n)]
    per_tuple = sum(2 * ((b, c) in nonzero) + 2 * ((a, c) in nonzero) + 2 * ((a, b) in nonzero) for a, b, c in tuples)
    assert len(calls) == n * len(nonzero) + n * per_tuple
    assert 5 * len(calls) < 9 * n * len(tuples)  # 25,092 calls against 184,680


def _every_y_walk(alg):
    """``jordan_identity_defect`` as it walked before it skipped a triple
    whose three pq are zero: every y of every triple."""
    n, rows = alg.dim, alg.rows
    pqs, pqys = {}, {}
    for a, b, c in combinations_with_replacement(range(n), 3):
        for y in range(n):
            terms = []
            for p, q, t in ((b, c, a), (a, c, b), (a, b, c)):
                if (p, q) not in pqs:
                    pqs[p, q] = dict(alg.product_on_basis(p, q))
                pq = pqs[p, q]
                if not pq:
                    continue
                if (p, q, y) not in pqys:
                    pqys[p, q, y] = sparse_product(rows, pq, {y: 1})
                terms += [(1, sparse_product(rows, pqys[p, q, y], {t: 1})),
                          (-1, sparse_product(rows, pq, dict(alg.product_on_basis(y, t))))]
            defect = sparse_lincomb(*terms)
            if defect:
                return (a, b, c, y), dense_vector(defect, n)
    return None


def _window_jordan(n):
    sol = solve_window(km_window(builtin("sl", 2), killing_form(builtin("sl", 2)), n)).full
    return jordan_structure_constants(sol, closure_check(sol))


def test_skipping_zero_triples_keeps_the_walk():
    """The same verdict and first witness as the walk over every y, on the
    builtin battery (where the identity fails), the beyond-basis table and
    the Jordan algebras of the closed sl2 windows N = 2..4 (where it holds)."""
    beyond = make_algebra(3, {(1, 2): [(0, -1), (1, -1)], (2, 1): [(0, -1), (1, -1)]}, flavor="generic-commutative")
    tables = [alg for _, alg in builtin_battery()] + [beyond] + [_window_jordan(n) for n in (2, 3, 4)]
    verdicts = [jordan_identity_defect(alg) for alg in tables]
    assert verdicts == [_every_y_walk(alg) for alg in tables]
    assert verdicts[-3:] == [None] * 3 and sum(v is not None for v in verdicts) > 5


def test_structure_constants_require_closure():
    sol = solve_structures(builtin("sl", 2), HOM_LIE)
    from homlie.jordan import ClosureVerdict

    with pytest.raises(ValueError):
        jordan_structure_constants(sol, ClosureVerdict(False, None))


def test_counterexample_suite():
    rep = counterexample_suite()
    assert 3 <= rep.truncation_order <= 8
    assert rep.phi_member and rep.psi_member
    assert not rep.product_member
    assert rep.composition_is_phi
    assert any(F(x) for x in rep.residual)
    doc = rep.to_json()
    assert doc["truncation_order"] == rep.truncation_order


def test_counterexample_witness_is_independently_verifiable():
    rep = counterexample_suite()
    l = builtin("nonabelian2")
    a = builtin("trunc_poly", rep.truncation_order)
    tensor = tensor_lie(a, l)
    phi = Matrix.identity(a.dim).kron(Matrix.from_rows([[0, 0], [1, 0]]))
    src, dst = rep.alpha_monomial
    alpha = Matrix.from_sparse(a.dim, a.dim, {(dst, src): 1})
    psi = alpha.kron(Matrix.from_rows([[1, 0], [0, 0]]))
    prod = jordan_product(phi, psi)
    residual = structure_residual(tensor, prod, HOM_LIE, rep.violating_triple)
    assert residual == tuple(rep.residual)
    assert any(residual)


# -- the Jordan question on the affine window spaces --------------------------


@pytest.mark.parametrize("n_window, dim", [(2, 18), (3, 24)])
def test_untwisted_window_space_is_jordan_closed(n_window, dim):
    g = builtin("sl", 2)
    sol = solve_window(km_window(g, killing_form(g), n_window)).full
    assert sol.dim == dim
    assert closure_check(sol).closed


def test_twisted_window_space_is_not_jordan_closed():
    g = builtin("sl", 2)
    g0 = Subspace.from_spanning([[0, 1, 0]], 3)
    g1 = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    pa = km_window(g, killing_form(g), 3, twist=([g0, g1], 2))
    sol = solve_window(pa).full
    assert sol.dim == 22
    verdict = closure_check(sol)
    assert not verdict.closed
    w = verdict.witness
    # the witness is an imposed equation of the shift-0 block, re-evaluated
    # by the residual at shift 0
    assert (w.phi_index, w.psi_index, w.violating_triple) == (1, 5, (0, 5, 7))
    assert w.product == jordan_product(*(sol.basis_maps()[i] for i in (1, 5)))
    residual = structure_residual(pa, w.product, HOM_LIE, w.violating_triple, 0)
    assert residual == w.residual == tuple(F(1, 2) if m == 2 else F(0) for m in range(pa.dim))


# e0 e2 = e1 and e1 e2 = -e2, both orders: its Hom-Jacobi form is symmetric,
# not alternating, so a triple with a repeated index can fail alone
GENERIC_COMMUTATIVE = {(0, 2): [(1, 1)], (2, 0): [(1, 1)], (1, 2): [(2, -1)], (2, 1): [(2, -1)]}


def test_closure_witness_on_a_commutative_table():
    alg = make_algebra(3, GENERIC_COMMUTATIVE, flavor="generic-commutative")
    sol = solve_structures(alg, HOM_LIE)
    verdict = closure_check(sol)
    assert sol.dim == 1 and not verdict.closed
    w = verdict.witness
    assert (w.phi_index, w.psi_index, w.violating_triple, w.residual) == (0, 0, (0, 0, 2), (0, 0, -2))
    failing = [t for t in product(range(3), repeat=3) if any(structure_residual(alg, w.product, HOM_LIE, t))]
    assert failing == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]


def _random_table(rng, n, flavor):
    sigma = {"generic-anticommutative": -1, "generic-commutative": 1}.get(flavor)
    table = {}
    for i, j in product(range(n), repeat=2):
        if sigma is not None and (j < i or sigma == -1 and i == j):
            continue
        entry = [(k, c) for k in range(n) if rng.random() < 0.3 for c in [rng.choice((-1, 1))]]
        if entry and rng.random() < 0.5:
            table[(i, j)] = entry
            if sigma is not None and i != j:
                table[(j, i)] = [(k, sigma * c) for k, c in entry]
    return table


@pytest.mark.parametrize("flavor", ["generic-anticommutative", "generic-commutative", "unchecked"])
def test_closure_witness_is_the_first_failing_ordered_triple(flavor):
    """On every flavor the witness is the first ordered triple, in
    lexicographic order, at which the product's residual is nonzero."""
    rng = random.Random(flavor)
    witnesses = 0
    for _ in range(1200):
        n = rng.randint(2, 3)
        alg = make_algebra(n, _random_table(rng, n, flavor), flavor=flavor)
        verdict = closure_check(solve_structures(alg, HOM_LIE))
        if verdict.closed:
            continue
        w = verdict.witness
        first = next(t for t in product(range(n), repeat=3) if any(structure_residual(alg, w.product, HOM_LIE, t)))
        assert (w.violating_triple, w.residual) == (first, structure_residual(alg, w.product, HOM_LIE, first))
        witnesses += 1
    assert witnesses >= 3

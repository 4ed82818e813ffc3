"""Certified builds against the law scan.

The matrix builtins and the constructions whose inputs are validated build
their tables without ``make_algebra``'s law scan, on the strength of a
theorem.  The references here are the paths they replaced: every ordered
pair of matrices bracketed and expressed, and the constructions' tables
passed through ``make_algebra``'s scan.  The tables must agree entry for
entry and in order, the scan must pass on each certified algebra, and
inputs that break a theorem's hypothesis must still be refused.
"""

import itertools
import pytest

from homlie import algebra, constructions
from homlie.algebra import BilinearForm, LawViolation, _check_laws, _clean_table, builtin, make_algebra, sparse_product
from homlie.battery import builtin_battery, lie_battery, random_lie_battery
from homlie.constructions import Cocycle2, adjoin_map, central_extension, cocycle2, tensor_lie, twisted_cyclic
from homlie.linalg import Matrix, SpanSolver, Subspace, sparse_lincomb
from homlie.solver import delta_derivation, solve_bilinear, solve_structures
from shared import replaced

LIE = lie_battery()
RANDOM = random_lie_battery(count=25)


def _ids(v):
    return v if isinstance(v, str) else ""


# -- matrix builtins ---------------------------------------------------------


def _all_pairs_table(mats):
    """The table as built before certification: the commutator of every
    ordered pair, expressed in the span."""
    size = mats[0].rows
    flat = [m.sparse_flatten() for m in mats]
    solver = SpanSolver(flat, size * size)
    units = tuple({k * size + c: ((r * size + c, 1),) for c in range(size)} for r in range(size) for k in range(size))
    table = {}
    for i, j in itertools.product(range(len(mats)), repeat=2):
        bracket = sparse_lincomb((1, sparse_product(units, flat[i], flat[j])),
                                 (-1, sparse_product(units, flat[j], flat[i])))
        coords = solver.express(bracket)
        assert coords is not None
        if coords:
            table[(i, j)] = list(coords.items())
    return _clean_table(len(mats), table)


def _matrices(monkeypatch, name, n):
    """The algebra ``builtin(name, n)`` and the matrices and names it was built from."""
    seen = []
    real = algebra._from_matrices
    monkeypatch.setattr(algebra, "_from_matrices", lambda mats, names: seen.append((mats, names)) or real(mats, names))
    alg = builtin(name, n)
    monkeypatch.undo()
    (mats, names), = seen
    return alg, mats, names


MATRIX_BUILTINS = ([("sl", n) for n in range(3, 9)] + [("so", n) for n in range(2, 9)]
                   + [("sp", n) for n in range(2, 9, 2)] + [("gl", n) for n in range(1, 6)])


@pytest.mark.parametrize("name,n", MATRIX_BUILTINS)
def test_matrix_builtin_equals_the_all_pairs_build(monkeypatch, name, n):
    alg, mats, names = _matrices(monkeypatch, name, n)
    ref = _all_pairs_table(mats)
    assert [list(row.items()) for row in alg.rows] == [list(row.items()) for row in ref]
    assert alg.basis_names == tuple(names) and alg.flavor == "lie" and alg.grading is None
    _check_laws(alg)


def test_a_matrix_outside_the_span_fails_closure(monkeypatch):
    _, mats, names = _matrices(monkeypatch, "sl", 3)
    # without H1 the span misses [E12, E21] = H1
    with pytest.raises(ValueError, match=r"not closed at pair \(1,"):
        algebra._from_matrices(mats[1:], names[1:])
    # a symmetric matrix among the skew ones of so3
    _, mats, names = _matrices(monkeypatch, "so", 3)
    sym = Matrix.from_sparse(3, 3, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError, match="not closed"):
        algebra._from_matrices([sym, *mats[1:]], names)


@pytest.mark.parametrize("extra", ["sum", "repeat", "zero"])
def test_a_dependent_list_is_refused(monkeypatch, extra):
    _, mats, names = _matrices(monkeypatch, "sl", 3)
    h1, h2 = mats[0], mats[1]
    added = {"sum": h1 + h2, "repeat": mats[5], "zero": Matrix.zeros(3, 3)}[extra]
    with pytest.raises(ValueError, match="linearly dependent: their span has dim 8"):
        algebra._from_matrices([*mats, added], [*names, "X"])


def test_span_solver_rank():
    assert SpanSolver([{0: 1}, {1: 1}, {0: 1, 1: 1}], 3).rank == 2
    assert SpanSolver([{0: 1}, {1: 2}], 3).rank == 2
    assert SpanSolver([], 3).rank == 0


# -- constructions -----------------------------------------------------------


def _scanned_lie(dim, table, names):
    """The path the constructions took before certification."""
    return make_algebra(dim, table, basis_names=names, flavor="lie")


def _same_as_scanned(monkeypatch, build):
    """``build()`` certified equals ``build()`` through the law scan, entry for entry."""
    alg = build()
    with monkeypatch.context() as m:
        m.setattr(constructions, "_lie_by_theorem", _scanned_lie)
        ref = build()
    assert list(alg.table.items()) == list(ref.table.items())
    assert (alg.dim, alg.basis_names, alg.flavor, alg.grading) == (ref.dim, ref.basis_names, ref.flavor, ref.grading)
    _check_laws(alg)
    return alg


def _skew_cocycle(alg):
    """The sum of the echelon basis of the skew 2-cocycles (0 when there are none)."""
    space = solve_bilinear(alg, "skew-cocycle")
    vec = sparse_lincomb(*((1, r) for _, r in space.rows))
    return cocycle2(alg, Matrix.unflatten(vec, alg.dim, alg.dim))


@pytest.mark.parametrize("name,alg", LIE + RANDOM, ids=_ids)
def test_central_extension_equals_the_scanned_build(monkeypatch, name, alg):
    xi = _skew_cocycle(alg)
    _same_as_scanned(monkeypatch, lambda: central_extension(alg, xi))


@pytest.mark.parametrize("name,alg", LIE + RANDOM, ids=_ids)
def test_tensor_lie_equals_the_scanned_build(monkeypatch, name, alg):
    for factor in (builtin("trunc_poly", 3), builtin("cyclic_group_alg", 2)):
        _same_as_scanned(monkeypatch, lambda: tensor_lie(factor, alg))


def _principal_grading(g, k):
    """sl_n graded by E_ij -> (j - i) mod k, Cartan in degree 0, read from the basis names."""
    def degree(name):
        return 0 if name[0] == "H" else (int(name[2]) - int(name[1])) % k
    return [Subspace.from_spanning([{u: 1} for u, nm in enumerate(g.basis_names) if degree(nm) == d], g.dim)
            for d in range(k)]


def _twists():
    sl2 = builtin("sl", 2)
    cartan = [Subspace.from_spanning([[0, 1, 0]], 3), Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)]
    out = [("sl2-cartan", sl2, cartan, m) for m in (2, 4, 6)]
    out += [(f"sl3-principal{k}", builtin("sl", 3), _principal_grading(builtin("sl", 3), k), k) for k in (2, 3)]
    out += [(f"{name}-untwisted{m}", g, [Subspace.full(g.dim)], m) for name, g in LIE + RANDOM[:8] for m in (1, 2)]
    return out


@pytest.mark.parametrize("name,g,grading,m", _twists(), ids=_ids)
def test_twisted_cyclic_equals_the_scanned_build(monkeypatch, name, g, grading, m):
    _same_as_scanned(monkeypatch, lambda: twisted_cyclic(g, grading, m))


@pytest.mark.parametrize("name,alg", LIE + RANDOM, ids=_ids)
def test_adjoin_map_is_lie_exactly_when_the_scan_says_so(monkeypatch, name, alg):
    """Derivations, delta = 2 solutions (the battery's embedding check) and
    the identity: each extension's flavor is the one the scan decides."""
    n = alg.dim
    maps = solve_structures(alg, delta_derivation(1)).basis_maps()[:3]
    maps += solve_structures(alg, delta_derivation(2)).basis_maps()[:3]
    maps.append(Matrix.identity(n))
    for d in maps:
        ext = _same_as_scanned(monkeypatch, lambda: adjoin_map(alg, d))
        scanned = replaced(ext, flavor="lie")
        if ext.flavor == "lie":
            _check_laws(scanned)
        else:
            assert ext.flavor == "generic-anticommutative"
            with pytest.raises(LawViolation) as e:
                _check_laws(scanned)
            assert e.value.law == "jacobi"


@pytest.mark.parametrize("name", ["sl2", "sl3", "heisenberg", "nonabelian2"])
def test_a_non_derivation_falls_back_to_generic(name):
    alg = dict(builtin_battery())[name]
    ext = adjoin_map(alg, Matrix.identity(alg.dim))  # id(xy) != 2 xy when xy != 0
    assert ext.flavor == "generic-anticommutative"
    with pytest.raises(LawViolation, match="jacobi"):
        _check_laws(replaced(ext, flavor="lie"))


def test_a_cocycle_is_verified_however_it_is_made():
    """central_extension trusts a Cocycle2, so none can be made unverified."""
    sl3 = builtin("sl", 3)
    with pytest.raises(LawViolation) as e:
        Cocycle2(sl3, BilinearForm(Matrix.from_sparse(8, 8, {(0, 1): 1, (1, 0): -1})))
    assert (e.value.law, e.value.witness) == ("cocycle-equation", (0, 3, 6))
    with pytest.raises(LawViolation, match="cocycle-skewness"):
        Cocycle2(sl3, BilinearForm(Matrix.from_sparse(8, 8, {(0, 1): 1})))
    with pytest.raises(ValueError, match="requires a lie-flavor"):
        Cocycle2(builtin("trunc_poly", 2), BilinearForm(Matrix.zeros(2, 2)))


def test_user_tables_keep_the_full_scan():
    """A hand table that breaks Jacobi is refused with the first triple in
    lexicographic order, as before."""
    table = {(0, 1): [(2, 1)], (1, 0): [(2, -1)], (1, 2): [(0, 1)], (2, 1): [(0, -1)],
             (0, 2): [(0, 1)], (2, 0): [(0, -1)]}
    with pytest.raises(LawViolation) as e:
        make_algebra(3, table, flavor="lie")
    assert (e.value.law, e.value.witness) == ("jacobi", (0, 1, 2))

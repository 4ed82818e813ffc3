import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from homlie.algebra import BilinearForm, builtin, killing_form, make_algebra, parse_builtin, sparse_product
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import central_extension, cocycle2, km_window, tensor_lie
from homlie.linalg import Matrix, RowAccumulator, Subspace, nullspace_of_rows
from homlie.solver import (
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    StructureKind,
    central_ext_homlie_decomposed,
    coboundary_space,
    current_formula_span,
    delta_derivation,
    f_t,
    is_multiplicative,
    parse_kind,
    seq_uv,
    solve_bilinear,
    solve_qder,
    solve_structures,
    structure_residual,
    tensor_formula_span,
    _known_block,
    _plan,
    grading_shifts,
)
from test_unit_rows import block_col_of, direct_router

F = Fraction


_SIGNS = {"hom-lie": (1, 1, 1), "hom-cyclic": (1, -1), "hom-2nilp": (1,)}


def _reference_rows(alg, kind, triples=None):
    """The rows of the kind's identity on all of End (phi(e_c) -> e_q at
    column q*n + c), compiled term by term from the table, independently of
    the solver's plan and pass.  Hom kinds run over ``triples``, by default
    the sorted ones for hom-lie on an anticommutative algebra and the
    ordered ones otherwise; delta-derivations over every ordered pair."""
    n, table = alg.dim, alg.table
    left = [[] for _ in range(n)]  # left[p] = [(q, m, c)]: e_p e_q = sum c e_m
    for (p, q), terms in table.items():
        left[p].extend((q, m, c) for m, c in terms)
    if kind.tag == "delta-derivation":
        for i, j in itertools.product(range(n), repeat=2):
            rows = {}  # output coordinate k -> row
            for m, c in table.get((i, j), ()):  # D(e_i e_j)
                for k in range(n):
                    rows.setdefault(k, Counter())[k * n + m] += c
            for q in range(n):  # - delta * (D(e_i) e_j + e_i D(e_j))
                for k, c in table.get((q, j), ()):
                    rows.setdefault(k, Counter())[q * n + i] -= kind.delta * c
                for k, c in table.get((i, q), ()):
                    rows.setdefault(k, Counter())[q * n + j] -= kind.delta * c
            yield from rows.values()
        return
    if triples is None:
        if kind == HOM_LIE and alg.is_anticommutative():
            triples = itertools.combinations(range(n), 3)
        else:
            triples = itertools.product(range(n), repeat=3)
    for a, b, c in triples:
        rows = {}  # key m -> row
        for (x, y, z), sign in zip(((a, b, c), (c, a, b), (b, c, a)), _SIGNS[kind.tag]):
            for p, cw in table.get((x, y), ()):
                for q, m, cpq in left[p]:  # phi(e_z) -> e_q, then e_p e_q
                    rows.setdefault(m, Counter())[q * n + z] += sign * cw * cpq
        yield from rows.values()


def _full_consumption(alg, kind, triples=None):
    """Reference solve: eliminate every reference row, with no known solutions."""
    acc = RowAccumulator(alg.dim ** 2)
    for row in _reference_rows(alg, kind, triples):
        acc.add({col: x for col, x in row.items() if x})
    return acc.nullspace()


@cache
def _battery():
    # e0 e1 = e0 has different left and right annihilators (e1 and e0), which
    # no (anti)commutative algebra of the batteries tells apart
    one_sided = make_algebra(2, {(0, 1): [(0, 1)]})
    return builtin_battery() + random_lie_battery() + [("one-sided", one_sided)]


# -- structure solves ---------------------------------------------------------


def test_sorted_triples_solve_the_ordered_hom_jacobi_system():
    # the proof is in _hom_terms' docstring; the tensor has a Jacobi defect
    defect = make_algebra(
        3,
        {(0, 1): [(2, 1)], (1, 0): [(2, -1)], (1, 2): [(1, 1)], (2, 1): [(1, -1)]},
        flavor="generic-anticommutative",
    )
    tensor = tensor_lie(builtin("trunc_poly", 2), defect)
    assert tensor.jacobi_witness is not None
    algebras = [(name, alg) for name, alg in _battery() if alg.is_anticommutative()]
    for name, alg in algebras + [("trunc_poly:2 (x) defect", tensor)]:
        ordered = _full_consumption(alg, HOM_LIE, itertools.product(range(alg.dim), repeat=3))
        assert solve_structures(alg, HOM_LIE).space == _full_consumption(alg, HOM_LIE) == ordered, name


@pytest.mark.parametrize("name, kinds", [("sl3", {int, Fraction}), ("so5", {Fraction}), ("trunc_poly:3", {Fraction})])
def test_halved_table_keeps_the_structure_spaces(name, kinds):
    # every term (ab)phi(c) reads the product twice, so halving the table
    # scales each row by 1/4; on sl3 the halved constants mix 1/2 and ints
    alg = parse_builtin(name)
    half = make_algebra(
        alg.dim,
        {pair: [(k, F(c, 2)) for k, c in terms] for pair, terms in alg.table.items()},
        basis_names=alg.basis_names,
        flavor=alg.flavor,
        grading=alg.grading,
    )
    assert {type(c) for terms in half.table.values() for _, c in terms} == kinds
    for kind in (HOM_LIE, HOM_CYCLIC, HOM_2NILP):
        assert solve_structures(half, kind).space == solve_structures(alg, kind).space, kind


def test_homlie_sl2_dimension():
    sol = solve_structures(builtin("sl", 2), HOM_LIE)
    assert sol.dim == 6
    assert sol.contains_map(Matrix.identity(3))


@pytest.mark.parametrize(
    "name,param",
    [("sl", 3), ("so", 5), ("sp", 4), ("sl", 5), ("sl", 6), ("so", 7), ("sp", 6), ("sl", 7), ("so", 8), ("so", 9), ("sp", 8)],
)
def test_homlie_trivial_on_larger_classical(name, param):
    alg = builtin(name, param)
    sol = solve_structures(alg, HOM_LIE)
    assert sol.dim == 1
    assert sol.contains_map(Matrix.identity(alg.dim))
    assert sol.space == _full_consumption(alg, HOM_LIE)


@pytest.mark.parametrize("kind", [HOM_LIE, HOM_CYCLIC, HOM_2NILP], ids=str)
def test_known_solutions_have_zero_residual_everywhere(kind):
    # the certificate is checked by the independent evaluator, not assumed;
    # K is read in End, and on the graded tables with a centre each row must
    # lie in its own shift's block
    graded = [("heisenberg-graded", _regraded(builtin("heisenberg"), {"x": 1, "y": 1, "z": 2}.get)),
              ("gl2-graded", _regraded(builtin("gl", 2), lambda name: int(name[1]) - int(name[2])))]
    for name, alg in _battery() + graded:
        n, deg = alg.dim, alg.grading or (0,) * alg.dim
        for shift in grading_shifts(alg):
            for _, row in _known_block(alg, kind, shift).rows:  # in End: phi(e_c) -> e_q at q*n + c
                assert all(deg[j // n] == deg[j % n] + shift for j in row), (name, shift)
                phi = Matrix.from_sparse(n, n, {divmod(j, n): x for j, x in row.items()})
                for triple in itertools.product(range(n), repeat=3):
                    assert not any(structure_residual(alg, phi, kind, triple)), (name, shift, triple)


@pytest.mark.parametrize(
    "kind",
    [HOM_LIE, HOM_CYCLIC, HOM_2NILP] + [delta_derivation(d) for d in ("-1", "1/2", "1", "2")],
    ids=str,
)
def test_solve_matches_full_consumption(kind):
    for name, alg in _battery():
        assert solve_structures(alg, kind).space == _full_consumption(alg, kind), name


@pytest.mark.parametrize(
    "kind",
    [HOM_LIE, HOM_CYCLIC, HOM_2NILP] + [delta_derivation(d) for d in ("-1", "1/2", "1", "2")],
    ids=str,
)
def test_grading_split_is_exact(kind):
    # a graded solve runs one pass per shift block; the same table
    # without the grading is one block, all of End.  trunc_poly is graded by
    # degree, sl_n principally (deg E_ij = j - i, the Cartan part in degree
    # 0), and sp_2m by its blocks (A -> 0, B -> 1, C -> -1); make_algebra
    # validates each grading
    graded = [builtin("trunc_poly", m) for m in range(2, 6)]
    assert [alg.grading for alg in graded] == [tuple(range(m)) for m in range(2, 6)]
    for n in range(3, 7):
        graded.append(_regraded(builtin("sl", n), lambda name: int(name[2]) - int(name[1]) if name[0] == "E" else 0))
    for n in (4, 6):
        graded.append(_regraded(builtin("sp", n), lambda name: {"A": 0, "B": 1, "C": -1}[name[0]]))
    for alg in graded:
        ungraded = dataclasses.replace(alg, grading=None)
        assert solve_structures(alg, kind).space == solve_structures(ungraded, kind).space, alg.basis_names


@pytest.mark.parametrize("kind", [HOM_LIE, HOM_CYCLIC, HOM_2NILP, delta_derivation("2")], ids=str)
def test_shift_residuals_sum_to_the_residual(kind):
    # on principal-graded sl4 each shift's residual is the residual of the
    # part of phi of that shift, and phi is the sum of its parts
    alg = _regraded(builtin("sl", 4), lambda name: int(name[2]) - int(name[1]) if name[0] == "E" else 0)
    n, deg, rng = alg.dim, alg.grading, random.Random(13)
    entries = {(rng.randrange(n), rng.randrange(n)): F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(40)}
    phi = Matrix.from_sparse(n, n, entries)
    parts = {s: Matrix.from_sparse(n, n, {(u, c): x for (u, c), x in entries.items() if deg[u] - deg[c] == s})
             for s in grading_shifts(alg)}
    assert sum(not part.is_zero() for part in parts.values()) > 3
    nonzero = 0
    for triple in rng.sample(list(itertools.permutations(range(n), 3)), 300):
        shifted = {s: structure_residual(alg, phi, kind, triple, s) for s in parts}
        assert shifted == {s: structure_residual(alg, part, kind, triple) for s, part in parts.items()}, triple
        whole = structure_residual(alg, phi, kind, triple)
        assert tuple(map(sum, zip(*shifted.values()))) == whole, triple
        nonzero += any(whole)
    assert nonzero > 30


@pytest.mark.parametrize("kind", [HOM_LIE, HOM_2NILP, delta_derivation("2")], ids=str)
@pytest.mark.parametrize("shape", [(4, 4), (3, 4), (4, 3), (2, 2)], ids=str)
def test_residual_rejects_a_map_of_another_shape(shape, kind):
    # the extra rows or columns of a larger map were ignored, and a smaller
    # map ran out of columns (IndexError)
    phi = Matrix.from_sparse(*shape, {(i, i): 1 for i in range(min(shape))})
    with pytest.raises(ValueError, match="map shape does not match the algebra"):
        structure_residual(builtin("sl", 2), phi, kind, (0, 1, 2))


def _regraded(alg, degree_of):
    """``alg`` graded by the degree of each basis name."""
    grading = [degree_of(name) for name in alg.basis_names]
    return make_algebra(alg.dim, alg.table, basis_names=alg.basis_names, flavor=alg.flavor, grading=grading)


def test_one_pass_compiles_each_triple_at_most_once(monkeypatch):
    """Each block K does not fill is compiled by one ``_triples`` pass of
    its own (``_solve_block``, the direct compile of one block), which hands
    out each triple at most once; a block that K fills makes no pass."""
    from homlie import solver

    passes = []

    def counted(plan, kind):
        passes.append([])
        for run in triples(plan, kind):
            passes[-1].append(run)
            yield run

    triples = solver._triples
    monkeypatch.setattr(solver, "_triples", counted)
    sl4 = _regraded(builtin("sl", 4), lambda name: int(name[2]) - int(name[1]) if name[0] == "E" else 0)
    for kind in (HOM_LIE, HOM_CYCLIC, HOM_2NILP):
        passes.clear()
        space = direct_router(sl4, kind, grading_shifts(sl4), nullspace_of_rows)
        open_blocks = [shift for shift in grading_shifts(sl4)
                       if solver._known_block(sl4, kind, shift).dim < sum(map(len, block_col_of(sl4, shift)))]
        assert len(passes) == len(open_blocks) > 1, kind
        for runs in passes:
            compiled = Counter((a, b, c) for a, b, cs in runs for c in cs)
            assert compiled and max(compiled.values()) == 1, kind
        assert space == _full_consumption(sl4, kind), kind
    passes.clear()
    abelian = builtin("abelian", 3)  # K, the maps into the annihilator, is all of End
    assert solver._solve_block(abelian, HOM_LIE, 0, nullspace_of_rows).dim == 9 and passes == []


def test_solves_are_kept_on_the_algebra_and_go_with_it():
    alg = builtin("sl", 3)
    for kind in (HOM_LIE, HOM_CYCLIC, delta_derivation(1)):
        assert solve_structures(alg, kind) is solve_structures(alg, kind)
    for kind in ("asym-cocycle", "coboundary"):
        assert solve_bilinear(alg, kind) is solve_bilinear(alg, kind)
    assert solve_structures(builtin("sl", 3), HOM_LIE) is not solve_structures(alg, HOM_LIE)
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


def test_only_the_hom_kinds_solve_the_right_annihilator():
    # the plan's annihilator gives the hom kinds known solutions; a delta
    # solve or a residual builds the plan without solving it
    alg = builtin("sl", 3)
    solve_structures(alg, delta_derivation(2))
    structure_residual(alg, Matrix.identity(alg.dim), HOM_LIE, (0, 1, 2))
    assert "annihilator" not in vars(_plan(alg))
    solve_structures(alg, HOM_LIE)
    assert "annihilator" in vars(_plan(alg))


def test_homlie_abelian_unconstrained():
    assert solve_structures(builtin("abelian", 3), HOM_LIE).dim == 9


def test_homlie_nonabelian2_is_all_of_end():
    assert solve_structures(builtin("nonabelian2"), HOM_LIE).dim == 4


def test_homcycl_truncated_polynomials_are_multiplications():
    tp3 = builtin("trunc_poly", 3)
    sol = solve_structures(tp3, HOM_CYCLIC)
    assert sol.dim == 3
    mults = Subspace.from_spanning(
        [tp3.left_mul_matrix(tp3.basis_vector(i)).flatten() for i in range(3)], 9
    )
    assert sol.space == mults


def test_hom2nilp_values():
    assert solve_structures(builtin("trunc_poly", 3), HOM_2NILP).dim == 0
    sol = solve_structures(builtin("nonabelian2"), HOM_2NILP)
    assert sol.dim == 2
    for m in sol.basis_maps():
        assert all(v == 0 for v in m.data[1])  # image inside the x-line


def test_delta_derivations():
    sl2 = builtin("sl", 2)
    inner = Subspace.from_spanning(
        [sl2.left_mul_matrix(sl2.basis_vector(i)).flatten() for i in range(3)], 9
    )
    d1 = solve_structures(sl2, delta_derivation(1))
    assert d1.dim == 3 and d1.space == inner
    dhalf = solve_structures(sl2, delta_derivation("1/2"))
    assert dhalf.contains_map(Matrix.identity(3))


def test_multiplicative_kind_is_not_solvable():
    with pytest.raises(ValueError):
        solve_structures(builtin("sl", 2), StructureKind("multiplicative-check-only"))


def test_an_unknown_kind_is_named_by_the_solver_and_the_residual():
    sl2, foo = builtin("sl", 2), StructureKind("foo")
    with pytest.raises(ValueError, match="solve_structures cannot handle kind 'foo'"):
        solve_structures(sl2, foo)
    with pytest.raises(ValueError, match="structure_residual cannot handle kind 'foo'"):
        structure_residual(sl2, Matrix.identity(3), foo, (0, 1, 2))


def test_parse_kind():
    assert parse_kind("hom-lie") == HOM_LIE
    assert parse_kind("delta:1/2").delta == F(1, 2)
    with pytest.raises(ValueError):
        parse_kind("nope")


@pytest.mark.parametrize(
    "algname,kind",
    [
        ("sl2", HOM_LIE),
        ("heisenberg", HOM_LIE),
        ("nonabelian2", HOM_2NILP),
        ("trunc_poly3", HOM_CYCLIC),
        ("sl2", delta_derivation(2)),
    ],
)
def test_solutions_have_zero_residual_everywhere(algname, kind):
    # soundness re-check, independent of the row compiler
    from homlie.algebra import parse_builtin

    alg = parse_builtin(algname.replace("trunc_poly3", "trunc_poly:3"))
    sol = solve_structures(alg, kind)
    n = alg.dim
    for phi in sol.basis_maps():
        for triple in itertools.product(range(n), repeat=3):
            assert not any(structure_residual(alg, phi, kind, triple))


def test_intersection_identity_examples():
    for alg in (builtin("gl", 2), builtin("nonabelian2"), builtin("trunc_poly", 2)):
        hl = solve_structures(alg, HOM_LIE).space
        hc = solve_structures(alg, HOM_CYCLIC).space
        h2 = solve_structures(alg, HOM_2NILP).space
        assert hl.intersect(hc) == h2


# -- bilinear forms -----------------------------------------------------------


def test_asym_cocycles_sl2_exceed_coboundaries():
    # the cocycle expression is alternating trilinear: one scalar equation on
    # a 3-dimensional algebra, so the space has dim 9 - 1 = 8 and strictly
    # contains the 3-dim coboundary space
    sl2 = builtin("sl", 2)
    z2 = solve_bilinear(sl2, "asym-cocycle")
    b2 = coboundary_space(sl2)
    assert z2.dim == 8 and b2.dim == 3
    assert b2.is_subspace_of(z2) and z2 != b2
    witness = Matrix.from_sparse(3, 3, {(1, 1): 1, (0, 2): -1})
    assert z2.contains(witness.flatten())
    assert not b2.contains(witness.flatten())


def test_asym_cocycles_sl3_equal_coboundaries():
    sl3 = builtin("sl", 3)
    z2 = solve_bilinear(sl3, "asym-cocycle")
    assert z2.dim == 8
    assert z2 == coboundary_space(sl3)


def test_skew_cocycles_sl2_equal_coboundaries():
    sl2 = builtin("sl", 2)
    assert solve_bilinear(sl2, "skew-cocycle") == coboundary_space(sl2)


def test_cocycles_on_abelian_are_everything():
    assert solve_bilinear(builtin("abelian", 2), "asym-cocycle").dim == 4


def test_sym_invariant_forms_sl2_are_killing_multiples():
    sl2 = builtin("sl", 2)
    si = solve_bilinear(sl2, "sym-invariant")
    assert si.dim == 1
    assert si.contains(killing_form(sl2).matrix.flatten())


def test_b_space_contains_invariant_forms():
    # f([x,y],z) = f([z,x],y) holds for symmetric invariant forms
    sl2 = builtin("sl", 2)
    b = solve_bilinear(sl2, "b-space")
    assert b.contains(killing_form(sl2).matrix.flatten())


def test_bilinear_rejects_unknown_kind_and_flavor():
    with pytest.raises(ValueError):
        solve_bilinear(builtin("sl", 2), "nope")
    with pytest.raises(ValueError):
        solve_bilinear(builtin("trunc_poly", 2), "asym-cocycle")


# -- quasiderivations ---------------------------------------------------------


def _naive_nullspace_dim(rows, ncols):
    """Dense textbook elimination over Fractions, no sparse tricks."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        scale = m[rank][col]
        m[rank] = [x / scale for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return ncols - rank


def test_qder_sl3_adjoint_d_component_is_inner_plus_scalars():
    sl3 = builtin("sl", 3)
    sol = solve_qder(sl3, "adjoint")
    expected = Subspace.from_spanning(
        [sl3.left_mul_matrix(sl3.basis_vector(i)).flatten() for i in range(8)]
        + [Matrix.identity(8).flatten()],
        64,
    )
    assert sol.d_component() == expected


def test_qder_sl2_adjoint_d_component_is_everything():
    # on the 3-dim simple algebra the bracket identifies the second exterior
    # power with the algebra, so every D admits a partner F and the
    # D-component is all of End
    sl2 = builtin("sl", 2)
    sol = solve_qder(sl2, "adjoint")
    assert sol.dim == 9
    assert sol.d_component() == Subspace.full(9)
    inner_plus_id = Subspace.from_spanning(
        [sl2.left_mul_matrix(sl2.basis_vector(i)).flatten() for i in range(3)]
        + [Matrix.identity(3).flatten()],
        9,
    )
    assert inner_plus_id.is_subspace_of(sol.d_component())


def test_qder_abelian_everything():
    assert solve_qder(builtin("abelian", 2), "adjoint").dim == 8


def test_qder_heisenberg_against_dense_oracle():
    # brute force: enumerate the defining equations over all basis pairs into
    # one dense matrix and eliminate naively
    alg = builtin("heisenberg")
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [F(0)] * (2 * n * n)
                ei, ej = alg.basis_vector(i), alg.basis_vector(j)
                prod = alg.multiply(ei, ej)
                for k, c in enumerate(prod):
                    if c:
                        row[m * n + k] += c
                for q in range(n):
                    w = alg.multiply(alg.basis_vector(q), ej)
                    if w[m]:
                        row[n * n + q * n + i] -= w[m]
                    w = alg.multiply(ei, alg.basis_vector(q))
                    if w[m]:
                        row[n * n + q * n + j] -= w[m]
                if any(row):
                    rows.append(row)
    expected_dim = _naive_nullspace_dim(rows, 2 * n * n)
    assert solve_qder(alg, "adjoint").dim == expected_dim


def test_qder_requires_lie():
    with pytest.raises(ValueError):
        solve_qder(builtin("trunc_poly", 2))


# -- the cocycle/quasiderivation sequence -------------------------------------


@pytest.mark.parametrize("algname", ["sl2", "heisenberg", "abelian2"])
def test_sequence_exactness(algname):
    alg = {"sl2": builtin("sl", 2), "heisenberg": builtin("heisenberg"), "abelian2": builtin("abelian", 2)}[algname]
    rep = seq_uv(alg)
    assert rep.u_injective
    assert rep.u_image == rep.v_kernel
    assert rep.exact


def test_sequence_image_dimension_matches_cocycles():
    sl2 = builtin("sl", 2)
    rep = seq_uv(sl2)
    assert rep.u_image.dim == solve_bilinear(sl2, "asym-cocycle").dim == 8


# -- derived forms and multiplicativity ---------------------------------------


def test_f_t_produces_cocycles():
    sl2 = builtin("sl", 2)
    kf = killing_form(sl2)
    cocycles = solve_bilinear(sl2, "asym-cocycle")
    built = f_t(sl2, kf, Matrix.identity(3), sl2.basis_vector(1))
    assert not built.matrix.is_zero()
    assert cocycles.contains(built.matrix.flatten())
    sol = solve_structures(sl2, HOM_LIE)
    for phi in sol.basis_maps():
        built = f_t(sl2, kf, phi, sl2.basis_vector(2))
        assert cocycles.contains(built.matrix.flatten())


def test_f_t_is_the_form_its_pairings_give():
    """f_t's product B F phi against the form's own ``__call__``, entry by
    entry: <phi(e_j), [e_i, t]> at (i, j), with the Killing form, a few
    solved structures and random Fraction t, on the Lie battery."""
    rng = random.Random(31)
    checked = 0
    for name, alg in builtin_battery() + random_lie_battery():
        if alg.flavor != "lie":
            continue
        n, kf = alg.dim, killing_form(alg)
        for phi in (solve_structures(alg, HOM_LIE).basis_maps() or [Matrix.identity(n)])[:3] * 2:
            t = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            brackets = [sparse_product(alg.rows, {i: 1}, dict(enumerate(t))) for i in range(n)]
            want = Matrix(tuple(tuple(kf(col, xi_t) for col in phi.sparse_cols) for xi_t in brackets), n)
            assert f_t(alg, kf, phi, t).matrix == want, name
            checked += 1
    assert checked > 150


def test_f_t_zero_translation():
    sl2 = builtin("sl", 2)
    assert f_t(sl2, killing_form(sl2), Matrix.identity(3), (F(0),) * 3).matrix.is_zero()


def test_f_t_rejects_non_structures():
    sl2 = builtin("sl", 2)
    bad = Matrix.from_sparse(3, 3, {(0, 1): 1})  # h -> e-, not a structure
    assert not solve_structures(sl2, HOM_LIE).contains_map(bad)
    with pytest.raises(ValueError):
        f_t(sl2, killing_form(sl2), bad, sl2.basis_vector(1))


@pytest.mark.parametrize("size", [2, 4])
def test_forms_of_the_wrong_shape_are_refused(size):
    """A form that is not dim x dim is refused by the invariance check, and
    so by km_window and f_t: a 4x4 form with sl2's Killing form in its
    corner is no form on sl2, and a 2x2 one cannot pair its products."""
    sl2 = builtin("sl", 2)
    kf = killing_form(sl2).matrix
    corner = {(i, j): kf.entry(i, j) for i in range(3) for j in range(3) if kf.entry(i, j)}
    form = BilinearForm(Matrix.from_sparse(4, 4, corner) if size == 4 else Matrix.zeros(2, 2))
    calls = [
        lambda: form.is_invariant(sl2),
        lambda: km_window(sl2, form, 2),
        lambda: f_t(sl2, form, Matrix.identity(3), sl2.basis_vector(1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="form shape does not match the algebra"):
            call()


def test_f_t_checks_each_form_once_per_algebra(monkeypatch):
    """The symmetric-and-invariant verdict is kept on the algebra under the
    form: three calls with one Killing form run one invariance scan, and a
    form that fails the check, or has the wrong shape, raises on every call."""
    scans = []
    is_invariant = BilinearForm.is_invariant

    def counted(form, alg):
        scans.append(form)
        return is_invariant(form, alg)

    monkeypatch.setattr(BilinearForm, "is_invariant", counted)
    sl2 = builtin("sl", 2)
    kf = killing_form(sl2)
    for k in range(3):
        f_t(sl2, kf, Matrix.identity(3), sl2.basis_vector(k))
    assert scans == [kf]
    f_t(builtin("sl", 2), kf, Matrix.identity(3), sl2.basis_vector(0))  # another algebra: its own scan
    assert len(scans) == 2
    not_invariant = BilinearForm(Matrix.identity(3))
    assert not_invariant.is_symmetric() and not is_invariant(not_invariant, sl2)
    wrong_shape = BilinearForm(Matrix.identity(4))
    for form, match in ((not_invariant, "symmetric and invariant"), (wrong_shape, "form shape")):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                f_t(sl2, form, Matrix.identity(3), sl2.basis_vector(1))


def test_contains_map_refuses_a_map_of_the_wrong_shape():
    sl2 = builtin("sl", 2)
    flat = Matrix.from_rows([list(Matrix.identity(3).flatten())])  # 1 x 9: the identity's entries
    with pytest.raises(ValueError, match="map shape does not match the algebra"):
        solve_structures(sl2, HOM_LIE).contains_map(flat)


def test_is_multiplicative():
    sl2 = builtin("sl", 2)
    assert is_multiplicative(sl2, Matrix.identity(3)) is True
    witness = is_multiplicative(sl2, Matrix.identity(3).scale(2))
    assert witness is not True
    lhs, rhs = witness.lhs, witness.rhs
    assert lhs != rhs


# -- formula assemblies and the central-extension oracle -----------------------


def test_current_formula_sl2_tp2():
    l, a = builtin("sl", 2), builtin("trunc_poly", 2)
    direct = solve_structures(tensor_lie(a, l), HOM_LIE)
    span = current_formula_span(l, a)
    assert direct.dim == 12
    assert span.space == direct.space
    assert [d for _, d in span.summands] == [12, 0]


def test_tensor_formula_inclusion_and_unital_equality():
    a, b = builtin("trunc_poly", 2), builtin("sl", 2)
    direct = solve_structures(tensor_lie(a, b), HOM_LIE)
    span = tensor_formula_span(a, b)
    assert span.space == direct.space
    report = span.to_json()
    assert len(report["summands"]) == 4


def test_central_ext_decomposed_matches_direct():
    ab2 = builtin("abelian", 2)
    xi = cocycle2(ab2, Matrix.from_rows([[0, 1], [-1, 0]]))
    dec = central_ext_homlie_decomposed(ab2, xi)
    direct = solve_structures(central_extension(ab2, xi), HOM_LIE)
    assert dec.space == direct.space
    # zero cocycle degenerate case
    xi0 = cocycle2(ab2, Matrix.zeros(2, 2))
    assert central_ext_homlie_decomposed(ab2, xi0).space == solve_structures(
        central_extension(ab2, xi0), HOM_LIE
    ).space


def test_central_ext_decomposed_nonabelian_base():
    sl2 = builtin("sl", 2)
    xi0 = cocycle2(sl2, Matrix.zeros(3, 3))
    dec = central_ext_homlie_decomposed(sl2, xi0)
    direct = solve_structures(central_extension(sl2, xi0), HOM_LIE)
    assert dec.space == direct.space
    # xi(z, x) = 1 with z = [x, y] central: phi(z) = x is killed by the
    # derived subalgebra under the bracket but not under the cocycle
    heis = builtin("heisenberg")
    xi = cocycle2(heis, Matrix.from_sparse(3, 3, {(2, 0): 1, (0, 2): -1}))
    assert central_ext_homlie_decomposed(heis, xi).space == solve_structures(central_extension(heis, xi), HOM_LIE).space

"""The Hom, Leibniz, cyclic-cocycle and invariance term builders against
the row compilers they replaced, kept here as references: every system gets
the same set of rows (the order may differ; row order does not change a
kernel), and the Hom and b-space compilers the very same row stream.  The
b-space rows are compiled on hom-cyclic's orbit triples, so their
reference is the replaced compiler on those triples, and the space they
solve is that of every ordered triple.  The sym-invariant rows are
b-space's with the symmetry rows, and the space they solve is that of the
invariance rows at every ordered triple.  The
validators evaluate the same builders, so every solved basis element must
pass its validator.

On tables with undefined products the builders raise, and the Hom rows,
``structure_residual`` and ``is_multiplicative`` skip the equations whose
evaluation raises; the references keep the degree-table and undefined-set
gates those consumers used before."""

import random
import re
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from homlie import solver
from homlie.algebra import AlgebraSpec, BilinearForm, builtin, sparse_product
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import cocycle2, derivation_defect
from homlie.linalg import Matrix, Subspace, dense_vector, nullspace_of_rows, sparse_lincomb
from test_window import WINDOW_MODELS, _closure_structure_residual, _one_sided_gap, _twisted, _untwisted, index_of
from test_orbit_triples import block_reference
from homlie.solver import (
    _SIGNS,
    BILINEAR_KINDS,
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    _hom_rows,
    _leibniz_rows,
    _plan,
    _sparse_rows,
    _triples,
    _symmetry_rows,
    central_ext_homlie_decomposed,
    coboundary_space,
    delta_derivation,
    grading_shifts,
    is_multiplicative,
    seq_uv,
    solve_bilinear,
    solve_qder,
    solve_structures,
    structure_residual,
)

F = Fraction


# -- the replaced compilers ---------------------------------------------------


def grouped_rows(groups):
    """The rows of each group of terms in turn, as the compilers chain ``_sparse_rows``."""
    return chain.from_iterable(map(_sparse_rows, groups))


def ref_cocycle_rows(alg):
    """f(xy, z) + f(zx, y) + f(yz, x) = 0 over i<j<k."""
    n = alg.dim
    return grouped_rows(
        (
            (0, p * n + z, c)
            for x, y, z in ((i, j, k), (k, i, j), (j, k, i))
            for p, c in alg.product_on_basis(x, y)
        )
        for i, j, k in combinations(range(n), 3)
    )


def ref_b_space_rows(alg, triples=None):
    """f(xy, z) - f(zx, y) = 0 over ``triples``, all ordered triples by default."""
    n = alg.dim
    return grouped_rows(
        chain(
            ((0, p * n + k, c) for p, c in alg.product_on_basis(i, j)),
            ((0, p * n + j, -c) for p, c in alg.product_on_basis(k, i)),
        )
        for i, j, k in (product(range(n), repeat=3) if triples is None else triples)
    )


def orbit_triples(alg, kind):
    """The triples ``_triples`` keeps for the kind, in its order."""
    return [(a, b, c) for a, b, cs in _triples(_plan(alg), kind) for c in cs]


def ref_invariance_rows(alg):
    """f(xy, z) - f(x, yz) = 0 over all ordered triples."""
    n = alg.dim
    return grouped_rows(
        chain(
            ((0, p * n + k, c) for p, c in alg.product_on_basis(i, j)),
            ((0, i * n + p, -c) for p, c in alg.product_on_basis(j, k)),
        )
        for i, j, k in product(range(n), repeat=3)
    )


def ref_bilinear_rows(alg, kind):
    n = alg.dim
    if kind == "asym-cocycle":
        yield from ref_cocycle_rows(alg)
    elif kind == "skew-cocycle":
        yield from ref_cocycle_rows(alg)
        yield from _symmetry_rows(n, -1)
    elif kind == "sym-cocycle":
        yield from ref_cocycle_rows(alg)
        yield from _symmetry_rows(n, 1)
    else:  # b-space, and sym-invariant as b-space with the symmetry rows
        yield from ref_b_space_rows(alg, orbit_triples(alg, HOM_CYCLIC))
        if kind == "sym-invariant":
            yield from _symmetry_rows(n, 1)


def ref_coboundary_space(alg):
    n = alg.dim
    gens = [{} for _ in range(n)]
    for (i, j), terms in alg.table.items():
        for m, c in terms:
            gens[m][i * n + j] = c
    return Subspace.from_spanning(gens, n * n)


def ref_qder_rows(alg, module):
    """The quasiderivation rows ``_leibniz_rows`` compiles through D's and
    F's columns (delta 1), written out from ``product_on_basis``."""
    n = alg.dim
    n2 = n * n

    def terms(i, j):
        if module == "adjoint":
            for k, c in alg.product_on_basis(i, j):
                for m in range(n):
                    yield m, m * n + k, c
            for q in range(n):
                for k, c in alg.product_on_basis(q, j):
                    yield k, n2 + q * n + i, -c
                for k, c in alg.product_on_basis(i, q):
                    yield k, n2 + q * n + j, -c
        else:
            for k, c in alg.product_on_basis(i, j):
                for m in range(n):
                    yield m, k * n + m, c
            for m in range(n):
                for p, c in alg.product_on_basis(m, j):
                    yield m, n2 + i * n + p, c
                for p, c in alg.product_on_basis(m, i):
                    yield m, n2 + j * n + p, -c

    return grouped_rows(terms(i, j) for i, j in combinations(range(n), 2))


def ref_seq_kernel_rows(alg):
    n = alg.dim
    n2 = n * n
    yield from ref_qder_rows(alg, "coadjoint")
    for i in range(n):
        for j in range(n):
            yield {i * n + j: F(1), n2 + j * n + i: F(1)}


def ref_compat_rows(l, xi):
    n = l.dim
    f = xi.form.matrix.sparse_rows

    def compat_terms(i, j, k):
        for x, y, t in ((i, j, k), (k, i, j), (j, k, i)):
            for p, c in l.product_on_basis(x, y):
                for q, x in f[p].items():
                    yield 0, q * n + t, c * x

    return grouped_rows(compat_terms(i, j, k) for i, j, k in combinations(range(n), 3))


def ref_delta_rows(alg, delta, blocks):
    """The delta-derivation rows ``_leibniz_rows`` compiles in each shift
    block, as (shift, row), written out from ``product_on_basis``."""
    n = alg.dim
    pairs = combinations(range(n), 2) if alg.is_anticommutative() else product(range(n), repeat=2)

    def terms(i, j, col_of):
        for k, c in alg.product_on_basis(i, j):
            for m, col in col_of[k].items():
                yield m, col, c
        for q, col in col_of[i].items():
            for k, c in alg.product_on_basis(q, j):
                yield k, col, -delta * c
        for q, col in col_of[j].items():
            for k, c in alg.product_on_basis(i, q):
                yield k, col, -delta * c

    for i, j in pairs:
        for s, col_of in blocks.items():
            yield from ((s, row) for row in _sparse_rows(terms(i, j, col_of)))


def ref_hom_rows(plan, kind, blocks):
    """The (shift, row) stream of the shift blocks ``blocks`` (shift ->
    col_of) in one pass, as ``_hom_rows`` compiled it from the
    plan's ``left[p][t]``, the (q, m, coeff) with e_p e_q = sum coeff e_m and
    deg q = t, and ``reads`` holding each product's terms beside the degrees
    where reading it fails: the degree-table gate, run by run and term by
    term, that the plan kept before ``_hom_terms`` raised."""
    n, table, deg = plan.alg.dim, plan.alg.table, plan.deg
    left = [{} for _ in range(n)]
    gaps = [set() for _ in range(n)]
    for (p, q), terms in sorted(table.items()):
        if terms is None:
            gaps[p].add(deg[q])
        else:
            left[p].setdefault(deg[q], []).extend((q, m, c) for m, c in terms)
    reads = {pair: None if terms is None else (terms, frozenset().union(*(gaps[p] for p, _ in terms)))
             for pair, terms in table.items()}
    no_read = ((), frozenset())
    signs = _SIGNS[kind.tag]
    for a, b, cs in _triples(plan, kind):
        first = reads.get((a, b), no_read)
        if first is None:
            continue
        for c in cs:
            shifts = [s for s in blocks if deg[c] + s not in first[1]]
            if not shifts:
                continue
            terms = [(first[0], c)]
            blocked = []
            for (x, y, z), sign in zip(((c, a, b), (b, c, a)), signs[1:]):
                read = reads.get((x, y), no_read)
                if read is None:
                    break
                terms.append((read[0] if sign > 0 else tuple((p, -cw) for p, cw in read[0]), z))
                if read[1]:
                    blocked.append((deg[z], read[1]))
            else:
                for s in shifts:
                    col_of = blocks[s]
                    if blocked and any(d + s in g for d, g in blocked):
                        continue
                    group = (
                        (m, col_of[z][q], cw * cpq)
                        for w, z in terms
                        for p, cw in w
                        for q, m, cpq in left[p].get(deg[z] + s, ())
                    )
                    for row in _sparse_rows(group):
                        yield s, row


def ref_is_multiplicative(alg, phi):
    """``is_multiplicative`` with the gate it had, the set of undefined
    pairs tested before each pair is evaluated; True or (pair, lhs, rhs)."""
    n, table = alg.dim, alg.table
    undefined = {pair for pair, terms in table.items() if terms is None}
    cols = phi.sparse_cols
    for i in range(n):
        for j in range(n):
            if (i, j) in undefined or any((p, q) in undefined for p in cols[i] for q in cols[j]):
                continue
            lhs = sparse_lincomb(*((c, cols[k]) for k, c in table.get((i, j), ())))
            rhs = sparse_product(alg.rows, cols[i], cols[j])
            if lhs != rhs:
                return (i, j), dense_vector(lhs, n), dense_vector(rhs, n)
    return True


# -- helpers ---------------------------------------------------------------------


def row_set(rows):
    return {frozenset(row.items()) for row in rows}


def shift_row_set(rows):
    return {(s, frozenset(row.items())) for s, row in rows}


def block_by_block(blocks, compile_block):
    """The (shift, row) stream of every block's own pass, block after block."""
    return [(s, row) for s, col_of in blocks.items() for row in compile_block(col_of)]


def unsteered():
    """``free`` for a stream read with no kernel behind it: no column is
    reported free, so ``_hom_rows`` keeps to the natural walk."""
    return 0, None


@pytest.fixture
def captured(monkeypatch):
    """The (ncols, rows) of every system ``solver`` hands to ``_solve_modulo``,
    the compilers' own output in the natural walk's order: the rows are
    listed before its unit-row retire step runs, so no column is retired
    while they compile."""
    systems = []
    original = solver._solve_modulo

    def record(known, stream, col_maps, gaps, kernel):
        rows = list(stream(unsteered))
        systems.append((known.ambient, rows))
        return original(known, lambda free: rows, col_maps, gaps, kernel)

    monkeypatch.setattr(solver, "_solve_modulo", record)
    return systems


def algebras():
    return builtin_battery() + random_lie_battery()


def lie_algebras():
    return [(name, a) for name, a in algebras() if a.flavor == "lie"]


def shift_blocks(alg):
    """Every nonempty shift block, shift -> col_of, with col_of[c][q] the
    End column q*n + c of phi(e_c) -> e_q for every q of degree
    deg c + shift, as ``_solve_shift_blocks`` compiles it."""
    n, deg = alg.dim, alg.grading or (0,) * alg.dim
    blocks = {}
    for shift in grading_shifts(alg):
        col_of = [{q: q * n + c for q in range(n) if deg[q] == deg[c] + shift} for c in range(n)]
        if any(col_of):
            blocks[shift] = col_of
    return _plan(alg), blocks


PARTIAL_FLAVORS = ["generic-anticommutative", "generic-commutative", "unchecked"]


def random_partial_table(rng, flavor):
    """A graded table on 3..5 basis vectors of degrees -1..1 whose products
    are undefined at random: e_i e_j is None with probability 1/4, and
    otherwise a random combination of the basis vectors of degree
    deg i + deg j.  A commutative or anticommutative table sets e_j e_i from
    e_i e_j, None with it, as ``km_window`` does."""
    n = rng.randint(3, 5)
    deg = tuple(rng.randint(-1, 1) for _ in range(n))
    sigma = {"generic-anticommutative": -1, "generic-commutative": 1}.get(flavor)
    table = {}
    for i, j in product(range(n), repeat=2):
        if sigma is not None and j < i:
            continue
        if rng.random() < 0.25:
            entry = None
        elif sigma == -1 and i == j:
            continue
        else:
            entry = tuple((k, rng.choice((-2, -1, 1, 3))) for k in range(n)
                          if deg[k] == deg[i] + deg[j] and rng.random() < 0.6)
            if not entry:
                continue
        table[(i, j)] = entry
        if sigma is not None and i != j:
            table[(j, i)] = None if entry is None else tuple((k, sigma * c) for k, c in entry)
    return AlgebraSpec(n, tuple(f"e{u}" for u in range(n)), index_of(n, table), flavor, grading=deg)


def partial_tables():
    """``_one_sided_gap`` and 35 seeded random partial tables of each flavor."""
    rng = random.Random(25)
    return [_one_sided_gap()] + [random_partial_table(rng, flavor) for flavor in PARTIAL_FLAVORS for _ in range(35)]


# -- the tests ---------------------------------------------------------------------


def test_bilinear_kinds_compile_the_replaced_rows(captured):
    for name, alg in lie_algebras():
        for kind in BILINEAR_KINDS:
            captured.clear()
            space = solve_bilinear(alg, kind)
            if kind == "coboundary":
                assert captured == [] and space == ref_coboundary_space(alg), name
                continue
            [(ncols, rows)] = captured
            assert ncols == alg.dim ** 2
            assert row_set(rows) == row_set(ref_bilinear_rows(alg, kind)), (name, kind)
        assert coboundary_space(alg) == ref_coboundary_space(alg), name


def test_sym_invariant_solves_the_invariance_rows():
    """The lemma in ``solve_bilinear``: b-space's rows with the symmetry
    rows solve what f(xy, z) - f(x, yz) = 0 at every ordered triple does
    with them."""
    checked = 0
    for name, alg in lie_algebras() + [("so7", builtin("so", 7)), ("sp6", builtin("sp", 6))]:
        n = alg.dim
        want = nullspace_of_rows(n * n, chain(ref_invariance_rows(alg), _symmetry_rows(n, 1)))
        assert solve_bilinear(alg, "sym-invariant") == want, name
        checked += want.dim > 0
    assert checked > 10


@pytest.mark.parametrize("module", ["adjoint", "coadjoint"])
def test_qder_modules_compile_the_replaced_rows(captured, module):
    for name, alg in lie_algebras():
        captured.clear()
        solve_qder(alg, module)
        [(ncols, rows)] = captured
        assert ncols == 2 * alg.dim ** 2
        assert row_set(rows) == row_set(ref_qder_rows(alg, module)), name


def test_a_changed_pairing_entry_fails_the_cocycle_reference(captured, monkeypatch):
    """The cocycle rows read their second product from the pairing: with
    one entry of the identity pairing changed, they are no longer the
    reference rows."""
    pairing = solver._pairing

    def changed(form_rows):
        table = pairing(form_rows)
        table[1] = {1: ((0, 2),)}
        return table

    monkeypatch.setattr(solver, "_pairing", changed)
    for kind in ("asym-cocycle", "skew-cocycle", "sym-cocycle"):
        alg = builtin("sl", 3)
        captured.clear()
        solve_bilinear(alg, kind)
        [(_, rows)] = captured
        assert row_set(rows) != row_set(ref_bilinear_rows(alg, kind)), kind


def test_a_flipped_action_sign_fails_the_qder_reference(captured, monkeypatch):
    """The coadjoint rows read g + g*: with the sign of one action e_i e*_p
    flipped (and not that of e*_p e_i), they are no longer the reference
    rows."""
    index_of = solver._coadjoint_index

    def flipped(alg):
        index = index_of(alg)
        i, q = next((i, q) for i in range(alg.dim) for q in index[i] if q >= alg.dim)
        index[i][q] = tuple((k, -c) for k, c in index[i][q])
        return index

    monkeypatch.setattr(solver, "_coadjoint_index", flipped)
    alg = builtin("sl", 3)
    captured.clear()
    solve_qder(alg, "coadjoint")
    [(_, rows)] = captured
    assert row_set(rows) != row_set(ref_qder_rows(alg, "coadjoint"))


def test_seq_uv_kernel_compiles_the_replaced_rows(captured):
    for name, alg in lie_algebras():
        solve_bilinear(alg, "asym-cocycle")  # kept on the algebra, so seq_uv's only system is its kernel
        captured.clear()
        seq_uv(alg)
        [(ncols, rows)] = captured
        assert ncols == 2 * alg.dim ** 2
        assert row_set(rows) == row_set(ref_seq_kernel_rows(alg)), name


def test_central_extension_compatibility_compiles_the_replaced_rows(captured):
    checked = 0
    for name, l in lie_algebras():
        n = l.dim
        skew = solve_bilinear(l, "skew-cocycle")
        if not skew.dim or n > 5:
            continue
        forms = [r for _, r in skew.rows[:2]]
        forms.append({c: sum(r.get(c, 0) for r in forms) for c in range(n * n)})
        solve_structures(l, HOM_LIE)  # kept, so the systems below are the decomposed route's own
        for form in forms:
            xi = cocycle2(l, Matrix.unflatten(form, n, n))
            captured.clear()
            central_ext_homlie_decomposed(l, xi)
            compat = [rows for ncols, rows in captured if ncols == n * n]
            assert len(compat) == 1
            assert row_set(compat[0]) == row_set(ref_compat_rows(l, xi)), name
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("delta", [F(-1), F(1, 2), F(1), F(2)], ids=str)
def test_delta_kinds_compile_the_replaced_rows(delta):
    for name, alg in algebras():
        _, blocks = shift_blocks(alg)
        new = shift_row_set(block_by_block(blocks, lambda col_of: _leibniz_rows(alg, alg.rows, col_of, col_of, delta)))
        assert new == shift_row_set(ref_delta_rows(alg, delta, blocks)), name


HOM_KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]
SL2_WINDOWS = [model for model in WINDOW_MODELS if not model.id.startswith("sl3")]


def typed_row(row):
    """The row's entries with their types, in order."""
    return [(col, type(x), x) for col, x in row.items()]


def typed_stream(rows):
    """The (shift, row) stream with every entry's type, block by block,
    each block's rows in order."""
    blocks = {}
    for s, row in rows:
        blocks.setdefault(s, []).append(typed_row(row))
    return blocks


def hom_block_streams(plan, kind, blocks):
    """The typed stream of every block's own ``_hom_rows`` pass, read with no kernel."""
    return typed_stream(block_by_block(blocks, lambda col_of: _hom_rows(plan, kind, col_of, plan.alg.rows, unsteered)))


def test_b_space_compiles_the_replaced_row_stream(captured):
    """The rows of the kept hom-cyclic triples, in order and typed, and the
    space of every ordered triple's rows."""
    for name, alg in lie_algebras():
        n = alg.dim
        captured.clear()
        space = solve_bilinear(alg, "b-space")
        [(_, rows)] = captured
        want = ref_b_space_rows(alg, orbit_triples(alg, HOM_CYCLIC))
        assert list(map(typed_row, rows)) == list(map(typed_row, want)), name
        assert space == nullspace_of_rows(n * n, ref_b_space_rows(alg)), name


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_hom_kinds_compile_the_replaced_row_stream(kind):
    for name, alg in algebras():
        plan, blocks = shift_blocks(alg)
        assert hom_block_streams(plan, kind, blocks) == typed_stream(ref_hom_rows(plan, kind, blocks)), name


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
@pytest.mark.parametrize("model, size", SL2_WINDOWS)
def test_window_hom_kinds_compile_the_replaced_row_stream(model, size, kind):
    plan, blocks = shift_blocks(model(size))
    new = hom_block_streams(plan, kind, blocks)
    assert len(new) > 1 and new == typed_stream(ref_hom_rows(plan, kind, blocks))


def test_solved_spaces_pass_the_validators():
    """Solve and check agree: every delta:1 basis map passes
    ``derivation_defect``, every skew-cocycle basis form passes ``cocycle2``
    and every sym-invariant basis form passes ``is_invariant``."""
    for name, alg in algebras():
        n = alg.dim
        for d in solve_structures(alg, delta_derivation(1)).basis_maps():
            assert derivation_defect(alg, d) is None, name
        if alg.flavor != "lie":
            continue
        for _, row in solve_bilinear(alg, "skew-cocycle").rows:
            cocycle2(alg, Matrix.unflatten(row, n, n))
        for _, row in solve_bilinear(alg, "sym-invariant").rows:
            assert BilinearForm(Matrix.unflatten(row, n, n)).is_invariant(alg), name


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_partial_tables_compile_the_replaced_row_stream(kind):
    """The equations whose evaluation raises are exactly those the degree
    table gated: the same typed stream on every partial table."""
    tables = partial_tables()
    compiled = 0
    for alg in tables:
        plan, blocks = shift_blocks(alg)
        new = hom_block_streams(plan, kind, blocks)
        assert new == typed_stream(ref_hom_rows(plan, kind, blocks)), alg.table
        compiled += sum(map(len, new.values()))
    assert sum(None in alg.table.values() for alg in tables) > 90 and compiled > 1000


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_partial_tables_solve_every_ordered_triple(kind):
    """Shift by shift, the orbit triples solve what every ordered triple
    does, also where an anticommutative table leaves e_b e_b undefined,
    which the cyclic lemma needs defined."""
    undefined_diagonals = 0
    for alg in partial_tables():
        undefined_diagonals += alg.is_anticommutative() and None in (alg.table.get((b, b), ()) for b in range(alg.dim))
        for shift in grading_shifts(alg):
            want = block_reference(alg, kind, shift)
            assert solver._solve_shift_blocks(alg, kind, [shift], solver.nullspace_of_rows) == want, alg.table
    assert undefined_diagonals > 10


def test_partial_tables_residuals_match_the_closure_reference():
    """Same values and the same None cases as the reference for every kind
    and shift, at sparse maps: whether an equation is imposed does not
    depend on which entries of phi are nonzero."""
    rng = random.Random(26)
    kinds = HOM_KINDS + [delta_derivation(2), delta_derivation(F(-1, 2))]
    nones = nonzero = 0
    for alg in partial_tables():
        n = alg.dim
        phi = Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2) for _ in range(2 * n)})
        triples = rng.sample(list(product(range(n), repeat=3)), 12)
        for kind, shift, tri in product(kinds, grading_shifts(alg), triples):
            got = structure_residual(alg, phi, kind, tri, shift)
            assert got == _closure_structure_residual(alg, phi, kind, tri, shift), (alg.table, kind, shift, tri)
            nones += got is None
            nonzero += got is not None and any(got)
    assert nones > 1000 and nonzero > 1000


def test_multiplicativity_skips_the_pairs_the_undefined_set_gated():
    """The same verdict and witness as the undefined-set gate, on the
    partial tables and two windows, for maps that read few or many
    products."""
    rng = random.Random(27)
    verdicts = []
    for alg in partial_tables() + [_untwisted(2), _twisted(3)]:
        n = alg.dim
        maps = [Matrix.identity(n), Matrix.identity(n).scale(2), Matrix.zeros(n, n)]
        maps += [Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): 1}) for _ in range(3)]
        maps.append(Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2)
                                              for _ in range(n)}))
        for phi in maps:
            got = is_multiplicative(alg, phi)
            got = got if got is True else (got.pair, got.lhs, got.rhs)
            assert got == ref_is_multiplicative(alg, phi), alg.table
            verdicts.append(got is True)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_a_window_refuses_to_read_an_undefined_product():
    """``product_on_basis`` and ``sparse_product`` still raise a ValueError
    naming the pair, and a solve that reads one refuses the window."""
    pa = _untwisted(2)
    i, j = next(pair for pair, terms in sorted(pa.table.items()) if terms is None)
    message = f"^{re.escape(f'the basis product ({i}, {j}) is undefined: it leaves the degree window')}$"
    with pytest.raises(ValueError, match=message):
        pa.product_on_basis(i, j)
    with pytest.raises(ValueError, match=message):
        sparse_product(pa.rows, {i: 1}, {j: 1})
    with pytest.raises(ValueError, match="is undefined: it leaves the degree window$"):
        solve_bilinear(pa, "asym-cocycle")

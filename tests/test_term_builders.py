"""Every identity the term builders state, solved by the solver, against
``oracle``: each equation at every ordered tuple, written from the
definition.  The hom and delta kinds are compared block by block on the
builtin and random batteries, the sl2 windows and the partial tables; the
six bilinear kinds, both quasiderivation modules, ``seq_uv`` and the
central-extension compatibility system on the Lie batteries.  The
validators evaluate the same builders, so every solved basis element must
pass its validator.

On tables with undefined products the builders raise, and the Hom rows,
``structure_residual`` and ``is_multiplicative`` skip the equations whose
evaluation raises; the oracle imposes an equation exactly when every
product it reads is defined."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

import oracle
from homlie import solver
from homlie.algebra import BilinearForm, builtin, sparse_product
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import cocycle2, derivation_defect
from homlie.linalg import Matrix, Subspace
from homlie.solver import (
    BILINEAR_KINDS,
    HOM_LIE,
    _solve_shift_blocks,
    central_ext_homlie_decomposed,
    coboundary_space,
    delta_derivation,
    grading_shifts,
    is_multiplicative,
    nullspace_of_rows,
    seq_uv,
    solve_bilinear,
    solve_qder,
    solve_structures,
    structure_residual,
)
from shared import HOM_KINDS, WINDOW_MODELS, dense_is_multiplicative, partial_tables, twisted, untwisted

F = Fraction


def algebras():
    return builtin_battery() + random_lie_battery()


def lie_algebras():
    return [(name, a) for name, a in algebras() if a.flavor == "lie"]


def block_mismatches(name, alg, kind, reference):
    """The shifts whose block, solved alone by ``_solve_shift_blocks``,
    differs from the oracle's."""
    want = reference(name, alg, "blocks", kind)
    assert list(want) == grading_shifts(alg)
    return [s for s in want if _solve_shift_blocks(alg, kind, [s], nullspace_of_rows) != want[s]]


def test_bilinear_kinds_compile_the_replaced_rows(reference):
    """The six bilinear kinds, and ``coboundary_space``, against the
    oracle's cocycle, b-space, invariance and symmetry equations at every
    ordered triple and pair, and its coboundary span."""
    for name, alg in lie_algebras():
        for kind in BILINEAR_KINDS:
            assert solve_bilinear(alg, kind) == reference(name, alg, "form_space", kind), (name, kind)
        assert coboundary_space(alg) == oracle.coboundaries(alg), name


def test_sym_invariant_solves_the_invariance_rows(reference):
    """The lemma in ``solve_bilinear``: b-space's rows with the symmetry
    rows solve what f(xy, z) - f(x, yz) = 0 at every ordered triple does
    with them."""
    checked = 0
    for name, alg in lie_algebras() + [("so7", builtin("so", 7)), ("sp6", builtin("sp", 6))]:
        want = reference(name, alg, "form_space", "sym-invariant")
        assert solve_bilinear(alg, "sym-invariant") == want, name
        checked += want.dim > 0
    assert checked > 10


@pytest.mark.parametrize("module", ["adjoint", "coadjoint"])
def test_qder_modules_compile_the_replaced_rows(module, reference):
    for name, alg in lie_algebras():
        assert solve_qder(alg, module).space == reference(name, alg, "qder_space", module), name


def test_a_changed_pairing_entry_fails_the_cocycle_reference(monkeypatch):
    """The cocycle rows read their second product from the pairing: with
    one entry of the identity pairing changed, each cocycle kind's space
    differs from the oracle's on sl2 or sl3 (sl3 has no sym cocycle to
    lose, and sl2's skew cocycles are the coboundaries either way)."""
    pairing = solver._pairing

    def changed(form_rows):
        table = pairing(form_rows)
        table[1] = {1: ((0, 2),)}
        return table

    monkeypatch.setattr(solver, "_pairing", changed)
    for kind in ("asym-cocycle", "skew-cocycle", "sym-cocycle"):
        assert any(solve_bilinear(alg := builtin("sl", n), kind) != oracle.form_space(alg, kind) for n in (2, 3)), kind


def test_a_flipped_action_sign_fails_the_qder_reference(monkeypatch):
    """The coadjoint rows read g + g*: with the sign of one action e_i e*_p
    flipped (and not that of e*_p e_i), they no longer solve the oracle's
    coadjoint pairs."""
    index_of = solver._coadjoint_index

    def flipped(alg):
        index = index_of(alg)
        i, q = next((i, q) for i in range(alg.dim) for q in index[i] if q >= alg.dim)
        index[i][q] = tuple((k, -c) for k, c in index[i][q])
        return index

    monkeypatch.setattr(solver, "_coadjoint_index", flipped)
    alg = builtin("sl", 3)
    assert solve_qder(alg, "coadjoint").space != oracle.qder_space(alg, "coadjoint")


def test_seq_uv_kernel_compiles_the_replaced_rows(reference):
    for name, alg in lie_algebras():
        report = seq_uv(alg)
        assert (report.u_image, report.v_kernel, report.u_injective) == reference(name, alg, "seq_uv"), name


def test_central_extension_compatibility_compiles_the_replaced_rows(solved):
    """The decomposed route's compatibility system, the one system of n^2
    columns it solves once hom-lie is kept, against the oracle's."""
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
            solved.clear()
            central_ext_homlie_decomposed(l, xi)
            [compat] = [space for space in solved if space.ambient == n * n]
            assert compat == oracle.compat_space(l, xi.form.matrix.sparse_rows), name
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("delta", [F(-1), F(1, 2), F(1), F(2)], ids=str)
def test_delta_kinds_compile_the_replaced_rows(delta, reference):
    for name, alg in algebras():
        assert block_mismatches(name, alg, delta_derivation(delta), reference) == [], name


def test_b_space_compiles_the_replaced_row_stream(reference):
    """b-space's rows, compiled on hom-cyclic's kept triples, solve what
    f(xy, z) - f(zx, y) = 0 at every ordered triple does, on the Lie
    batteries, so7 and sp6."""
    for name, alg in lie_algebras() + [("so7", builtin("so", 7)), ("sp6", builtin("sp", 6))]:
        assert solve_bilinear(alg, "b-space") == reference(name, alg, "form_space", "b-space"), name


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_hom_kinds_compile_the_replaced_row_stream(kind, reference):
    for name, alg in algebras():
        assert block_mismatches(name, alg, kind, reference) == [], name


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
@pytest.mark.parametrize("model, size", [p for p in WINDOW_MODELS if not p.id.startswith("sl3")])
def test_window_hom_kinds_compile_the_replaced_row_stream(model, size, kind, reference):
    alg = model(size)
    assert len(grading_shifts(alg)) > 1
    assert block_mismatches(f"{model.__name__}-{size}", alg, kind, reference) == []


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
def test_partial_tables_compile_the_replaced_row_stream(kind, reference):
    """The all-shift solve, which conjugates a block from its mirror where
    the table has one, is the sum of the oracle's blocks on every partial
    table."""
    tables = partial_tables()
    solved = 0
    for i, alg in enumerate(tables):
        want = reference(f"partial-{i}", alg, "blocks", kind)
        space = solve_structures(alg, kind).space
        assert space == Subspace(alg.dim ** 2, sorted((pr for b in want.values() for pr in b.rows), key=lambda pr: pr[0]))
        solved += space.dim
    assert sum(None in alg.table.values() for alg in tables) > 90 and solved > 100


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_partial_tables_solve_every_ordered_triple(kind, reference):
    """Shift by shift, the orbit triples solve what every ordered triple
    does, also where an anticommutative table leaves e_b e_b undefined,
    which the cyclic lemma needs defined."""
    undefined_diagonals = 0
    for i, alg in enumerate(partial_tables()):
        undefined_diagonals += alg.is_anticommutative() and None in (alg.table.get((b, b), ()) for b in range(alg.dim))
        assert block_mismatches(f"partial-{i}", alg, kind, reference) == [], alg.table
    assert undefined_diagonals > 10


def test_partial_tables_residuals_match_the_closure_reference():
    """Same values and the same None cases as the oracle's equations
    evaluated at phi, for every kind and shift, at sparse maps: whether an
    equation is imposed does not depend on which entries of phi are
    nonzero."""
    rng = random.Random(26)
    kinds = HOM_KINDS + [delta_derivation(2), delta_derivation(F(-1, 2))]
    nones = nonzero = 0
    for alg in partial_tables():
        n = alg.dim
        phi = Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2) for _ in range(2 * n)})
        triples = rng.sample(list(product(range(n), repeat=3)), 12)
        for kind, tri in product(kinds, triples):
            for shift, want in oracle.residuals(alg, phi, kind, tri).items():
                got = structure_residual(alg, phi, kind, tri, shift)
                assert got == want, (alg.table, kind, shift, tri)
                nones += got is None
                nonzero += got is not None and any(got)
    assert nones > 1000 and nonzero > 1000


def test_multiplicativity_skips_the_pairs_the_undefined_set_gated():
    """The same verdict and witness as the dense reference, which skips a
    pair whose products read an undefined basis product, on the partial
    tables and two windows, for maps that read few or many products."""
    rng = random.Random(27)
    verdicts = []
    for alg in partial_tables() + [untwisted(2), twisted(3)]:
        n = alg.dim
        maps = [Matrix.identity(n), Matrix.identity(n).scale(2), Matrix.zeros(n, n)]
        maps += [Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): 1}) for _ in range(3)]
        maps.append(Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2)
                                              for _ in range(n)}))
        for phi in maps:
            got = is_multiplicative(alg, phi)
            assert got == dense_is_multiplicative(alg, phi), alg.table
            verdicts.append(got is True)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_a_window_refuses_to_read_an_undefined_product():
    """``product_on_basis`` and ``sparse_product`` still raise a ValueError
    naming the pair, and a solve that reads one refuses the window."""
    pa = untwisted(2)
    i, j = next(pair for pair, terms in sorted(pa.table.items()) if terms is None)
    message = f"^{re.escape(f'the basis product ({i}, {j}) is undefined: it leaves the degree window')}$"
    with pytest.raises(ValueError, match=message):
        pa.product_on_basis(i, j)
    with pytest.raises(ValueError, match=message):
        sparse_product(pa.rows, {i: 1}, {j: 1})
    with pytest.raises(ValueError, match="is undefined: it leaves the degree window$"):
        solve_bilinear(pa, "asym-cocycle")

import functools
import itertools
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracle
from homlie.algebra import (BILINEAR_KINDS, AlgebraSpec, UndefinedProduct, _evaluate, _hom_terms, builtin,
                            killing_form)
from homlie import solver, window
from homlie.constructions import km_window
from homlie.linalg import Matrix, Subspace, nullspace_of_rows
from homlie.solver import (
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    _SIGNS,
    _known_block,
    _plan,
    _solve_block,
    _triples,
    delta_derivation,
    grading_shifts,
    is_multiplicative,
    seq_uv,
    solve_bilinear,
    solve_qder,
    solve_structures,
    structure_residual,
)
from homlie.window import (
    beta_map,
    central_maps,
    solve_window,
    window_shifts,
)
from shared import (WINDOW_MODELS, a22, a22_grading, index_of, one_sided_gap, raises_in_every_block, replaced, twisted,
                    untwisted, witt)

F = Fraction


def _block_basis(pa, shift):
    """Basis of the kernel of one shift block, in End coordinates, compiled
    directly (``solver._solve_block``)."""
    return _solve_block(pa, HOM_LIE, shift, nullspace_of_rows).basis.data


def _bracket_table(dim, products):
    """A full product index from one order of each bracket: [e_j, e_i] = -[e_i, e_j]."""
    table = dict(products)
    for (i, j), terms in products.items():
        table[(j, i)] = None if terms is None else tuple((k, -c) for k, c in terms)
    return index_of(dim, table)


def test_window_too_small():
    # N is read back as max |grading|: clamp the degrees of an N=2 window to N=1
    pa = untwisted(2)
    pa = replaced(pa, grading=tuple(max(-1, min(1, d)) for d in pa.grading))
    with pytest.raises(ValueError, match="at least 2"):
        solve_window(pa)


def test_delta_on_a_window_is_rejected():
    with pytest.raises(ValueError, match="undefined products"):
        solve_structures(untwisted(2), delta_derivation(1))


# The solves that impose every equation, which a window cannot: each is
# refused before anything is compiled.
WINDOW_REFUSALS = {
    **{kind: functools.partial(solve_bilinear, kind=kind) for kind in BILINEAR_KINDS},
    "qder-adjoint": functools.partial(solve_qder, module="adjoint"),
    "qder-coadjoint": functools.partial(solve_qder, module="coadjoint"),
    "seq_uv": seq_uv,
    "delta:1": functools.partial(solve_structures, kind=delta_derivation(1)),
}


@pytest.mark.parametrize("name", WINDOW_REFUSALS)
def test_a_window_is_refused_naming_its_first_undefined_pair(name):
    """A plain ValueError naming the first undefined pair, not an
    ``UndefinedProduct`` raised from deep in a compile."""
    pa = untwisted(2)
    first = min(pair for pair, terms in pa.table.items() if terms is None)
    with pytest.raises(ValueError, match=re.escape(f"undefined products: the basis product {first} is undefined")) as err:
        WINDOW_REFUSALS[name](pa)
    assert type(err.value) is ValueError


def test_window_solve_is_the_graded_structure_solve():
    pa = twisted(3)
    assert solve_structures(pa, HOM_LIE).space == solve_window(pa).full.space


@pytest.mark.parametrize("shift", [-5, 5, 100])
def test_shift_outside_the_window_is_rejected(shift):
    with pytest.raises(ValueError, match=r"-4\.\.4"):
        solve_window(untwisted(2), degree_shift=shift)


def test_untwisted_solution_is_central_plus_identity():
    pa = untwisted(2)
    sol = solve_window(pa)
    predicted = Subspace.from_spanning(
        [Matrix.identity(pa.dim).flatten()] + [c.flatten() for c in central_maps(pa)],
        pa.dim ** 2,
    )
    assert sol.full.space == predicted
    assert sol.full.dim == pa.dim + 1
    assert sol.inner.predicted_included
    assert sol.inner.excess_dim == 0


@pytest.mark.parametrize(
    "name, rank, n_window", [("sl", 3, 2), ("sl", 3, 3), ("so", 5, 2), ("so", 5, 3), ("sp", 4, 2), ("sp", 4, 3)]
)
def test_affine_window_is_identity_plus_central(name, rank, n_window):
    g = builtin(name, rank)
    pa = km_window(g, killing_form(g), n_window)
    sol = solve_window(pa)
    predicted = Subspace.from_spanning(
        [Matrix.identity(pa.dim).flatten()] + [c.flatten() for c in central_maps(pa)],
        pa.dim ** 2,
    )
    assert sol.full.space == predicted
    assert sol.full.dim == pa.dim + 1
    assert sol.inner.predicted_included
    assert sol.inner.excess_dim == 0


def test_a22_grading_splits_sl3_into_3_plus_5():
    fixed, negated = a22_grading()
    assert (fixed.dim, negated.dim) == (3, 5)


@pytest.mark.parametrize("n_window, dim", [(2, 21), (3, 31)])
def test_twisted_a22_window_is_identity_plus_central(n_window, dim):
    pa = a22(n_window)
    assert pa.dim == dim
    start = time.perf_counter()
    sol = solve_window(pa)
    elapsed = time.perf_counter() - start
    predicted = Subspace.from_spanning(
        [Matrix.identity(pa.dim).flatten()] + [c.flatten() for c in central_maps(pa)],
        pa.dim ** 2,
    )
    assert sol.full.space == predicted
    assert sol.full.dim == dim + 1
    assert sol.inner.predicted_included
    assert sol.inner.excess_dim == 0
    assert elapsed < 5  # about 0.1 s on a 2-core machine; far larger means a lost exit


def test_untwisted_n3_members_and_report():
    pa = untwisted(3)
    sol = solve_window(pa)
    assert sol.full.space.contains(Matrix.identity(pa.dim).flatten())
    for c in central_maps(pa):
        assert sol.full.space.contains(c.flatten())
    assert sol.inner.predicted_included
    rep = sol.inner.to_json()
    assert rep["dim_predicted"] == len(sol.inner.inner_indices) + 1


def test_twisted_solution_contains_predictions_boundary_excess_vanishes_inside():
    pa = twisted(3)
    sol = solve_window(pa)
    assert sol.full.space.contains(Matrix.identity(pa.dim).flatten())
    for c in central_maps(pa):
        assert sol.full.space.contains(c.flatten())
    # boundary-supported solutions exist, but they vanish on the inner window
    assert sol.full.dim > pa.dim + 1
    assert sol.inner.predicted_included
    assert sol.inner.excess_dim == 0


def test_shifted_solve_is_a_block_of_the_full_solve():
    pa = untwisted(2)
    full = solve_window(pa)
    for shift in (-1, 0, 1, 2):
        block = solve_window(pa, degree_shift=shift)
        assert block.full.space.is_subspace_of(full.full.space)


TRIPLE_MODELS = WINDOW_MODELS + [
    pytest.param(lambda m: builtin("trunc_poly", m), m, id=f"trunc_poly-{m}") for m in range(2, 6)
]


# The argument positions each kind's forms may swap at the cost of a sign,
# and that sign times the table's sign sigma (e_j e_i = sigma e_i e_j):
# J(b, a, c) = sigma J(a, b, c), C(a, c, b) = -sigma C(a, b, c) and
# N(b, a, c) = sigma N(a, b, c).
KIND_SWAPS = {HOM_LIE: [((0, 1), 1), ((1, 2), 1)], HOM_CYCLIC: [((1, 2), -1)], HOM_2NILP: [((0, 1), 1)]}


def _orbits(kind, sigma, n):
    """Each ordered triple's orbit under the kind's swaps, named by its
    first triple in lexicographic order, and the names of the orbits whose
    forms vanish: some triple of them is reached with both signs."""
    orbit_of, null = {}, set()
    for start in itertools.product(range(n), repeat=3):
        if start in orbit_of:
            continue
        signs, todo = {start: {1}}, [(start, 1)]
        while todo:
            t, s = todo.pop()
            for (i, j), tau in KIND_SWAPS[kind]:
                u = list(t)
                u[i], u[j] = u[j], u[i]
                u, su = tuple(u), s * tau * sigma
                if su not in signs.setdefault(u, set()):
                    signs[u].add(su)
                    todo.append((u, su))
        orbit_of.update(dict.fromkeys(signs, start))
        if any(len(v) == 2 for v in signs.values()):
            null.add(start)
    return orbit_of, null


@pytest.mark.parametrize("kind", [HOM_LIE, HOM_CYCLIC, HOM_2NILP], ids=str)
@pytest.mark.parametrize("model, size", TRIPLE_MODELS)
def test_lazy_triples_are_every_triple_once_centre_out(model, size, kind):
    # one triple per orbit of the kind's swaps whose forms do not vanish,
    # its swapped arguments in basis order, and no hom-cyclic (a, b, b) on
    # an anticommutative table (C(a, b, b) = -2 C(b, a, b) there); of
    # those, the ones whose first product e_a e_b is defined: every triple
    # of an orbit left out that way raises in every shift block, so no
    # imposed equation is lost.  The walk starts at the centre, degree 0:
    # the triples come strictly increasing in the places of a basis with
    # the elements of degree 0 first, all three arguments alike, one run
    # per pair (a, b)
    alg = model(size)
    n, deg = alg.dim, alg.grading
    assert alg.is_anticommutative() or alg.is_commutative()
    runs = list(_triples(_plan(alg), kind))
    triples = [(a, b, c) for a, b, cs in runs for c in cs]
    orbit_of, null = _orbits(kind, -1 if alg.is_anticommutative() else 1, n)
    if kind == HOM_CYCLIC and alg.is_anticommutative():
        null |= {(a, b, b) for a in range(n) for b in range(n)}  # each its own orbit
    position = {u: i for i, u in enumerate(sorted(range(n), key=lambda u: (deg[u] != 0, u)))}
    members = {}
    for t, o in orbit_of.items():
        members.setdefault(o, []).append(t)
    first = {o: min(ts, key=lambda t: [position[u] for u in t]) for o, ts in members.items()}  # swapped args in order
    dropped = {o for o in set(members) - null if alg.table.get(first[o][:2], ()) is None}
    assert sorted(orbit_of[t] for t in triples) == sorted(set(members) - null - dropped)
    assert raises_in_every_block(alg, kind, [t for o in dropped for t in members[o]])
    assert bool(dropped) == (None in alg.table.values())  # a window leaves some out, a full table none
    assert deg[triples[0][0]] == 0
    places = [tuple(position[u] for u in t) for t in triples]
    assert all(s < t for s, t in zip(places, places[1:]))
    pairs = [(a, b) for a, b, cs in runs if cs]
    assert len(pairs) == len(runs) == len(set(pairs))
    for t in triples:
        assert all(position[t[i]] <= position[t[j]] for (i, j), _ in KIND_SWAPS[kind])


@pytest.mark.parametrize("model, n_window", WINDOW_MODELS)
def test_shift_blocks_sum_to_full(model, n_window):
    pa = model(n_window)
    full = solve_window(pa)
    total = 0
    for shift in window_shifts(pa):
        total += len(_block_basis(pa, shift))
    assert total == full.full.dim


@pytest.mark.parametrize("model, n_window", WINDOW_MODELS)
def test_block_solutions_have_zero_residuals(model, n_window):
    """Every basis map of every block solves each Hom-Jacobi equation the
    window imposes at its shift.  Each triple's ``_hom_terms`` are built
    once per block, over the block's columns as ``structure_residual``
    reads them, and evaluated at every basis map; a triple whose terms read
    an undefined product imposes nothing (``structure_residual``'s None)."""
    pa = model(n_window)
    n = pa.dim
    for shift in window_shifts(pa):
        col_of, forms = [_plan(pa).col_of(c, shift) for c in range(n)], []
        for tri in itertools.combinations(range(n), 3):
            try:
                forms.append(list(_hom_terms(pa.rows, pa.rows, _SIGNS["hom-lie"], *tri, col_of)))
            except UndefinedProduct:
                continue
        for _, row in _solve_block(pa, HOM_LIE, shift, nullspace_of_rows).rows:
            assert not any(_evaluate(form, row) for form in forms)


def test_residual_reads_the_component_of_the_map_shift():
    # phi = e_c -> e_u raises degrees by 1 and is not a solution: the shift-1
    # equations see it, the shift -1 equations read only zero entries of phi
    pa = untwisted(2)
    n = pa.dim
    c, u = pa.grading.index(0), pa.grading.index(1)
    phi = Matrix.from_sparse(n, n, {(u, c): 1})
    residuals = {s: [structure_residual(pa, phi, HOM_LIE, tri, s) for tri in itertools.combinations(range(n), 3)]
                 for s in (1, -1)}
    assert any(r is not None and any(r) for r in residuals[1])
    assert all(r is None or not any(r) for r in residuals[-1])


@pytest.mark.parametrize("model, n_window", WINDOW_MODELS)
def test_blocks_match_full_consumption(model, n_window, reference):
    pa = model(n_window)
    want = reference(f"{model.__name__}-{n_window}", pa, "blocks", HOM_LIE)
    for shift in window_shifts(pa):
        assert _solve_block(pa, HOM_LIE, shift, nullspace_of_rows) == want[shift]


def test_uncertified_block_does_not_assume_the_identity():
    # a degree-0 anticommutative bracket with every product defined whose
    # one triple breaks Jacobi: J(e0, e1, e2) = e1
    products = {(0, 1): ((1, F(1)),), (0, 2): ((2, F(1)),), (1, 2): ((1, F(1)),)}
    pa = AlgebraSpec(3, ("e0", "e1", "e2"), _bracket_table(3, products), "unchecked", grading=(0, 0, 0))
    ident = Matrix.identity(3)
    assert structure_residual(pa, ident, HOM_LIE, (0, 1, 2), 0) == (0, 1, 0)
    block = Subspace.from_spanning(_block_basis(pa, 0), 9)
    assert not block.contains(ident.flatten())
    assert block == oracle.blocks(pa, HOM_LIE)[0]


def test_block_is_the_kernel_of_the_imposable_residuals():
    # one degree, so shift 0 is all of End; [e2, e3] is undefined, and every
    # triple whose equations read it must impose nothing
    products = {(0, 1): ((2, F(1)),), (0, 2): ((3, F(1)),), (1, 2): ((1, F(1)),), (2, 3): None}
    pa = AlgebraSpec(4, ("e0", "e1", "e2", "e3"), _bracket_table(4, products), "unchecked", grading=(0, 0, 0, 0))
    n = pa.dim
    units = [(u, c) for u in range(n) for c in range(n)]
    rows = []
    for tri in itertools.combinations(range(n), 3):
        per_unit = [structure_residual(pa, Matrix.from_sparse(n, n, {uc: 1}), HOM_LIE, tri, 0) for uc in units]
        if per_unit[0] is None:
            continue
        for m in range(n):
            rows.append({u * n + c: r[m] for (u, c), r in zip(units, per_unit) if r[m]})
    assert Subspace.from_spanning(_block_basis(pa, 0), n * n) == nullspace_of_rows(n * n, rows)


@pytest.mark.parametrize("build", [lambda: untwisted(2), lambda: twisted(3), one_sided_gap],
                         ids=["untwisted-2", "twisted-3", "one-sided-gap"])
def test_residual_lookup_matches_the_closure_reference(build):
    """Same values and the same None cases as the oracle's equations
    evaluated at phi, for every kind, every shift, and maps whose parts
    reach every shift."""
    pa = build()
    n, rng = pa.dim, random.Random(29)
    maps = [Matrix.identity(n), Matrix.from_sparse(n, n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-2, 2)
                                                          for _ in range(3 * n)})]
    triples = list(itertools.permutations(range(n), 3) if n < 6 else itertools.combinations(range(n), 3))
    kinds = [HOM_LIE, HOM_CYCLIC, HOM_2NILP, delta_derivation(2), delta_derivation(-1)]
    nones = 0
    for phi, kind, tri in itertools.product(maps, kinds, triples):
        want = oracle.residuals(pa, phi, kind, tri)
        assert list(want) == grading_shifts(pa)
        for shift, residual in want.items():
            got = structure_residual(pa, phi, kind, tri, shift)
            assert got == residual, (kind, shift, tri)
            nones += got is None
    assert 0 < nones < len(maps) * len(kinds) * len(set(grading_shifts(pa))) * len(triples)


def test_unshifted_residual_on_a_window_is_refused():
    # a window's table has undefined products, so only a shift's equations can be read
    pa = untwisted(2)
    n = pa.dim
    ident, triple = Matrix.identity(n), (0, n - 2, n - 1)  # e_0 of degree -2, d, z
    with pytest.raises(ValueError, match="shift"):
        structure_residual(pa, ident, HOM_LIE, triple)
    assert structure_residual(pa, ident, HOM_LIE, triple, 0) == (F(0),) * n


def test_central_maps_always_solve():
    for pa in (untwisted(2), twisted(3)):
        sol = solve_window(pa)
        for c in central_maps(pa):
            assert sol.full.space.contains(c.flatten())


def test_multiplicative_family_on_window():
    pa = untwisted(2)
    ident = Matrix.identity(pa.dim)
    beta = beta_map(pa)
    for lam in (F(1), F(-3), F(5, 7)):
        assert is_multiplicative(pa, ident + beta.scale(lam)) is True
        assert is_multiplicative(pa, beta.scale(lam)) is True
    for mu in (F(2), F(-1), F(1, 2)):
        witness = is_multiplicative(pa, ident.scale(mu))
        assert witness is not True


def test_multiplicative_scalars_zero_and_one_pass():
    pa = untwisted(2)
    assert is_multiplicative(pa, Matrix.identity(pa.dim)) is True
    assert is_multiplicative(pa, Matrix.zeros(pa.dim, pa.dim)) is True


@pytest.mark.parametrize("central", [False, True], ids=["witt", "virasoro"])
@pytest.mark.parametrize("n", range(2, 9))
def test_witt_and_virasoro_windows(n, central):
    """W_N: the identity plus boundary maps (dim 3 from N = 3, L_-N -> L_N
    and back at shifts +-2N); Vir_N: also the maps into Kc, the untwisted
    loop pattern.  The report predicts with K and counts no excess, and
    ``central_maps`` are the maps into the table's centre, none for W."""
    pa = witt(n, central)
    sol = solve_window(pa)
    assert sol.full.dim == ((16 if n == 2 else 2 * n + 5) if central else (10 if n == 2 else 3))
    assert sol.full.space.contains(Matrix.identity(pa.dim).flatten())
    assert sol.inner.predicted_included
    assert sol.inner.excess_dim == 0
    c = pa.dim - 1
    assert central_maps(pa) == [Matrix.from_sparse(pa.dim, pa.dim, {(c, x): 1}) for x in range(pa.dim) if central]


def test_beta_map_names_what_it_needs():
    with pytest.raises(ValueError, match="Euler element d and central z"):
        beta_map(witt(3))


@pytest.mark.parametrize("name, inner_dim", [("gl", 6), ("abelian", 4)])
def test_a_centre_of_g_is_predicted(name, inner_dim):
    """With a centre of g the window's centre holds I (x) t^0 (gl2), or
    all of g (x) t^0 (abelian2), beside z, and K holds the maps into it:
    the N = 2 report predicts all 13 restricted solutions, with no excess.
    ``_solve_modulo`` adds K to every answer, so a membership test cannot
    see a wrong K; every basis map of each shift's K is evaluated on every
    equation imposed at that shift instead."""
    g = builtin(name, 2)
    pa = km_window(g, killing_form(g), 2)
    report = solve_window(pa).inner
    assert report.to_json() == {"inner_dim": inner_dim, "dim_full": 133, "dim_restricted": 13,
                                "dim_predicted": 13, "predicted_included": True, "excess_dim": 0}
    n, triples = pa.dim, list(itertools.combinations(range(pa.dim), 3))
    for s in window_shifts(pa):
        for _, row in _known_block(pa, HOM_LIE, s).rows:  # in End: phi(e_c) -> e_q at q*n + c
            phi = Matrix.from_sparse(n, n, {divmod(j, n): x for j, x in row.items()})
            for tri in triples:
                assert not any(structure_residual(pa, phi, HOM_LIE, tri, s) or ()), (s, tri)


def test_the_report_predicts_with_k(monkeypatch):
    """With the identity taken out of K every solved space stays, as the
    cut needs only K inside the solutions, while the reports that cover
    shift 0 predict one map fewer and count it as excess: the report reads
    K.  K gets the identity only on a lie-flavor table, so the mutant reads
    the same table as unchecked."""
    models = [(untwisted, 2), (untwisted, 3), (twisted, 3)]

    def solves():
        out = []
        for model, n in models:
            pa = model(n)
            out.append({None: solve_window(model(n)), **{s: solve_window(pa, s) for s in window_shifts(pa)}})
        return out

    before = solves()
    known = solver._known_block

    def no_identity(alg, kind, shift):
        return known(replaced(alg, flavor="unchecked"), kind, shift)

    monkeypatch.setattr(solver, "_known_block", no_identity)
    monkeypatch.setattr(window, "_known_block", no_identity)
    for old, new in zip(before, solves()):
        for s, sol in old.items():
            assert new[s].full.space == sol.full.space, s
            if s in (None, 0):
                assert new[s].inner.dim_predicted == sol.inner.dim_predicted - 1
                assert new[s].inner.excess_dim == sol.inner.excess_dim + 1
            else:
                assert new[s].inner == sol.inner


def test_k_is_built_once_per_shift_and_the_window_numbers_no_block(monkeypatch):
    """K is kept on the window: each shift's solve and report, the
    all-shift solve and report and a residual at every shift build it once
    per shift (13 times on sl2 N = 3), though the report reads K at every
    shift of each call and the mirrored blocks are never compiled.  Only
    the solver reads a block's columns (``_Plan.col_of``)."""
    pa = untwisted(3)
    shifts = window_shifts(pa)
    built, callers = [], []
    kept, col_of = solver._kept, solver._Plan.col_of

    def counted(alg, key, build):
        def counted_build():
            built.append(key)
            return build()
        return kept(alg, key, counted_build)

    def numbered(plan, c, shift):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return col_of(plan, c, shift)

    monkeypatch.setattr(solver, "_kept", counted)
    monkeypatch.setattr(solver._Plan, "col_of", numbered)
    for s in shifts:
        solve_window(pa, s)
    solve_window(pa)
    identity = Matrix.identity(pa.dim)
    for s in shifts:
        structure_residual(pa, identity, HOM_LIE, (0, 1, 2), s)
    known = [key for key in built if isinstance(key, tuple) and key[0] == "known"]
    assert len(shifts) == 13
    assert Counter(known) == {("known", HOM_LIE, s): 1 for s in shifts}
    assert callers and set(callers) == {"homlie.solver"}

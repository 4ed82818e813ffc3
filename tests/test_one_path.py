"""Every compiled identity reaches the kernel through ``solver._solve_modulo``,
whose unit rows retire their columns (the unit-row lemma there).  Checked
against test-local references that hand the same compilers' streams to
``nullspace_of_rows`` with no column retired: the same canonical subspaces
for every bilinear kind, both quasiderivation modules, the three fields of
``seq_uv`` and the decomposed central-extension solve, on the builtin and
random batteries and sl5, so7 and sp6.  A retire step that takes a D column
out of F's map instead changes a quasiderivation space."""

from itertools import chain

import pytest

from homlie import solver
from homlie.algebra import builtin
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import cocycle2
from homlie.linalg import Matrix, Subspace, nullspace_of_rows
from homlie.solver import (
    BILINEAR_KINDS,
    HOM_CYCLIC,
    HOM_LIE,
    _hom_rows,
    _pairing,
    _plan,
    _qder_rows,
    _symmetry_rows,
    central_ext_homlie_decomposed,
    seq_uv,
    solve_bilinear,
    solve_qder,
)
from test_term_builders import ref_coboundary_space, unsteered
from test_unit_rows import unretired_solve_modulo


def lie_algebras():
    """The Lie algebras of the builtin and random batteries, and sl5, so7 and sp6."""
    battery = [(name, alg) for name, alg in builtin_battery() + random_lie_battery() if alg.flavor == "lie"]
    return battery + [(f"{kind}{n}", builtin(kind, n)) for kind, n in (("sl", 5), ("so", 7), ("sp", 6))]


def ref_bilinear(alg, kind):
    """The form rows of ``solve_bilinear`` (and the symmetry rows), no column retired."""
    n = alg.dim
    if kind == "coboundary":
        return ref_coboundary_space(alg)
    col_of = [{q: q * n + z for q in range(n)} for z in range(n)]  # f(e_z) -> e_q at column q*n + z
    rows = _hom_rows(_plan(alg), HOM_LIE if kind.endswith("-cocycle") else HOM_CYCLIC, col_of,
                     _pairing([{p: 1} for p in range(n)]), unsteered)
    if kind.startswith(("skew-", "sym-")):
        rows = chain(rows, _symmetry_rows(n, -1 if kind == "skew-cocycle" else 1))
    return nullspace_of_rows(n * n, rows)


def ref_qder(alg, module):
    rows, _ = _qder_rows(alg, module)
    return nullspace_of_rows(2 * alg.dim ** 2, rows)


def ref_seq_uv(alg):
    """(u_image, v_kernel, u_injective) of ``seq_uv``, from the reference asym cocycles."""
    n = alg.dim
    n2 = n * n
    z2 = ref_bilinear(alg, "asym-cocycle")
    u_image = Subspace.from_spanning(
        ({**f, **{n2 + (c % n) * n + c // n: -x for c, x in f.items()}} for _, f in z2.rows), 2 * n2
    )
    rows, _ = _qder_rows(alg, "coadjoint")
    v_rows = ({i * n + j: 1, n2 + j * n + i: 1} for i in range(n) for j in range(n))
    return u_image, nullspace_of_rows(2 * n2, chain(rows, v_rows)), u_image.dim == z2.dim


@pytest.mark.parametrize("kind", BILINEAR_KINDS)
def test_bilinear_kinds_solve_what_the_unretired_stream_solves(kind):
    for name, alg in lie_algebras():
        assert solve_bilinear(alg, kind) == ref_bilinear(alg, kind), name


@pytest.mark.parametrize("module", ["adjoint", "coadjoint"])
def test_qder_modules_solve_what_the_unretired_stream_solves(module):
    for name, alg in lie_algebras():
        assert solve_qder(alg, module).space == ref_qder(alg, module), name


def test_seq_uv_fields_match_the_unretired_streams():
    for name, alg in lie_algebras():
        report = seq_uv(alg)
        assert (report.u_image, report.v_kernel, report.u_injective) == ref_seq_uv(alg), name


def cocycles(alg, count):
    """Up to ``count`` skew cocycles of ``alg`` from its solved basis, and their sum."""
    n = alg.dim
    forms = [r for _, r in solve_bilinear(alg, "skew-cocycle").rows[:count]]
    if len(forms) > 1:
        forms.append({c: sum(r.get(c, 0) for r in forms) for c in range(n * n)})
    return [cocycle2(alg, Matrix.unflatten(form, n, n)) for form in forms]


def test_central_extension_matches_the_unretired_compatibility_rows(monkeypatch):
    """The decomposed route with its compatibility system solved as
    compiled: the reference swaps ``_solve_modulo`` for its copy with no
    column retired, on the same cocycles."""
    cases = [(name, l, xi) for name, l in lie_algebras() for xi in cocycles(l, 2 if l.dim <= 5 else 1)]
    one_path = [central_ext_homlie_decomposed(l, xi).space for _, l, xi in cases]
    monkeypatch.setattr(solver, "_solve_modulo", unretired_solve_modulo)
    for (name, l, xi), space in zip(cases, one_path):
        assert space == central_ext_homlie_decomposed(l, xi).space, name
    assert len(cases) >= 20


def test_a_d_column_retired_from_fs_map_changes_a_qder_space(monkeypatch):
    """The mutant: each unit row on a D column deletes the same (c, q) from
    F's map instead of D's, and F's own unit rows retire as before.  D's
    columns stay unknowns of the system, through a copy of D's map that no
    evaluation reads.  The differential check above must see it."""
    algebras = lie_algebras()[:12]  # built first: the random battery solves skew cocycles
    real = solver._solve_modulo

    def misowned(known, stream, col_maps, gaps, kernel):
        d_cols, f_cols = col_maps
        source = {k: (c, q) for c, image in enumerate(d_cols) for q, k in image.items()}

        def retiring_from_f(rows):
            for row in rows:
                if len(row) == 1 and next(iter(row)) in source:
                    c, q = source[next(iter(row))]
                    f_cols[c].pop(q, None)
                yield row

        unread = [dict(image) for image in d_cols]
        return real(known, lambda free: retiring_from_f(stream(free)), [unread, f_cols], gaps, kernel)

    monkeypatch.setattr(solver, "_solve_modulo", misowned)
    changed = [(name, module) for name, alg in algebras for module in ("adjoint", "coadjoint")
               if solve_qder(alg, module).space != ref_qder(alg, module)]
    assert {module for _, module in changed} == {"adjoint", "coadjoint"}

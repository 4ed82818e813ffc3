"""Every compiled identity reaches the kernel through ``solver._solve_modulo``,
whose unit rows retire their columns (the unit-row lemma there).  Checked
against ``oracle``, whose systems retire no column: the same canonical
subspaces for every bilinear kind, both quasiderivation modules, the three
fields of ``seq_uv`` and the decomposed central-extension solve's
compatibility system, on the builtin and random batteries and sl5, so7 and
sp6.  A retire step that takes a D column out of F's map instead changes a
quasiderivation space."""

import pytest

import oracle
from homlie import solver
from homlie.algebra import builtin
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import cocycle2
from homlie.linalg import Matrix
from homlie.solver import BILINEAR_KINDS, HOM_LIE, central_ext_homlie_decomposed, seq_uv, solve_bilinear, solve_qder


def lie_algebras():
    """The Lie algebras of the builtin and random batteries, and sl5, so7 and sp6."""
    battery = [(name, alg) for name, alg in builtin_battery() + random_lie_battery() if alg.flavor == "lie"]
    return battery + [(f"{kind}{n}", builtin(kind, n)) for kind, n in (("sl", 5), ("so", 7), ("sp", 6))]


@pytest.mark.parametrize("kind", BILINEAR_KINDS)
def test_bilinear_kinds_solve_what_the_unretired_stream_solves(kind, reference):
    for name, alg in lie_algebras():
        assert solve_bilinear(alg, kind) == reference(name, alg, "form_space", kind), name


@pytest.mark.parametrize("module", ["adjoint", "coadjoint"])
def test_qder_modules_solve_what_the_unretired_stream_solves(module, reference):
    for name, alg in lie_algebras():
        assert solve_qder(alg, module).space == reference(name, alg, "qder_space", module), name


def test_seq_uv_fields_match_the_unretired_streams(reference):
    for name, alg in lie_algebras():
        report = seq_uv(alg)
        assert (report.u_image, report.v_kernel, report.u_injective) == reference(name, alg, "seq_uv"), name


def cocycles(alg, count):
    """Up to ``count`` skew cocycles of ``alg`` from its solved basis, and their sum."""
    n = alg.dim
    forms = [r for _, r in solve_bilinear(alg, "skew-cocycle").rows[:count]]
    if len(forms) > 1:
        forms.append({c: sum(r.get(c, 0) for r in forms) for c in range(n * n)})
    return [cocycle2(alg, Matrix.unflatten(form, n, n)) for form in forms]


def test_central_extension_matches_the_unretired_compatibility_rows(solved):
    """The decomposed route's compatibility system, solved with its unit
    rows retiring their columns, against the oracle's on the same cocycles."""
    cases = [(name, l, xi) for name, l in lie_algebras() for xi in cocycles(l, 2 if l.dim <= 5 else 1)]
    for name, l, xi in cases:
        solver.solve_structures(l, HOM_LIE)  # kept, so the one system of n^2 columns below is compatibility's
        solved.clear()
        central_ext_homlie_decomposed(l, xi)
        [compat] = [space for space in solved if space.ambient == l.dim ** 2]
        assert compat == oracle.compat_space(l, xi.form.matrix.sparse_rows), name
    assert len(cases) >= 20


def test_a_d_column_retired_from_fs_map_changes_a_qder_space(monkeypatch, reference):
    """The mutant: each unit row on a D column deletes the same (c, q) from
    F's map instead of D's, and F's own unit rows retire as before.  D's
    columns stay unknowns of the system, through a copy of D's map that no
    evaluation reads.  The comparison with the oracle above must see it."""
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
               if solve_qder(alg, module).space != reference(name, alg, "qder_space", module)]
    assert {module for _, module in changed} == {"adjoint", "coadjoint"}

"""Acceptance suite: one test per numbered criterion, exact expectations,
wall-clock budgets asserted, one printed PASS/FAIL line per criterion
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

Known red: criterion 4's sl2 leg.  The claimed coincidence of asymmetric
cocycles with coboundaries is false on the 3-dimensional simple algebra
(the cocycle expression is alternating trilinear, so it cuts one equation
out of nine unknowns there); the verified true values and the explicit
non-skew cocycle are pinned in tests/test_solver.py.
"""

import time
from fractions import Fraction

import pytest

from homlie.actions import sl2_decompose
from homlie.algebra import builtin, killing_form, parse_builtin
from homlie.battery import builtin_battery, lie_battery, random_lie_battery, run_property_suite
from homlie.constructions import central_extension, cocycle2, km_window, tensor_lie
from homlie.jordan import closure_check, counterexample_suite
from homlie.linalg import Matrix, Subspace
from homlie.scenarios import _random_comm_anticomm_pairs
from homlie.solver import (
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    central_ext_homlie_decomposed,
    coboundary_space,
    current_formula_span,
    is_multiplicative,
    seq_uv,
    solve_bilinear,
    solve_structures,
    tensor_formula_span,
)
from homlie.window import beta_map, central_maps, solve_window

F = Fraction


def _record(num: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {label}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"
    assert ok, f"criterion {num} failed: {label}"


def test_c01_structure_space_dimension_on_sl2():
    t0 = time.time()
    sol = solve_structures(builtin("sl", 2), HOM_LIE)
    ok = sol.dim == 6
    _record(1, "dim of the sl2 structure space == 6", ok, time.time() - t0, 1)


def test_c02_sl2_module_decomposition():
    t0 = time.time()
    alg = builtin("sl", 2)
    sol = solve_structures(alg, HOM_LIE)
    triple = tuple(alg.basis_vector(i) for i in range(3))
    dims = sl2_decompose(alg, triple, sol.space)
    _record(2, "irreducible decomposition of the sl2 space == {5, 1}", dims == [5, 1], time.time() - t0, 1)


@pytest.mark.parametrize("name,param", [("sl", 3), ("sl", 4), ("so", 5), ("sp", 4)])
def test_c03_larger_classical_algebras_have_scalar_structures_only(name, param):
    t0 = time.time()
    alg = builtin(name, param)
    sol = solve_structures(alg, HOM_LIE)
    ok = sol.dim == 1 and sol.contains_map(Matrix.identity(alg.dim))
    _record(3, f"structures on {name}{param} == scalars", ok, time.time() - t0, 60)


@pytest.mark.parametrize("param,expected_dim", [(2, 3), (3, 8)])
def test_c04_asym_cocycles_equal_coboundaries(param, expected_dim):
    # expected to FAIL for sl2: the true cocycle space there is 8-dimensional
    # (see the module docstring; verified values pinned in tests/test_solver.py)
    t0 = time.time()
    alg = builtin("sl", param)
    z2 = solve_bilinear(alg, "asym-cocycle")
    b2 = coboundary_space(alg)
    ok = z2 == b2 and z2.dim == expected_dim
    _record(4, f"asymmetric cocycles == coboundaries on sl{param} (dim {expected_dim})",
            ok, time.time() - t0, 30)


def test_c05_sequence_exactness():
    t0 = time.time()
    ok = True
    for alg in (builtin("sl", 2), builtin("heisenberg"), builtin("abelian", 2)):
        rep = seq_uv(alg)
        ok = ok and rep.u_injective and rep.u_image == rep.v_kernel
    _record(5, "cocycle/quasiderivation sequence exact (sl2, heisenberg, abelian2)",
            ok, time.time() - t0, 30)


@pytest.mark.parametrize(
    "lname,aname",
    [(l, a) for l in ("sl2", "nonabelian2", "heisenberg")
     for a in ("trunc_poly:2", "trunc_poly:3", "cyclic_group_alg:2")],
)
def test_c06_current_algebra_formula(lname, aname):
    t0 = time.time()
    l, a = parse_builtin(lname), parse_builtin(aname)
    direct = solve_structures(tensor_lie(a, l), HOM_LIE)
    rhs = current_formula_span(l, a)
    ok = direct.space == rhs.space
    if (lname, aname) == ("sl2", "trunc_poly:2"):
        ok = ok and direct.dim == 12
    _record(6, f"current formula on {lname}(x){aname} (dim {direct.dim})", ok, time.time() - t0, 300)


def test_c07_tensor_formula_inclusion():
    t0 = time.time()
    ok = True
    structured = [
        (builtin("trunc_poly", 2), builtin("sl", 2), True),
        (builtin("trunc_poly", 3), builtin("nonabelian2"), True),
        (builtin("cyclic_group_alg", 2), builtin("heisenberg"), True),
    ]
    random_pairs = [(a, b, False) for a, b in _random_comm_anticomm_pairs(10)]
    for a, b, want_equal in structured + random_pairs:
        tensor = tensor_lie(a, b)
        direct = solve_structures(tensor, HOM_LIE)
        span = tensor_formula_span(a, b)
        ok = ok and span.space.is_subspace_of(direct.space)
        if want_equal:  # unital commutative-associative times a Lie factor
            ok = ok and span.space == direct.space
    _record(7, "assembled tensor span contained in the direct solve (13 pairs)",
            ok, time.time() - t0, 300)


def test_c08_intersection_identity_battery():
    t0 = time.time()
    ok = True
    battery = builtin_battery()
    assert len(battery) >= 10
    for name, alg in battery:
        hl = solve_structures(alg, HOM_LIE).space
        hc = solve_structures(alg, HOM_CYCLIC).space
        h2 = solve_structures(alg, HOM_2NILP).space
        ok = ok and hl.intersect(hc) == h2
    _record(8, f"structure/cyclic intersection == 2-nilpotent on {len(battery)} algebras",
            ok, time.time() - t0, 120)


def test_c09_central_extension_oracle_equivalence():
    t0 = time.time()
    ok = True
    ab2 = builtin("abelian", 2)
    cases = [
        (ab2, Matrix.from_rows([[0, 1], [-1, 0]])),
        (ab2, Matrix.zeros(2, 2)),
    ]
    cur = tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))
    sk = solve_bilinear(cur, "skew-cocycle")
    nonzero = next(v for v in sk.basis.data if any(v))
    cases.append((cur, Matrix.unflatten(nonzero, cur.dim, cur.dim)))
    for base, mat in cases:
        xi = cocycle2(base, mat)
        dec = central_ext_homlie_decomposed(base, xi)
        direct = solve_structures(central_extension(base, xi), HOM_LIE)
        ok = ok and dec.space == direct.space
    _record(9, "blockwise central-extension solve == direct solve (3 cases)",
            ok, time.time() - t0, 300)


@pytest.mark.parametrize("n_window", [2, 3])
def test_c10_untwisted_window(n_window):
    t0 = time.time()
    g = builtin("sl", 2)
    pa = km_window(g, killing_form(g), n_window)
    sol = solve_window(pa)
    ident = Matrix.identity(pa.dim)
    ok = sol.full.space.contains(ident.flatten())
    ok = ok and all(sol.full.space.contains(c.flatten()) for c in central_maps(pa))
    beta = beta_map(pa)
    lam = F(3, 2)
    ok = ok and is_multiplicative(pa, ident + beta.scale(lam)) is True
    ok = ok and is_multiplicative(pa, beta.scale(lam)) is True
    for mu in (F(2), F(-1), F(1, 3)):
        ok = ok and is_multiplicative(pa, ident.scale(mu)) is not True
    print(f"  [criterion 10] N={n_window} report-only inner window: {sol.inner.to_json()}")
    _record(10, f"untwisted window N={n_window}: predictions solve; scalar family checked",
            ok, time.time() - t0, 600)


def test_c11_twisted_window():
    t0 = time.time()
    g = builtin("sl", 2)
    g0 = Subspace.from_spanning([[0, 1, 0]], 3)
    g1 = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    pa = km_window(g, killing_form(g), 3, twist=([g0, g1], 2))
    sol = solve_window(pa)
    ok = sol.full.space.contains(Matrix.identity(pa.dim).flatten())
    ok = ok and all(sol.full.space.contains(c.flatten()) for c in central_maps(pa))
    print(f"  [criterion 11] twisted N=3 report-only inner window: {sol.inner.to_json()}")
    _record(11, "twisted window N=3: predictions solve; excess reported", ok, time.time() - t0, 600)


def test_c12_jordan_closure_and_counterexample():
    t0 = time.time()
    ok = True
    for alg in (builtin("sl", 2), builtin("sl", 3), tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))):
        ok = ok and closure_check(solve_structures(alg, HOM_LIE)).closed
    rep = counterexample_suite()
    ok = ok and rep.truncation_order <= 8
    ok = ok and rep.phi_member and rep.psi_member and not rep.product_member
    ok = ok and any(F(x) for x in rep.residual)
    _record(12, "closure on three solved spaces; non-closure witness verified",
            ok, time.time() - t0, 300)


def test_c13_property_suites():
    t0 = time.time()
    battery = lie_battery() + random_lie_battery(count=25)
    randoms = [name for name, _ in battery if "#" in name]
    assert len(randoms) == 25
    rows = run_property_suite(battery)
    failures = [(alg, prop, msg) for alg, prop, msg in rows if msg is not None]
    for f in failures:
        print(f"  [criterion 13] FAILURE: {f}")
    _record(13, f"property battery ({len(rows)} checks over {len(battery)} algebras)",
            not failures, time.time() - t0, 120)

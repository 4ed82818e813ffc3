"""Runnable claim registry for the `reproduce` command.

Every scenario binds an expectation to exact computations; assertions are
canonical subspace comparisons or exact dimension counts, never
basis-order-sensitive data.  Scenarios whose content is a truncation
diagnostic report numbers without asserting them (status 'report-only').
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .actions import sl2_decompose
from .algebra import builtin, killing_form, make_algebra
from .battery import (
    FILIPPOV_DELTAS,
    builtin_battery,
    check_filippov_inclusion,
    check_semidirect_delta_embedding,
    lie_battery,
)
from .constructions import central_extension, cocycle2, km_window, tensor_lie
from .jordan import closure_check, counterexample_suite
from .linalg import Matrix, Subspace
from .solver import (
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
from .window import beta_map, central_maps, solve_window


class ScenarioResult(NamedTuple):
    id: str
    description: str
    status: str  # 'pass' | 'fail' | 'report-only'
    details: dict

    def to_json(self) -> dict:
        return self._asdict()


class Scenario(NamedTuple):
    id: str
    description: str
    run: Callable[[], tuple[bool | None, dict]]

    def execute(self) -> ScenarioResult:
        ok, details = self.run()
        status = "report-only" if ok is None else ("pass" if ok else "fail")
        return ScenarioResult(self.id, self.description, status, details)


def _sc_prop_2_1() -> tuple[bool | None, dict]:
    alg = builtin("sl", 2)
    sol = solve_structures(alg, HOM_LIE)
    triple = (alg.basis_vector(0), alg.basis_vector(1), alg.basis_vector(2))
    dims = sl2_decompose(alg, triple, sol.space)
    ok = sol.dim == 6 and dims == [5, 1]
    return ok, {"dim": sol.dim, "irreducible_dims": dims}


def _sc_thm_2_2(name: str, param: int) -> Callable[[], tuple[bool | None, dict]]:
    def run() -> tuple[bool | None, dict]:
        alg = builtin(name, param)
        sol = solve_structures(alg, HOM_LIE)
        ident = Matrix.identity(alg.dim)
        ok = sol.dim == 1 and sol.contains_map(ident)
        return ok, {"dim": sol.dim, "identity_member": sol.contains_map(ident)}

    return run


def _sc_lemma_2_5(name: str, param: int) -> Callable[[], tuple[bool | None, dict]]:
    def run() -> tuple[bool | None, dict]:
        alg = builtin(name, param)
        z2 = solve_bilinear(alg, "asym-cocycle")
        b2 = coboundary_space(alg)
        ok = z2 == b2
        return ok, {"dim_cocycles": z2.dim, "dim_coboundaries": b2.dim, "equal": ok}

    return run


def _sc_lemma_2_4() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    for name, alg in [("sl2", builtin("sl", 2)), ("heisenberg", builtin("heisenberg")), ("abelian2", builtin("abelian", 2))]:
        rep = seq_uv(alg)
        details[name] = {
            "u_injective": rep.u_injective,
            "dim_image": rep.u_image.dim,
            "dim_kernel": rep.v_kernel.dim,
            "exact": rep.exact,
        }
        ok = ok and rep.exact
    return ok, details


def _current_grid() -> list[tuple[str, str]]:
    return [
        (l, a)
        for l in ("sl2", "nonabelian2", "heisenberg")
        for a in ("trunc_poly:2", "trunc_poly:3", "cyclic_group_alg:2")
    ]


def _sc_current_formula() -> tuple[bool | None, dict]:
    from .algebra import parse_builtin

    details = {}
    ok = True
    for lname, aname in _current_grid():
        l, a = parse_builtin(lname), parse_builtin(aname)
        direct = solve_structures(tensor_lie(a, l), HOM_LIE)
        rhs = current_formula_span(l, a)
        cell_ok = direct.space == rhs.space
        details[f"{lname}(x){aname}"] = {
            "direct_dim": direct.dim,
            "formula_dim": rhs.space.dim,
            "equal": cell_ok,
            "summands": rhs.to_json()["summands"],
        }
        ok = ok and cell_ok
    ok = ok and details["sl2(x)trunc_poly:2"]["direct_dim"] == 12
    return ok, details


def _random_comm_anticomm_pairs():
    """Ten (generic-commutative, generic-anticommutative) pairs of dim 2 or 3, seeded 424242."""
    rng = random.Random(424242)
    pairs = []
    for _ in range(10):
        da = rng.randint(2, 3)
        db = rng.randint(2, 3)
        table_a = {}
        for i in range(da):
            for j in range(i, da):
                entry = [(k, rng.randint(-1, 1)) for k in range(da)]
                entry = [(k, c) for k, c in entry if c]
                if entry:
                    table_a[(i, j)] = entry
                    if i != j:
                        table_a[(j, i)] = entry
        a = make_algebra(da, table_a, flavor="generic-commutative")
        table_b = {}
        for i in range(db):
            for j in range(i + 1, db):
                entry = [(k, rng.randint(-1, 1)) for k in range(db)]
                entry = [(k, c) for k, c in entry if c]
                if entry:
                    table_b[(i, j)] = entry
                    table_b[(j, i)] = [(k, -c) for k, c in entry]
        b = make_algebra(db, table_b, flavor="generic-anticommutative")
        pairs.append((a, b))
    return pairs


def _sc_thm_3_1_inclusion() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    # structured pairs, where equality is additionally asserted, then random ones
    pairs = [
        ("trunc_poly:2|sl2", builtin("trunc_poly", 2), builtin("sl", 2), True),
        ("trunc_poly:3|nonabelian2", builtin("trunc_poly", 3), builtin("nonabelian2"), True),
        ("cyclic_group_alg:2|heisenberg", builtin("cyclic_group_alg", 2), builtin("heisenberg"), True),
    ]
    pairs += [(f"random#{idx}", a, b, False) for idx, (a, b) in enumerate(_random_comm_anticomm_pairs())]
    for label, a, b, want_equal in pairs:
        tensor = tensor_lie(a, b)
        direct = solve_structures(tensor, HOM_LIE)
        span = tensor_formula_span(a, b)
        included = span.space.is_subspace_of(direct.space)
        details[label] = {"included": included, "tensor_flavor": tensor.flavor,
                          "span_dim": span.space.dim, "direct_dim": direct.dim}
        ok = ok and included
        if want_equal:
            details[label]["equal"] = span.space == direct.space
            ok = ok and details[label]["equal"]
    return ok, details


def _sc_intersection_identity() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    for name, alg in builtin_battery():
        hl = solve_structures(alg, HOM_LIE)
        hc = solve_structures(alg, HOM_CYCLIC)
        h2 = solve_structures(alg, HOM_2NILP)
        inter = hl.space.intersect(hc.space)
        eq = inter == h2.space
        details[name] = {"hom_lie": hl.dim, "hom_cyclic": hc.dim, "intersection": inter.dim, "hom_2nilp": h2.dim, "equal": eq}
        ok = ok and eq
    return ok, details


def _sc_central_ext_oracle() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    ab2 = builtin("abelian", 2)
    cases = [
        ("abelian2+symplectic", ab2, Matrix.from_rows([[0, 1], [-1, 0]])),
        ("abelian2+zero", ab2, Matrix.zeros(2, 2)),
    ]
    cur = tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))
    sk = solve_bilinear(cur, "skew-cocycle")
    cases.append(("sl2(x)tp2+computed", cur, Matrix.unflatten(sk.rows[0][1], cur.dim, cur.dim)))
    for label, base, mat in cases:
        xi = cocycle2(base, mat)
        dec = central_ext_homlie_decomposed(base, xi)
        direct = solve_structures(central_extension(base, xi), HOM_LIE)
        eq = dec.space == direct.space
        details[label] = {"decomposed_dim": dec.dim, "direct_dim": direct.dim, "equal": eq}
        ok = ok and eq
    return ok, details


def _window_scenario(twisted: bool) -> Callable[[], tuple[bool | None, dict]]:
    def run() -> tuple[bool | None, dict]:
        g = builtin("sl", 2)
        kf = killing_form(g)
        details = {}
        ok = True
        if twisted:
            g0 = Subspace.from_spanning([[0, 1, 0]], 3)
            g1 = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
            windows = [(3, ([g0, g1], 2))]
        else:
            windows = [(2, None), (3, None)]
        for n, twist in windows:
            pa = km_window(g, kf, n, twist=twist)
            sol = solve_window(pa)
            ident_in = sol.full.space.contains(Matrix.identity(pa.dim).sparse_flatten())
            central_in = all(sol.full.space.contains(c.sparse_flatten()) for c in central_maps(pa))
            details[f"N={n}"] = {
                "window_dim": pa.dim,
                "solution_dim": sol.full.dim,
                "identity_member": ident_in,
                "central_maps_member": central_in,
                "inner_report": sol.inner.to_json(),
            }
            ok = ok and ident_in and central_in
        return ok, details

    return run


def _sc_corollary_multiplicative() -> tuple[bool | None, dict]:
    g = builtin("sl", 2)
    pa = km_window(g, killing_form(g), 2)
    ident = Matrix.identity(pa.dim)
    beta = beta_map(pa)
    lam = Fraction(7, 2)
    good1 = is_multiplicative(pa, ident + beta.scale(lam)) is True
    good2 = is_multiplicative(pa, beta.scale(lam)) is True
    bad = is_multiplicative(pa, ident.scale(3))
    details = {
        "id_plus_beta_multiplicative": good1,
        "beta_multiplicative": good2,
        "3id_fails": bad is not True,
    }
    if bad is not True:
        details["witness_pair"] = list(bad.pair)
    return good1 and good2 and bad is not True, details


def _sc_jordan_closed() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    cases = [
        ("sl2", builtin("sl", 2)),
        ("sl3", builtin("sl", 3)),
        ("sl2(x)trunc_poly2", tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))),
    ]
    for name, alg in cases:
        verdict = closure_check(solve_structures(alg, HOM_LIE))
        details[name] = {"closed": verdict.closed}
        ok = ok and verdict.closed
    return ok, details


def _sc_jordan_counterexample() -> tuple[bool | None, dict]:
    rep = counterexample_suite()
    ok = (
        rep.truncation_order <= 8
        and rep.phi_member
        and rep.psi_member
        and not rep.product_member
        and any(Fraction(x) for x in rep.residual)
    )
    return ok, rep.to_json()


def _sc_filippov() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    for name, alg in lie_battery(max_dim=10):
        res = check_filippov_inclusion(alg)
        details[name] = "ok" if res is None else res
        ok = ok and res is None
    return ok, details


def _sc_semidirect_delta() -> tuple[bool | None, dict]:
    details = {}
    ok = True
    for name, alg in lie_battery(max_dim=5):
        for delta in FILIPPOV_DELTAS:
            res = check_semidirect_delta_embedding(alg, delta)
            details[f"{name},delta={delta}"] = "ok" if res is None else res
            ok = ok and res is None
    return ok, details


def _registry() -> dict[str, Scenario]:
    scenarios = [
        Scenario("prop-2.1", "structure space on the 3-dim simple algebra: dim 6, irreducibles {5,1}", _sc_prop_2_1),
        Scenario("thm-2.2-sl3", "only scalar structures on sl3", _sc_thm_2_2("sl", 3)),
        Scenario("thm-2.2-sl4", "only scalar structures on sl4", _sc_thm_2_2("sl", 4)),
        Scenario("thm-2.2-so5", "only scalar structures on so5", _sc_thm_2_2("so", 5)),
        Scenario("thm-2.2-sp4", "only scalar structures on sp4", _sc_thm_2_2("sp", 4)),
        Scenario("lemma-2.5-sl2", "asymmetric cocycles coincide with coboundaries on sl2", _sc_lemma_2_5("sl", 2)),
        Scenario("lemma-2.5-sl3", "asymmetric cocycles coincide with coboundaries on sl3", _sc_lemma_2_5("sl", 3)),
        Scenario("lemma-2.4-exactness", "cocycle/quasiderivation sequence is exact", _sc_lemma_2_4),
        Scenario("current-formula", "tensor description of structures on current algebras (3x3 grid)", _sc_current_formula),
        Scenario("thm-3.1-inclusion", "four-block span is contained in the direct solve", _sc_thm_3_1_inclusion),
        Scenario("intersection-identity", "structure space meets cyclic space in the 2-nilpotent space", _sc_intersection_identity),
        Scenario("prop-4.x-central-ext-oracle", "blockwise central-extension solve equals the direct solve", _sc_central_ext_oracle),
        Scenario("km-window-untwisted", "window model: identity and central maps solve; excess reported", _window_scenario(False)),
        Scenario("km-window-twisted", "twisted window model: same inclusions; excess reported", _window_scenario(True)),
        Scenario("corollary-multiplicative", "multiplicative family id + c*beta on the window model", _sc_corollary_multiplicative),
        Scenario("jordan-closed-sl2", "solved spaces closed under the symmetrized product", _sc_jordan_closed),
        Scenario("jordan-counterexample", "non-closure witness on nonabelian2 (x) truncated polynomials", _sc_jordan_counterexample),
        Scenario("filippov-inclusion", "delta-derivations are structures for delta outside {0,1}", _sc_filippov),
        Scenario("semidirect-delta-embedding", "delta-derivations embed as structures on one-generator extensions", _sc_semidirect_delta),
    ]
    return {s.id: s for s in scenarios}


REGISTRY = _registry()


def scenario_ids() -> list[str]:
    return sorted(REGISTRY)


def run_scenario(scenario_id: str) -> ScenarioResult:
    if scenario_id not in REGISTRY:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    return REGISTRY[scenario_id].execute()


def run_all() -> list[ScenarioResult]:
    return [REGISTRY[sid].execute() for sid in scenario_ids()]

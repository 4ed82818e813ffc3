"""Deterministic test batteries and the algebra-level property checks.

The random Lie algebras are produced by seeded central extensions (random
elements of the solved skew-cocycle space) and semidirect extensions by
verified derivations of truncated polynomial rings, so the same battery is
regenerated on every run.  The check_* functions return None on success and
a short witness description on failure; they back both the property test
suite and the reproduce scenarios.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .actions import _exp_ad, _right, _sandwich, act, is_submodule
from .algebra import AlgebraSpec, _evaluate, _hom_terms, _jacobi_triples, builtin, killing_form
from .constructions import adjoin_map, central_extension, cocycle2, semidirect_derivation
from .linalg import Matrix, SparseVector, Vector, sparse_lincomb
from .solver import HOM_LIE, delta_derivation, f_t, solve_bilinear, solve_structures

FILIPPOV_DELTAS = (Fraction(-1), Fraction(1, 2), Fraction(2))


def builtin_battery() -> list[tuple[str, AlgebraSpec]]:
    """One representative instance per builtin family (plus size variety)."""
    return [
        ("sl2", builtin("sl", 2)),
        ("sl3", builtin("sl", 3)),
        ("sl4", builtin("sl", 4)),
        ("gl2", builtin("gl", 2)),
        ("so3", builtin("so", 3)),
        ("so5", builtin("so", 5)),
        ("sp4", builtin("sp", 4)),
        ("heisenberg", builtin("heisenberg")),
        ("abelian1", builtin("abelian", 1)),
        ("abelian3", builtin("abelian", 3)),
        ("nonabelian2", builtin("nonabelian2")),
        ("trunc_poly2", builtin("trunc_poly", 2)),
        ("trunc_poly3", builtin("trunc_poly", 3)),
        ("cyclic2", builtin("cyclic_group_alg", 2)),
        ("cyclic3", builtin("cyclic_group_alg", 3)),
    ]


def lie_battery(max_dim: int | None = None) -> list[tuple[str, AlgebraSpec]]:
    out = [(n, a) for n, a in builtin_battery() if a.flavor == "lie"]
    if max_dim is not None:
        out = [(n, a) for n, a in out if a.dim <= max_dim]
    return out


def _random_derivation(a: AlgebraSpec, rng: random.Random) -> Matrix:
    """Random derivation of K[t]/(t^m): determined by D(t) in t*K[t]."""
    m = a.dim
    img_t = [Fraction(0)] * m
    for k in range(1, m):
        img_t[k] = Fraction(rng.randint(-2, 2))
    cols: list[Vector] = [tuple(Fraction(0) for _ in range(m))]
    for j in range(1, m):
        # D(t^j) = j t^(j-1) D(t)
        power = [Fraction(0)] * m
        power[j - 1] = Fraction(j)
        cols.append(a.multiply(tuple(power), tuple(img_t)))
    return Matrix(cols, m).transpose()


def random_lie_battery(count: int = 25, seed: int = 20250810) -> list[tuple[str, AlgebraSpec]]:
    """Seeded battery of Lie algebras of dim <= 5 built by random central
    extensions and semidirect extensions."""
    rng = random.Random(seed)
    seeds = [
        builtin("abelian", 2),
        builtin("abelian", 3),
        builtin("heisenberg"),
        builtin("nonabelian2"),
        builtin("sl", 2),
    ]
    semidirect_pairs = [
        (builtin("abelian", 1), builtin("trunc_poly", 2)),
        (builtin("abelian", 1), builtin("trunc_poly", 3)),
        (builtin("abelian", 1), builtin("trunc_poly", 4)),
        (builtin("abelian", 2), builtin("trunc_poly", 2)),
        (builtin("nonabelian2"), builtin("trunc_poly", 2)),
        (builtin("sl", 2), builtin("trunc_poly", 1)),
        (builtin("heisenberg"), builtin("trunc_poly", 1)),
    ]
    out: list[tuple[str, AlgebraSpec]] = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        if rng.random() < 0.5:
            base = rng.choice([s for s in seeds if s.dim <= 4])
            sk = solve_bilinear(base, "skew-cocycle")
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in sk.rows]
            vec = sparse_lincomb(*((c, b) for c, (_, b) in zip(coeffs, sk.rows)))
            xi = cocycle2(base, Matrix.unflatten(vec, base.dim, base.dim))
            alg = central_extension(base, xi)
            out.append((f"central#{attempt}", alg))
        else:
            l, a = rng.choice(semidirect_pairs)
            d = _random_derivation(a, rng)
            alg = semidirect_derivation(l, a, d)
            if alg.dim <= 5:
                out.append((f"semidirect#{attempt}", alg))
    return out


# ---------------------------------------------------------------------------
# property checks (None = holds; otherwise a witness string)
# ---------------------------------------------------------------------------


def check_identity_membership(alg: AlgebraSpec) -> str | None:
    sol = solve_structures(alg, HOM_LIE)
    if not sol.contains_map(Matrix.identity(alg.dim)):
        return "identity map missing from the solution space"
    return None


def check_submodule_property(alg: AlgebraSpec) -> str | None:
    sol = solve_structures(alg, HOM_LIE)
    verdict = is_submodule(alg, sol.space)
    if verdict is not True:
        return f"action of generator {verdict.generator_index} leaves the space"
    return None


def _jacobiator(alg: AlgebraSpec, phi: Matrix) -> dict[tuple[int, int, int], SparseVector]:
    """J_phi(e_i, e_j, e_k) = (e_i e_j)phi(e_k) + (e_k e_i)phi(e_j) + (e_j e_k)phi(e_i)
    on every ordered basis triple of an anticommutative algebra.

    J_phi is evaluated from ``_hom_terms`` on the triples that decide it
    (``algebra._jacobi_triples``) and the other triples are filled by sign:
    J_phi changes sign under every swap of two arguments and is 0 when two
    are equal (the alternation lemma in ``algebra._hom_terms``)."""
    n = phi.rows
    col_of = [{q: q * n + z for q in col} for z, col in enumerate(phi.sparse_cols)]  # phi(e_z) -> e_q at q*n + z
    flat = phi.sparse_flatten()
    out: dict[tuple[int, int, int], SparseVector] = dict.fromkeys(product(range(n), repeat=3), {})
    for i, j, k in _jacobi_triples(alg):
        v = _evaluate(_hom_terms(alg.rows, alg.rows, (1, 1, 1), i, j, k, col_of), flat)
        minus = {q: -x for q, x in v.items()}
        out[(i, j, k)] = out[(j, k, i)] = out[(k, i, j)] = v
        out[(j, i, k)] = out[(i, k, j)] = out[(k, j, i)] = minus
    return out


def check_action_intertwines_jacobiator(alg: AlgebraSpec, rng: random.Random) -> str | None:
    """J_{h.phi}(x,y,z) == h . J_phi(x,y,z) on all basis triples for random
    h and phi (the invariance computation behind the submodule property).

    The terms of h . J_phi follow by linearity from [e_s, h] = sum_t R[t][s]
    e_t, the columns of R, the right multiplication by h (``actions._right``),
    read from the table of J_phi.

    The two sides are compared on ``algebra._jacobi_triples``, which decide
    an alternating identity on every ordered triple and name its first
    failing one.  The difference of the sides is alternating: ``act``
    requires a Lie algebra, so J_phi and J_{h.phi} are alternating (the
    alternation lemma in ``algebra._hom_terms``), and so is
    (h . J)(x,y,z) = [J(x,y,z), h] - J([x,h],y,z) - J(x,[y,h],z) -
    J(x,y,[z,h]) for an alternating J: swapping x and y negates the first
    and last terms and trades the middle two for each other's negatives
    (the other swaps likewise), and with two arguments equal the terms
    vanish or cancel in pairs."""
    n = alg.dim
    for _ in range(3):
        h = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        phi = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        hphi = act(alg, h, phi)
        j_hphi = _jacobiator(alg, hphi)
        j_phi = _jacobiator(alg, phi)
        right = _right(alg, h)  # right[s] = [e_s, h]
        for i, j, k in _jacobi_triples(alg):
            # (h . J)(x,y,z) = [J(x,y,z), h] - J([x,h],y,z) - J(x,[y,h],z) - J(x,y,[z,h])
            rhs = sparse_lincomb(
                *((c, right[q]) for q, c in j_phi[(i, j, k)].items()),
                *((-c, j_phi[(t, j, k)]) for t, c in right[i].items()),
                *((-c, j_phi[(i, t, k)]) for t, c in right[j].items()),
                *((-c, j_phi[(i, j, t)]) for t, c in right[k].items()),
            )
            if j_hphi[(i, j, k)] != rhs:
                return f"intertwining fails at triple ({i},{j},{k})"
    return None


def check_filippov_inclusion(alg: AlgebraSpec) -> str | None:
    hom = solve_structures(alg, HOM_LIE)
    for d in FILIPPOV_DELTAS:
        dd = solve_structures(alg, delta_derivation(d))
        if not dd.space.is_subspace_of(hom.space):
            return f"delta={d} derivations not contained in the structure space"
    return None


def check_f_t_membership(alg: AlgebraSpec, rng: random.Random) -> str | None:
    """f_t on random structures and elements t; f_t itself asserts that
    each form it builds is an asymmetric cocycle."""
    form = killing_form(alg)
    maps = solve_structures(alg, HOM_LIE).basis_maps() or [Matrix.identity(alg.dim)]
    for _ in range(3):
        phi = rng.choice(maps)
        f_t(alg, form, phi, tuple(Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)))
    return None


def check_conjugation_stability(alg: AlgebraSpec) -> str | None:
    space = solve_structures(alg, HOM_LIE).space
    for i in range(alg.dim):
        pair = _exp_ad(alg, alg.basis_vector(i))
        if pair is None:
            continue
        for _, phi in space.rows:  # conjugate(alg, phi, e_i), flattened
            if not space.contains(_sandwich(pair[1], phi, pair[0])):
                return f"conjugation by basis vector {i} leaves the space"
    return None


def _is_hom_lie(alg: AlgebraSpec, phi: Matrix) -> bool:
    """Whether phi satisfies the hom-lie identity on ``alg``, an
    anticommutative algebra: its Jacobiator (``_jacobiator``) vanishes."""
    return not any(_jacobiator(alg, phi).values())


def check_semidirect_delta_embedding(alg: AlgebraSpec, delta: Fraction = Fraction(2)) -> str | None:
    """For D solving the delta-derivation identity, the extension l + K.D
    carries the structure acting as id on l and as 1/delta on D;
    ``_is_hom_lie`` decides it without solving the extension's structure
    space."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    sol = solve_structures(alg, delta_derivation(delta))
    n = alg.dim
    alpha = Matrix.from_sparse(n + 1, n + 1, {**{(i, i): 1 for i in range(n)}, (n, n): Fraction(1) / delta})
    for d in sol.basis_maps():
        if not _is_hom_lie(adjoin_map(alg, d), alpha):
            return "embedding structure missing on the extension"
    return None


PROPERTY_CHECKS: list[tuple[str, Callable]] = [
    ("identity-membership", lambda alg, rng: check_identity_membership(alg)),
    ("submodule", lambda alg, rng: check_submodule_property(alg)),
    ("action-intertwines-jacobiator", check_action_intertwines_jacobiator),
    ("filippov-inclusion", lambda alg, rng: check_filippov_inclusion(alg)),
    ("f-t-cocycle", check_f_t_membership),
    ("conjugation-stability", lambda alg, rng: check_conjugation_stability(alg)),
    ("semidirect-delta-embedding", lambda alg, rng: check_semidirect_delta_embedding(alg)),
]


def run_property_suite(
    algebras: Sequence[tuple[str, AlgebraSpec]], seed: int = 7
) -> list[tuple[str, str, str | None]]:
    """Run every property check on every Lie-flavor algebra; returns
    (algebra, property, failure|None) rows."""
    rows = []
    for name, alg in algebras:
        if alg.flavor != "lie":
            continue
        for prop_name, fn in PROPERTY_CHECKS:
            rng = random.Random((seed, name, prop_name).__repr__())
            rows.append((name, prop_name, fn(alg, rng)))
    return rows

"""The hom kinds solved from one basis triple per symmetry orbit
(``solver._triples``) against a test-local compile of every ordered triple:
the same canonical subspaces on the builtin, random and commutative
algebras, the commutative/anticommutative tensor pairs and, shift block by
shift block, the sl2 loop windows."""

from itertools import product

import pytest

from homlie.algebra import builtin, make_algebra
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import tensor_lie
from homlie.linalg import nullspace_of_rows
from homlie.scenarios import _random_comm_anticomm_pairs
from homlie.solver import HOM_2NILP, HOM_CYCLIC, HOM_LIE, _solve_shift_blocks, grading_shifts, solve_structures
from test_window import _twisted, _untwisted

KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]

# (ab)phi(c) + s1 (ca)phi(b) + s2 (bc)phi(a), one sign per term
SIGNS = {HOM_LIE: (1, 1, 1), HOM_CYCLIC: (1, -1), HOM_2NILP: (1,)}


def every_triple_rows(alg, kind, shift=None):
    """The rows of the kind's identity at every ordered triple, phi(e_c) ->
    e_q at column q*n + c.  With a shift, phi sends degree d to d + shift
    and a triple is imposed only when every product it reads is defined:
    each e_x e_y, and e_p e_q for the p in it and the q phi(e_z) may hold."""
    n, table = alg.dim, alg.table
    deg = alg.grading or (0,) * n
    image = [[q for q in range(n) if shift is None or deg[q] == deg[z] + shift] for z in range(n)]
    for a, b, c in product(range(n), repeat=3):
        rows = {}  # output coordinate m -> row
        for (x, y, z), sign in zip(((a, b, c), (c, a, b), (b, c, a)), SIGNS[kind]):
            xy = table.get((x, y), ())
            if xy is None or any(table.get((p, q), ()) is None for p, _ in xy for q in image[z]):
                break
            for p, w in xy:
                for q in image[z]:
                    for m, cpq in table.get((p, q), ()):
                        row = rows.setdefault(m, {})
                        row[q * n + z] = row.get(q * n + z, 0) + sign * w * cpq
        else:
            yield from ({col: x for col, x in row.items() if x} for row in rows.values())


def block_reference(alg, kind, shift):
    """The kind's solutions sending degree d to d + shift, from every ordered
    triple: the unit rows of the other columns pin them to zero."""
    n, deg = alg.dim, alg.grading
    outside = ({q * n + c: 1} for q, c in product(range(n), repeat=2) if deg[q] != deg[c] + shift)
    return nullspace_of_rows(n * n, [*outside, *every_triple_rows(alg, kind, shift)])


def _commutative_builtins():
    return [(f"{name}{m}", builtin(name, m)) for name in ("trunc_poly", "cyclic_group_alg") for m in range(1, 6)]


def _tensor_pairs():
    out = []
    for i, (a, b) in enumerate(_random_comm_anticomm_pairs()):
        out += [(f"random-{i}-a", a), (f"random-{i}-b", b), (f"random-{i}-tensor", tensor_lie(a, b))]
    out.append(("trunc_poly2 (x) sl2", tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2))))
    return out


# e0 e1 = e0 has no symmetry: every ordered triple is kept
ONE_SIDED = ("one-sided", make_algebra(2, {(0, 1): [(0, 1)]}))

ALGEBRAS = {
    "builtin": builtin_battery,
    "random": random_lie_battery,
    "commutative": _commutative_builtins,
    "tensor-pairs": _tensor_pairs,
    "unchecked": lambda: [ONE_SIDED],
}


@pytest.mark.parametrize("kind", KINDS, ids=str)
@pytest.mark.parametrize("family", ALGEBRAS)
def test_orbit_triples_solve_every_ordered_triple(family, kind):
    for name, alg in ALGEBRAS[family]():
        want = nullspace_of_rows(alg.dim ** 2, every_triple_rows(alg, kind))
        assert solve_structures(alg, kind).space == want, name


@pytest.mark.parametrize("kind", KINDS, ids=str)
@pytest.mark.parametrize("model, size", [(_untwisted, 2), (_untwisted, 3), (_untwisted, 4), (_twisted, 3)],
                         ids=["untwisted-2", "untwisted-3", "untwisted-4", "twisted-3"])
def test_orbit_triples_solve_every_window_shift(model, size, kind):
    alg = model(size)
    for shift in grading_shifts(alg):
        assert _solve_shift_blocks(alg, kind, [shift], nullspace_of_rows) == block_reference(alg, kind, shift), shift

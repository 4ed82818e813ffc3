"""The hom kinds solved from one basis triple per symmetry orbit
(``solver._triples``) against ``oracle``, which imposes every ordered
triple: the same canonical subspaces on the builtin, random and
commutative algebras, the commutative/anticommutative tensor pairs and,
shift block by shift block, the sl2 loop windows."""

import pytest

from homlie.algebra import builtin, make_algebra
from homlie.battery import builtin_battery, random_lie_battery
from homlie.constructions import tensor_lie
from homlie.linalg import nullspace_of_rows
from homlie.scenarios import _random_comm_anticomm_pairs
from homlie.solver import _solve_shift_blocks, grading_shifts, solve_structures
from shared import HOM_KINDS, twisted, untwisted


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


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
@pytest.mark.parametrize("family", ALGEBRAS)
def test_orbit_triples_solve_every_ordered_triple(family, kind, reference):
    for name, alg in ALGEBRAS[family]():
        assert solve_structures(alg, kind).space == reference(name, alg, "space", kind), name


@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
@pytest.mark.parametrize("model, size", [(untwisted, 2), (untwisted, 3), (untwisted, 4), (twisted, 3)],
                         ids=["untwisted-2", "untwisted-3", "untwisted-4", "twisted-3"])
def test_orbit_triples_solve_every_window_shift(model, size, kind, reference):
    alg = model(size)
    want = reference(f"{model.__name__}-{size}", alg, "blocks", kind)
    for shift in grading_shifts(alg):
        assert _solve_shift_blocks(alg, kind, [shift], nullspace_of_rows) == want[shift], shift

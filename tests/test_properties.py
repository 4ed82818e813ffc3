"""Algebra-level property battery on builtins and generated Lie algebras."""

import random
from fractions import Fraction

import pytest

from homlie.battery import (
    FILIPPOV_DELTAS,
    _is_hom_lie,
    check_action_intertwines_jacobiator,
    check_conjugation_stability,
    check_f_t_membership,
    check_filippov_inclusion,
    check_identity_membership,
    check_semidirect_delta_embedding,
    check_submodule_property,
    lie_battery,
    random_lie_battery,
)
from homlie.constructions import adjoin_map
from homlie.linalg import Matrix
from homlie.solver import HOM_LIE, delta_derivation, solve_structures

F = Fraction

SMALL_LIE = lie_battery(max_dim=6)
RANDOM_LIE = random_lie_battery(count=8, seed=12345)


def test_random_battery_is_deterministic():
    a = random_lie_battery(count=5, seed=99)
    b = random_lie_battery(count=5, seed=99)
    assert [alg.table for _, alg in a] == [alg.table for _, alg in b]
    assert all(alg.flavor == "lie" and alg.dim <= 5 for _, alg in a)


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE, ids=lambda v: v if isinstance(v, str) else "")
def test_identity_membership(name, alg):
    assert check_identity_membership(alg) is None


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE, ids=lambda v: v if isinstance(v, str) else "")
def test_solution_space_is_a_submodule(name, alg):
    assert check_submodule_property(alg) is None


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE[:4], ids=lambda v: v if isinstance(v, str) else "")
def test_action_intertwines_the_jacobiator(name, alg):
    assert check_action_intertwines_jacobiator(alg, random.Random(f"jac-{name}")) is None


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE, ids=lambda v: v if isinstance(v, str) else "")
def test_filippov_inclusion(name, alg):
    assert check_filippov_inclusion(alg) is None


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE[:4], ids=lambda v: v if isinstance(v, str) else "")
def test_f_t_lands_in_cocycles(name, alg):
    assert check_f_t_membership(alg, random.Random(f"ft-{name}")) is None


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE[:4], ids=lambda v: v if isinstance(v, str) else "")
def test_conjugation_stability(name, alg):
    assert check_conjugation_stability(alg) is None


@pytest.mark.parametrize("name,alg", SMALL_LIE + RANDOM_LIE[:4], ids=lambda v: v if isinstance(v, str) else "")
def test_semidirect_delta_embedding(name, alg):
    for delta in FILIPPOV_DELTAS:
        assert check_semidirect_delta_embedding(alg, delta) is None


def test_embedding_residual_agrees_with_the_solved_space():
    """The embedding check evaluates the identity at the structure it
    tests; on every extension it builds, that verdict equals membership in
    the solved hom-lie space, for the structure and for two wrong ones."""
    cases = rejected = 0
    for name, alg in lie_battery(max_dim=8) + random_lie_battery(count=25):
        n = alg.dim
        for delta in FILIPPOV_DELTAS:
            for d in solve_structures(alg, delta_derivation(delta)).basis_maps():
                ext = adjoin_map(alg, d)
                space = solve_structures(ext, HOM_LIE)
                for last in (1 / delta, delta, 1 + 1 / delta):
                    entries = {(i, i): F(1) for i in range(n)}
                    entries[(n, n)] = last
                    alpha = Matrix.from_sparse(n + 1, n + 1, entries)
                    verdict = _is_hom_lie(ext, alpha)
                    assert verdict == space.contains_map(alpha), (name, delta, last)
                    cases += 1
                    rejected += not verdict
    assert cases > 1000 and rejected > 100

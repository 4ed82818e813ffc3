"""Algebra-level property battery on builtins and generated Lie algebras."""

import random
from fractions import Fraction

import pytest

from homlie.battery import (
    FILIPPOV_DELTAS,
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

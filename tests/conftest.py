"""Fixtures shared by the test modules."""

import pytest

import oracle
from homlie import algebra, solver


@pytest.fixture
def raised(monkeypatch):
    """The pair of every ``UndefinedProduct`` the term builders make, in order."""
    pairs = []
    undefined = algebra._undefined

    def record(i, j):
        pairs.append((i, j))
        return undefined(i, j)

    monkeypatch.setattr(algebra, "_undefined", record)
    return pairs


@pytest.fixture(scope="session")
def reference():
    """``oracle.<what>(alg, *args)`` for the model named ``name``, solved once
    per test session (a name stands for one algebra in every module): the
    oracle reads no solver code, so a test that patches the solver shares
    it too."""
    solved = {}

    def answer(name, alg, what, *args):
        if (name, what, *args) not in solved:
            solved[name, what, *args] = getattr(oracle, what)(alg, *args)
        return solved[name, what, *args]

    return answer


@pytest.fixture
def solved(monkeypatch):
    """The subspace of every system ``solver._solve_modulo`` solves, in order."""
    spaces = []
    solve_modulo = solver._solve_modulo

    def recorded(known, stream, col_maps, gaps, kernel):
        spaces.append(solve_modulo(known, stream, col_maps, gaps, kernel))
        return spaces[-1]

    monkeypatch.setattr(solver, "_solve_modulo", recorded)
    return spaces

"""Fixtures shared by the test modules."""

import pytest

from homlie import algebra


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

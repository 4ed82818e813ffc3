import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlie.algebra import builtin, killing_form, make_algebra
from homlie.constructions import km_window
from homlie.serialize import (
    algebra_from_json,
    algebra_to_json,
    format_scalar,
    parse_scalar,
    partial_to_json,
    solution_to_json,
)
from homlie.solver import HOM_LIE, solve_structures

F = Fraction


def test_scalar_round_trip():
    assert format_scalar(F(-3, 7)) == "-3/7"
    assert parse_scalar("-3/7") == F(-3, 7)
    assert parse_scalar("5") == 5
    assert parse_scalar(4) == 4
    with pytest.raises(TypeError):
        parse_scalar(0.5)


@pytest.mark.parametrize("name", ["sl2", "sl3", "heisenberg", "trunc_poly:3", "cyclic_group_alg:2"])
def test_algebra_round_trip(name):
    from homlie.algebra import parse_builtin

    alg = parse_builtin(name)
    doc = algebra_to_json(alg)
    redone = algebra_from_json(json.loads(json.dumps(doc)))
    assert redone.dim == alg.dim
    assert redone.table == alg.table
    assert redone.flavor == alg.flavor
    assert redone.grading == alg.grading
    assert redone.basis_names == alg.basis_names


def test_omitted_pairs_mean_zero():
    doc = {"dim": 2, "flavor": "lie", "table": []}
    alg = algebra_from_json(doc)
    assert alg.multiply(alg.basis_vector(0), alg.basis_vector(1)) == (F(0), F(0))


def test_duplicate_table_entry_is_rejected():
    doc = {"dim": 2, "flavor": "unchecked", "table": [[0, 1, [[0, "1"]]], [0, 1, [[1, "1"]]]]}
    with pytest.raises(ValueError, match=r"duplicate table entry for pair \(0, 1\)"):
        algebra_from_json(doc)


@pytest.mark.parametrize("dim", ["2", 2.0, True, -1, None])
def test_dim_must_be_a_nonnegative_integer(dim):
    doc = {"dim": dim, "flavor": "lie", "table": []}
    with pytest.raises(ValueError, match="'dim'"):
        algebra_from_json(doc)


@pytest.mark.parametrize("flavor", [None, "partial-anticommutative", "Lie"])
def test_flavor_must_be_declared_and_known(flavor):
    doc = {"dim": 2, "table": []}
    if flavor is not None:
        doc["flavor"] = flavor
    with pytest.raises(ValueError, match="'flavor'"):
        algebra_from_json(doc)


def test_zero_denominator_is_rejected():
    with pytest.raises(ValueError, match="'1/0'"):
        parse_scalar("1/0")


def test_fractional_coefficients_survive():
    alg = make_algebra(2, {(0, 0): [(1, F(2, 3))]}, flavor="generic-commutative")
    doc = algebra_to_json(alg)
    assert doc["table"] == [[0, 0, [[1, "2/3"]]]]
    assert algebra_from_json(doc).table == alg.table


def test_partial_serialization():
    g = builtin("sl", 2)
    pa = km_window(g, killing_form(g), 2)
    doc = partial_to_json(pa)
    assert doc["partial"] is True
    assert doc["window"] == 2
    assert doc["dim"] == 17
    assert [17 - 2] not in doc["out_of_window"]
    assert all(len(pair) == 2 for pair in doc["out_of_window"])
    # out-of-window pairs are exactly the loop pairs whose degrees escape
    for i, j in doc["out_of_window"]:
        assert abs(pa.grading[i] + pa.grading[j]) > 2


def test_solution_serialization():
    alg = builtin("sl", 2)
    sol = solve_structures(alg, HOM_LIE)
    doc = solution_to_json("hom-lie", algebra_to_json(alg), sol.space)
    assert doc["dim"] == 6
    assert len(doc["basis_maps"]) == 6
    assert all(len(row) == 9 for row in doc["basis_maps"])
    json.dumps(doc)  # must be serializable as-is


@st.composite
def small_tables(draw):
    """A dimension and a table of int and p/q constants (some p/q integral)."""
    dim = draw(st.integers(min_value=1, max_value=4))
    index = st.integers(min_value=0, max_value=dim - 1)
    scalar = st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)),
    ).filter(bool)
    terms = st.dictionaries(index, scalar, min_size=1, max_size=dim).map(lambda d: sorted(d.items()))
    return dim, draw(st.dictionaries(st.tuples(index, index), terms, max_size=dim * dim))


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_algebra_json_round_trip_keeps_bytes_and_scalar_kinds(dim_table):
    dim, table = dim_table
    alg = make_algebra(dim, table, flavor="unchecked")
    text = json.dumps(algebra_to_json(alg))
    redone = algebra_from_json(json.loads(text))
    assert json.dumps(algebra_to_json(redone)) == text

    def kinds(a):
        return {pair: [(k, type(c)) for k, c in terms] for pair, terms in a.table.items()}

    assert kinds(redone) == kinds(alg)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for terms in alg.table.values() for _, c in terms)

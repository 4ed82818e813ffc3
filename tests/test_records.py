"""Value semantics of the package's records: none can be changed once made,
and each compares and hashes as the code that keeps them relies on (the
solves kept on an algebra, the kinds and forms used as keys)."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import homlie
from homlie.actions import SubmoduleWitness, WeightComponent
from homlie.algebra import BilinearForm, builtin, killing_form
from homlie.constructions import cocycle2
from homlie.jordan import ClosureVerdict, ClosureWitness, CounterexampleReport
from homlie.linalg import Frozen, Matrix, Subspace
from homlie.scenarios import REGISTRY, ScenarioResult
from homlie.solver import (ExactnessReport, HomSolution, MultiplicativityWitness, QDerSolution, SpanAssembly,
                           parse_kind)
from homlie.window import InnerWindowReport, WindowSolution

F = Fraction
SL2 = builtin("sl", 2)
SPACE = Subspace.from_spanning([[1, 0, 0]], 3)
ID3 = Matrix.identity(3)
RECORDS = [
    SL2, SL2.table, killing_form(SL2), ID3, SPACE, parse_kind("delta:1"),
    cocycle2(SL2, Matrix.from_sparse(3, 3, {(0, 1): 1, (1, 0): -1})),
    HomSolution(SL2, parse_kind("hom-lie"), SPACE), QDerSolution(SL2, "adjoint", SPACE),
    ExactnessReport(SL2, SPACE, SPACE, True), MultiplicativityWitness((0, 1), (F(0),) * 3, (F(1),) * 3),
    SpanAssembly(SPACE, (("block", 1),)), InnerWindowReport((0,), 1, 1, 1, True, 0),
    WindowSolution(SL2, None, HomSolution(SL2, parse_kind("hom-lie"), SPACE), InnerWindowReport((0,), 1, 1, 1, True, 0)),
    ClosureWitness(0, 1, ID3, (0, 1, 2), (F(1),)), ClosureVerdict(True, None, {}),
    CounterexampleReport(3, (0, 1), True, True, False, (0, 1, 2), (F(1),), True),
    SubmoduleWitness(0, 1), WeightComponent((F(2),), SPACE), REGISTRY["prop-2.1"],
    ScenarioResult("prop-2.1", "a claim", "pass", {}),
]


def _fields(record) -> list[str]:
    return list(record._fields) if isinstance(record, tuple) else list(vars(record))


def test_every_record_class_is_listed():
    """Every record class of the package (a ``NamedTuple`` or a ``Frozen``
    class) has an instance in ``RECORDS``."""
    modules = [importlib.import_module(f"homlie.{path.stem}")
               for path in Path(homlie.__file__).parent.glob("*.py") if path.stem != "__init__"]
    defined = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and (issubclass(cls, Frozen) and cls is not Frozen or issubclass(cls, tuple) and hasattr(cls, "_fields"))}
    assert defined == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_record_can_be_changed(record):
    """Assigning or deleting a field, or adding an attribute, raises
    AttributeError and leaves the record as it was."""
    fields = _fields(record)
    assert fields
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.added = None
    assert _fields(record) == fields


def test_records_compare_and_hash_as_their_keepers_rely_on():
    # a kind is a key of the solves kept on an algebra: equal kinds hash alike
    kinds = parse_kind("delta:1"), parse_kind("delta:1")
    assert kinds[0] == kinds[1] and hash(kinds[0]) == hash(kinds[1]) and len(set(kinds)) == 1
    assert parse_kind("delta:1") != parse_kind("delta:2") and parse_kind("hom-lie") != parse_kind("hom-cyclic")
    # an algebra is itself only: two builds of sl2 are two keys
    a, b = builtin("sl", 2), builtin("sl", 2)
    assert a == a and a != b and len({a: 1, b: 2}) == 2
    # a subspace is its reduced basis, however it was spanned
    s, t = Subspace.from_spanning([[1, 1, 0], [0, 1, 0]], 3), Subspace.from_spanning([[2, 0, 0], [1, 3, 0], [0, 1, 0]], 3)
    assert s == t and hash(s) == hash(t) and s != Subspace.full(3) and s != Subspace.from_spanning([[1, 1, 0]], 3)
    # a matrix is its sparse rows and width, however it was built
    dense = Matrix([[1, 0], [F(1, 2), 3]], 2)
    sparse = Matrix.from_sparse(2, 2, {(0, 0): 1, (1, 0): F(1, 2), (1, 1): F(3)})
    assert dense == sparse and hash(dense) == hash(sparse) and dense != Matrix.zeros(2, 2)
    assert Matrix.zeros(2, 2) != Matrix.zeros(2, 3)
    # a form is its matrix
    assert BilinearForm(dense) == BilinearForm(sparse) and hash(BilinearForm(dense)) == hash(BilinearForm(sparse))
    # the pair view of an algebra's products is a Mapping: equal by its items, and no key
    assert a.table == b.table == dict(a.table)
    with pytest.raises(TypeError):
        hash(a.table)

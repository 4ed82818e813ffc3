"""The row path from the term builders to the exact kernel.

``solver._sparse_rows`` compiles one group of terms (one evaluated tuple)
into a list of rows: the terms summed by row key, in the order the keys
were first touched, with no zero entry and no zero row.  Every compiled
stream is run with each group checked against that contract: the three
hom kinds and the delta kinds block by block, the six bilinear kinds,
both quasiderivation modules and ``seq_uv``, on the builtin and random
batteries, the window models at every shift and the partial tables, and
every space they solve is ``oracle``'s.  The kernel's side:
``RowAccumulator.add`` reads a row with zero entries as the row without
them, and changes no row it is given."""

from collections import Counter
from fractions import Fraction

import pytest

from homlie import solver
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import RowAccumulator, nullspace_of_rows
from homlie.solver import BILINEAR_KINDS, _plan, _solve_block, _sparse_rows, grading_shifts, seq_uv, solve_bilinear, solve_qder
from shared import DELTA_KINDS, HOM_KINDS, partial_tables, window_models

F = Fraction


def entries(rows):
    """Each row's (column, value, value's type) in the row's own order."""
    return [[(col, val, type(val)) for col, val in row.items()] for row in rows]


def cancelled(terms):
    """The row keys, the zero entries kept rows drop, and the rows that cancel whole."""
    rows = {}
    for key, col, val in terms:
        rows.setdefault(key, Counter())[col] += val
    values = [list(row.values()) for row in rows.values()]
    return len(rows), sum(v.count(0) for v in values if any(v)), sum(not any(v) for v in values)


@pytest.fixture
def compared(monkeypatch):
    """Check every group ``solver`` compiles against the compiler's
    contract, and count groups and what cancelling terms dropped."""
    tally = Counter()

    def checked(terms):
        terms = list(terms)  # a builder that raises raises here, as in the compiler
        rows = _sparse_rows(iter(terms))
        keys, zero_entries, zero_rows = cancelled(terms)
        assert isinstance(rows, list) and len(rows) == keys - zero_rows
        assert all(row and 0 not in row.values() for row in rows)
        tally.update(groups=1, rows=len(rows), zero_entries=zero_entries, zero_rows=zero_rows)
        return rows

    monkeypatch.setattr(solver, "_sparse_rows", checked)
    return tally


def compile_every_stream(name, alg, reference):
    """Solve each shift block of the hom and delta kinds, and on a complete
    Lie table the bilinear kinds, both qder modules and ``seq_uv``, each
    against the oracle."""
    complete = _plan(alg).complete
    for kind in HOM_KINDS + (DELTA_KINDS if complete else []):
        want = reference(name, alg, "blocks", kind)
        for shift in grading_shifts(alg):
            assert _solve_block(alg, kind, shift, nullspace_of_rows) == want[shift], (name, str(kind), shift)
    if complete and alg.flavor == "lie":
        for kind in BILINEAR_KINDS:
            assert solve_bilinear(alg, kind) == reference(name, alg, "form_space", kind), (name, kind)
        for module in ("adjoint", "coadjoint"):
            assert solve_qder(alg, module).space == reference(name, alg, "qder_space", module), (name, module)
        report = seq_uv(alg)
        assert (report.u_image, report.v_kernel, report.u_injective) == reference(name, alg, "seq_uv"), name


FAMILIES = {
    "builtin": builtin_battery,
    "random": random_lie_battery,
    "windows": window_models,
    "partial": lambda: [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_each_group_compiles_the_replaced_rows(family, compared, reference):
    for name, alg in FAMILIES[family]():
        compile_every_stream(name, alg, reference)
    assert compared["groups"] > 0 and compared["rows"] > 0


def test_the_battery_streams_hold_cancelling_terms(compared, reference):
    """The zero filter is on the path: terms cancel in the builtin battery's
    streams, both to a zero entry of a kept row and to a whole zero row."""
    for name, alg in builtin_battery():
        compile_every_stream(name, alg, reference)
    assert compared["zero_entries"] > 0 and compared["zero_rows"] > 0


def test_cancelling_terms_in_one_group():
    terms = [(0, 4, 2), (1, 2, F(1, 2)), (0, 1, 3), (0, 4, -2), (2, 5, 1), (1, 2, F(-1, 2)), (2, 3, 1), (0, 1, 1)]
    assert entries(_sparse_rows(iter(terms))) == [[(1, 4, int)], [(5, 1, int), (3, 1, int)]]
    assert _sparse_rows(iter(terms)) == [{1: 4}, {5: 1, 3: 1}]
    assert list(_sparse_rows(iter(terms))[1]) == [5, 3]
    assert _sparse_rows(iter([(0, 1, 1), (0, 1, -1)])) == [] == _sparse_rows(iter([]))


def test_a_raising_group_gives_no_row():
    def raising():
        yield 0, 1, 1
        raise solver.UndefinedProduct(0, 1)

    with pytest.raises(solver.UndefinedProduct):
        _sparse_rows(raising())


@pytest.mark.parametrize("rows, clean", [
    ([{0: 0, 2: 3}, {1: 2, 2: 0, 3: 1}, {3: 0}, {0: F(1, 2), 1: 0, 3: F(1, 3)}],
     [{2: 3}, {1: 2, 3: 1}, {}, {0: F(1, 2), 3: F(1, 3)}]),
    ([{0: 2, 1: 4}, {0: 0, 1: 5}, {0: 3, 2: 0, 1: 6}, {2: 1, 1: 0}],
     [{0: 2, 1: 4}, {1: 5}, {0: 3, 1: 6}, {2: 1}]),
])
def test_the_kernel_reads_a_row_without_its_zero_entries(rows, clean):
    """Each row with zero entries adds what the row without them adds, to
    the same pivots, and the rows are left as they were given."""
    given = [dict(r) for r in rows]
    acc, want = RowAccumulator(4), RowAccumulator(4)
    assert [acc.add(r) for r in rows] == [want.add(r) for r in clean]
    assert acc.pivots == want.pivots and rows == given
    assert nullspace_of_rows(4, rows) == nullspace_of_rows(4, clean)

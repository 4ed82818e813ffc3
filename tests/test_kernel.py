"""The exact kernel against the elimination it replaced.

``_SeedAccumulator`` and the ``_seed_*`` functions are copies of
``RowAccumulator.add``/``_reduced_rows``, ``nullspace_of_rows``,
``Subspace._reduce`` and ``SpanSolver.express`` as they were before unit
rows, in-place and integer elimination and pivot-driven reduction.  The row
streams are recorded from real solves: every row any ``RowAccumulator``
receives while the ladder, the builtin battery, the random battery and the
window models are solved (algebra construction included), and each stream
is replayed through both kernels.
"""

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from homlie.algebra import parse_builtin
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import RowAccumulator, SpanSolver, Subspace, nullspace_of_rows, sparse_lincomb
from homlie.solver import BILINEAR_KINDS, parse_kind, solve_bilinear, solve_qder, solve_structures
from homlie.window import solve_window
from shared import WINDOW_MODELS, is_exact_entry, naive_rref

F = Fraction


# -- the seed kernel ----------------------------------------------------------


def _seed_normalize_content(row):
    content = 0
    for v in row.values():
        content = gcd(content, v)
        if content == 1:
            return
    if content > 1:
        for c in row:
            row[c] //= content


class _SeedAccumulator:
    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}
        self._seen = set()

    def add(self, row):
        denom = lcm(*[v.denominator for v in row.values()])
        work = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
        _seed_normalize_content(work)
        if not work:
            return False
        key = tuple(sorted(work.items()))
        if key in self._seen:
            return False
        self._seen.add(key)
        while work:
            lead = min(work)
            piv = self.pivots.get(lead)
            if piv is None:
                _seed_normalize_content(work)
                self.pivots[lead] = work
                return True
            if abs(work[lead]) < abs(piv[lead]):
                self.pivots[lead] = work
                work, piv = piv, work
            a, b = piv[lead], work[lead]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            merged = {c: v * ca for c, v in work.items()}
            for c, v in piv.items():
                n = merged.get(c, 0) - v * cb
                if n:
                    merged[c] = n
                else:
                    merged.pop(c, None)
            work = merged
        return False

    def _reduced_rows(self):
        order = sorted(self.pivots)
        reduced = {}
        for p in reversed(order):
            row = {c: Fraction(v) for c, v in self.pivots[p].items()}
            for q in order:
                if q > p and q in row:
                    coeff = row.pop(q)
                    for c, v in reduced[q].items():
                        if c == q:
                            continue
                        n = row.get(c, Fraction(0)) - coeff * v
                        if n:
                            row[c] = n
                        else:
                            row.pop(c, None)
            lead = row[p]
            reduced[p] = {c: v / lead for c, v in row.items()}
        return [(p, reduced[p]) for p in order]


def _seed_span(vectors, ambient):
    acc = _SeedAccumulator(ambient)
    for v in vectors:
        acc.add({j: x for j, x in v.items() if x})
    return acc._reduced_rows()


def _seed_nullspace_of_rows(ncols, rows):
    """The kernel's reduced rows and the number of rows pulled."""
    acc = _SeedAccumulator(ncols)
    pulled = 0
    for r in rows:
        pulled += 1
        if acc.add(r) and len(acc.pivots) == ncols:
            return [], pulled
    kernel = {f: {f: Fraction(1)} for f in range(ncols) if f not in acc.pivots}
    for p, row in acc._reduced_rows():
        for c, v in row.items():
            if c != p:
                kernel[c][p] = -v
    return _seed_span(kernel.values(), ncols), pulled


def _seed_reduce(rows, v):
    residual = {j: x for j, x in v.items() if x}
    coeffs = []
    for p, r in rows:
        c = residual.get(p, Fraction(0))
        coeffs.append(c)
        if c:
            for j, x in r.items():
                n = residual.get(j, 0) - c * x
                if n:
                    residual[j] = n
                else:
                    del residual[j]
    return coeffs, residual


def _seed_coords(rows, v):
    coeffs, residual = _seed_reduce(rows, v)
    return None if residual else tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)


def _seed_solver_rows(vectors, ambient):
    return _seed_span([{**v, ambient + i: Fraction(1)} for i, v in enumerate(vectors)], ambient + len(vectors))


def _seed_express(rows, ambient, k, target):
    residual = {j: Fraction(x) for j, x in target.items() if x}
    zero = Fraction(0)
    combo = {}
    for p, row in rows:
        if p >= ambient:
            break
        c = residual.get(p)
        if not c:
            continue
        for j, x in row.items():
            if j < ambient:
                n = residual.get(j, zero) - c * x
                if n:
                    residual[j] = n
                else:
                    residual.pop(j, None)
            else:
                combo[j - ambient] = combo.get(j - ambient, zero) + c * x
    if residual:
        return None
    return tuple(combo.get(i, zero) for i in range(k))


# -- recorded row streams -----------------------------------------------------


def _record(run):
    """Every row stream sent to ``RowAccumulator.add`` while ``run()``
    works, as (ncols, rows) in the order the accumulators were first fed."""
    streams = {}
    real = RowAccumulator.add

    def add(acc, row):
        streams.setdefault(acc, (acc.ncols, []))[1].append(dict(row))
        return real(acc, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RowAccumulator, "add", add)
        run()
    return list(streams.values())


LADDER = ([(a, "hom-lie") for a in ("sl3", "sl4", "sl5", "sl6", "so5", "so7", "sp4", "sp6")]
          + [(a, k) for a in ("sl4", "sl5", "so7", "sp6") for k in ("hom-cyclic", "hom-2nilp", "delta:2")])
KINDS = ("hom-lie", "hom-cyclic", "hom-2nilp", "delta:1", "delta:1/2", "delta:2")


def _ladder():
    algebras = {}
    for name, kind in LADDER:
        alg = algebras.setdefault(name, parse_builtin(name))
        solve_structures(alg, parse_kind(kind))


def _battery(algebras):
    for _, alg in algebras:
        for kind in KINDS:
            solve_structures(alg, parse_kind(kind))
        if alg.flavor == "lie":
            for kind in BILINEAR_KINDS:
                solve_bilinear(alg, kind)
            for module in ("adjoint", "coadjoint"):
                solve_qder(alg, module)


def _windows():
    for param in WINDOW_MODELS:
        model, n = param.values
        solve_window(model(n))


WORKLOADS = {
    "ladder": _ladder,
    "builtin-battery": lambda: _battery(builtin_battery()),
    "random-battery": lambda: _battery(random_lie_battery()),
    "windows": _windows,
}

# The seed reduction walks every row of the space for each vector, so coords
# and contains are compared on at most this many basis vectors, spread over
# the stream; SpanSolver's set-up reduces [vectors | identity], whose second
# half fills in quadratically, so express is compared on a stream's first rows.
COORDS_VECTORS = 48
EXPRESS_ROWS = 40


def _counted(rows, pulled):
    for r in rows:
        pulled[0] += 1
        yield r


def _check_stream(ncols, stream):
    new, seed = RowAccumulator(ncols), _SeedAccumulator(ncols)
    grew = [new.add(r) for r in stream]
    assert grew == [seed.add(r) for r in stream]
    assert sorted(new.pivots) == sorted(seed.pivots)
    reduced = new._reduced_rows()
    assert reduced == seed._reduced_rows()
    assert all(is_exact_entry(x) for _, r in reduced for x in r.values())

    pulled = [0]
    kernel = nullspace_of_rows(ncols, _counted(stream, pulled))
    seed_kernel, seed_pulled = _seed_nullspace_of_rows(ncols, stream)
    assert pulled[0] == seed_pulled
    assert [(p, dict(r)) for p, r in kernel.rows] == seed_kernel

    # the rows that raised the rank are a basis of the row space
    space = Subspace(ncols, reduced)
    basis = [r for r, g in zip(stream, grew) if g]
    free = next((f for f in range(ncols) if f not in new.pivots), None)
    base = basis[0] if basis else {}
    outside = [] if free is None else [{**base, free: base.get(free, 0) + 1}]
    for v in basis[::-(-len(basis) // COORDS_VECTORS) or 1] + outside:
        coords = space.coords(v)
        assert coords == _seed_coords(reduced, v)
        assert coords is None or all(type(c) is Fraction for c in coords)
        assert space.contains(v) == (coords is not None)

    head = stream[:EXPRESS_ROWS]
    solver = SpanSolver(head, ncols)
    later = [r for r, g in zip(stream[EXPRESS_ROWS:], grew[EXPRESS_ROWS:]) if g]
    targets = head + [r for _, r in Subspace.from_spanning(head, ncols).rows] + later[:1] + outside
    seed_rows = _seed_solver_rows(head, ncols)
    for t in targets:
        got, want = solver.express(t), _seed_express(seed_rows, ncols, len(head), t)
        if want is None:
            assert got is None
        else:
            assert got == {i: c for i, c in enumerate(want) if c}
            assert list(got) == sorted(got)
            assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_streams_match_the_seed_kernel(workload):
    streams = _record(WORKLOADS[workload])
    assert streams
    for ncols, stream in streams:
        _check_stream(ncols, stream)


# -- edge cases ---------------------------------------------------------------


def test_unit_row_after_a_longer_pivot():
    acc = RowAccumulator(2)
    assert acc.add({0: 1, 1: 1})
    assert acc.add({0: 1})  # the pivot at 0 becomes e_0, its tail e_1 a new pivot
    assert acc.rank == 2
    assert not acc.add({1: 1})
    assert acc._reduced_rows() == [(0, {0: F(1)}), (1, {1: F(1)})]


def test_unit_row_whose_tail_is_dependent():
    acc = RowAccumulator(3)
    assert acc.add({0: 1, 1: 2})
    assert acc.add({1: 1})
    assert not acc.add({0: 5})  # e_0 = (e_0 + 2 e_1) - 2 e_1
    assert acc.rank == 2


@pytest.mark.parametrize("c", [0, 4])
def test_unit_rows_deduplicate_whatever_their_scale(c):
    acc = RowAccumulator(5)
    assert acc.add({c: 1})
    assert not acc.add({c: -3})
    assert not acc.add({c: F(1, 3)})
    other = RowAccumulator(5)
    assert other.add({c: F(-1, 3)})
    assert not other.add({c: 1})
    assert acc._reduced_rows() == other._reduced_rows() == [(c, {c: F(1)})]


def test_a_row_with_one_nonzero_entry_is_a_unit_row():
    acc = RowAccumulator(4)
    assert acc.add({0: 0, 3: 5})
    assert acc.pivots == {3: {3: 1}}
    assert not acc.add({3: 2, 1: 0})


@pytest.mark.parametrize("repeat", [
    {0: 2, 1: 1, 2: 3},  # the first row exactly
    {0: -6, 1: -3, 2: -9},  # scaled by an int
    {0: F(4, 5), 1: F(2, 5), 2: F(6, 5)},  # scaled by a Fraction
    {0: 2, 1: 1, 2: 3, 3: 0, 4: F(0)},  # with zero entries added
    {0: 6, 1: 5, 2: 11, 3: 8},  # 3 * first + 2 * second
    {0: 1, 2: 1, 3: -2},  # (first - second) / 2, a cheaper pivot at 0 than the one held
])
def test_a_row_in_the_span_reduces_to_zero(repeat):
    acc = RowAccumulator(5)
    assert acc.add({0: 2, 1: 1, 2: 3})
    assert acc.add({1: 1, 2: 1, 3: 4})
    before = acc._reduced_rows()
    assert not acc.add(repeat)
    assert sorted(acc.pivots) == [0, 1]
    assert acc._reduced_rows() == before
    assert acc.add({4: 1, 0: 1})


@pytest.mark.parametrize("row", [{}, {0: 0}, {0: F(0), 2: 0}])
def test_zero_and_empty_rows_change_nothing(row):
    acc = RowAccumulator(3)
    assert not acc.add(row)
    assert acc.rank == 0 and acc._reduced_rows() == []
    assert acc.add({1: 2, 2: 1})
    assert not acc.add(row)
    assert acc.rank == 1


def _snapshot(rows):
    return [dict(r) for r in rows]


def test_caller_rows_are_never_changed():
    # {0: 1, 2: 1} replaces the pivot made from {0: 2, 1: 1}, which is then
    # reduced in place; {0: 1} replaces a longer pivot and reduces its tail
    rows = [MappingProxyType({0: 2, 1: 1}), MappingProxyType({0: 1, 2: 1}), MappingProxyType({0: 1}),
            MappingProxyType({1: 3, 2: F(1, 2)})]
    before = _snapshot(rows)
    acc = RowAccumulator(3)
    assert [acc.add(r) for r in rows] == [True, True, True, False]
    assert _snapshot(rows) == before
    plain = [dict(r) for r in rows]
    acc = RowAccumulator(3)
    for r in plain:
        acc.add(r)
    assert plain == before


def test_a_row_shared_by_two_accumulators_is_not_changed():
    shared = {0: 2, 1: 1}
    first, second = RowAccumulator(3), RowAccumulator(3)
    assert first.add({0: 1, 2: 1})
    assert first.add(shared)  # reduced by the pivot at 0
    assert shared == {0: 2, 1: 1}
    assert second.add(shared)
    assert second.add({0: 1, 2: 1})  # replaces the pivot made from shared
    assert shared == {0: 2, 1: 1}
    assert first._reduced_rows() == second._reduced_rows()


# -- an accumulator over a subset of columns -----------------------------------

SUBSET = [1, 3, 4, 6]  # the unknowns of a system in Q^8


def test_free_col_skips_the_columns_not_listed():
    """``free_col`` answers a place in ``columns``: the first listed column
    that is not a pivot, ``len(columns)`` when every listed one is."""
    acc = RowAccumulator(8, SUBSET)
    assert acc.free_col(0) == 0  # column 1
    assert acc.add({1: 1})
    assert acc.free_col(0) == 1  # column 3; column 0, not listed, is never free
    assert acc.add({3: 2, 6: 1}) and acc.add({4: 1})
    assert (acc.free_col(1), acc.free_col(3)) == (3, 3)  # column 6
    assert acc.add({6: 5})
    assert acc.free_col(0) == len(SUBSET) == 4


def test_nullspace_spans_only_the_listed_free_columns():
    """A kernel vector per listed free column, in Q^ncols: 0 on every
    column not listed."""
    acc = RowAccumulator(8, SUBSET)
    assert acc.add({1: 1, 4: -1}) and acc.add({3: 1, 6: 2})
    want = Subspace.from_spanning([{4: 1, 1: 1}, {6: 1, 3: -2}], 8)
    assert acc.nullspace() == want
    assert nullspace_of_rows(RowAccumulator(8, SUBSET), [{1: 1, 4: -1}, {3: 1, 6: 2}]) == want


def test_nullspace_of_rows_stops_when_the_rank_reaches_the_listed_count():
    """Full rank is ``len(columns)``: no row after the one that reaches it
    is pulled, though the rank is below ``ncols``."""
    pulled = []

    def rows():
        for row in ({1: 1}, {3: 1, 4: 1}, {4: 2}, {6: -1}, {1: 1, 6: 1}, {3: 7}):
            pulled.append(row)
            yield row

    assert nullspace_of_rows(RowAccumulator(8, SUBSET), rows()) == Subspace.zero(8)
    assert len(pulled) == 4


# -- against a dense Gauss-Jordan oracle --------------------------------------

NCOLS = 6
_scalars = st.one_of(st.integers(-4, 4).filter(bool), st.fractions(-3, 3, max_denominator=4).filter(bool))
_unit_rows = st.builds(lambda c, v: {c: v}, st.integers(0, NCOLS - 1), _scalars)
_rows = st.dictionaries(st.integers(0, NCOLS - 1), st.one_of(st.just(0), _scalars), max_size=NCOLS)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_accumulator_matches_dense_gauss_jordan(data):
    # a few distinct rows, most of them unit rows, drawn again and again at
    # several scales
    pool = data.draw(st.lists(st.one_of(_unit_rows, _unit_rows, _rows), min_size=1, max_size=6))
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.sampled_from([1, -1, 2, F(1, 3)])),
                               max_size=14))
    stream = [{c: k * v for c, v in pool[i].items()} for i, k in picks]
    acc = RowAccumulator(NCOLS)
    rank = 0
    for n, row in enumerate(stream, 1):
        _, oracle_rank = naive_rref([[row.get(c, 0) for c in range(NCOLS)] for row in stream[:n]])
        assert acc.add(row) == (oracle_rank > rank)
        rank = oracle_rank
    dense, rank = naive_rref([[row.get(c, 0) for c in range(NCOLS)] for row in stream])
    oracle = [{c: x for c, x in enumerate(r) if x} for r in dense[:rank]]
    reduced = acc._reduced_rows()
    assert [r for _, r in reduced] == oracle
    assert [p for p, _ in reduced] == sorted(acc.pivots) == [min(r) for r in oracle]
    assert all(type(x) is Fraction for r in oracle for x in r.values())
    assert all(is_exact_entry(x) for _, r in reduced for x in r.values())
    space = Subspace(NCOLS, reduced)
    for row in stream:
        coords = space.coords(row)
        assert coords is not None
        assert [sum(c * r.get(j, 0) for c, (_, r) in zip(coords, reduced)) for j in range(NCOLS)] == \
            [row.get(j, 0) for j in range(NCOLS)]
    if stream:
        express = SpanSolver(stream, NCOLS).express(stream[-1])
        assert express is not None
        assert sparse_lincomb(*((c, stream[i]) for i, c in express.items())) == {j: x for j, x in stream[-1].items() if x}

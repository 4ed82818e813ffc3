"""A solve over several shift blocks does exactly the work of solving them
one at a time: ``solver._solve_block`` compiles each block with a pass of
its own.  Checked against a test-local copy of the router it replaced,
which compiled every requested block in one pass over the triples and
queued the rows of the blocks still waiting: the same canonical subspace,
and, with each block's pass held to the natural walk the router compiled
in, the same rows read by each kernel call.  An all-shift solve
(``solver._solve_shift_blocks``) compiles the blocks it does not conjugate
from a kept mirror block, and the undefined products it raises are those
of their direct solves, in order.  The one-pass router raised more,
compiling rows for waiting blocks that their kernels never read."""

from collections import Counter, deque
from fractions import Fraction
from itertools import product

import pytest

from homlie import solver
from homlie.algebra import UndefinedProduct, _hom_terms, _leibniz_terms, _sorted_tuples, builtin, make_algebra
from homlie.linalg import Subspace, int_if_integral, nullspace_of_rows
from homlie.solver import (
    _SIGNS,
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    _known_block,
    _mirror,
    _plan,
    _require_defined,
    _solve_block,
    _solve_shift_blocks,
    _sparse_rows,
    _triples,
    delta_derivation,
    grading_shifts,
)
from test_term_builders import partial_tables
from test_unit_rows import block_col_of, columns_of, cut_then_kernel, natural_hom_rows
from test_window import WINDOW_MODELS, _untwisted

F = Fraction
HOM_KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]
DELTA_KINDS = [delta_derivation(d) for d in (F(-1), F(1, 2), F(1), F(2))]


# -- the one-pass router ------------------------------------------------------------


def one_pass_hom_rows(plan, kind, live, second):
    """(shift, row) for the rows of the blocks ``live`` (shift -> col_of)
    from one pass over ``_triples``; a block that leaves ``live`` gets no
    further rows."""
    signs, first = _SIGNS[kind.tag], plan.alg.rows
    for a, b, cs in _triples(plan, kind):
        shifts = list(live)
        for c, s in product(cs, shifts):
            col_of = live.get(s)
            if col_of is None:
                continue
            try:
                rows = _sparse_rows(_hom_terms(first, second, signs, a, b, c, col_of))
            except UndefinedProduct:
                continue
            for row in rows:
                yield s, row


def one_pass_delta_rows(plan, delta, live):
    alg, delta = plan.alg, int_if_integral(delta)
    for i, j in _sorted_tuples(alg, 2):
        for s in list(live):
            col_of = live.get(s)
            if col_of is not None:
                yield from ((s, row) for row in _sparse_rows(_leibniz_terms(alg.rows, i, j, col_of, col_of, delta)))


def one_pass_router(alg, kind, shifts, kernel):
    """``_solve_shift_blocks`` as it was: one pass for every block, the
    smallest block solved first, the rows of waiting blocks queued, and the
    column of a unit row with a closed q retired; K's cut rows retire their
    columns before the pass, as in ``solver._solve_modulo``.  A block's
    columns are End's, phi(e_c) -> e_q at q*n + c."""
    n = alg.dim
    if kind.delta is not None:
        _require_defined(alg, kind)
    plan = _plan(alg)
    blocks, live = {}, {}
    for shift in shifts:
        col_of = block_col_of(alg, shift)
        columns = columns_of(col_of)
        if not columns:
            continue
        blocks[shift] = columns, _known_block(alg, kind, shift)
        if blocks[shift][1].dim < len(columns):
            live[shift] = col_of
            for p in blocks[shift][1].pivot_cols():
                q, c = divmod(p, n)
                if q not in plan.gaps:
                    live[shift][c].pop(q, None)
    queues = {shift: deque() for shift in live}
    routed = (one_pass_delta_rows(plan, kind.delta, live) if kind.delta is not None
              else one_pass_hom_rows(plan, kind, live, alg.rows))

    def block_rows(shift):
        yield from queues[shift]
        for s, row in routed:
            if s not in queues:
                continue
            if len(row) == 1:
                q, c = divmod(next(iter(row)), n)
                if q not in plan.gaps:
                    live[s][c].pop(q, None)
            if s == shift:
                yield row
            else:
                queues[s].append(row)

    rows = []
    for shift, (columns, known) in sorted(blocks.items(), key=lambda item: len(item[1][0])):
        space = known
        if shift in live:
            space = cut_then_kernel(known, block_rows(shift), kernel, columns)
            del live[shift], queues[shift]
        rows.extend(space.rows)
    return Subspace(n * n, sorted(rows, key=lambda pr: pr[0]))


# -- helpers ------------------------------------------------------------------------


class Recording:
    """A kernel that records the rows each of its calls reads, with the
    unknowns of its accumulator."""

    def __init__(self):
        self.calls = Counter()

    def __call__(self, acc, rows):
        read = []

        def recorded():
            for row in rows:
                read.append(tuple(row.items()))
                yield row

        try:
            return nullspace_of_rows(acc, recorded())
        finally:
            self.calls[acc.ncols, tuple(acc.columns), tuple(read)] += 1


def _regraded(alg, degree_of):
    grading = [degree_of(name) for name in alg.basis_names]
    return make_algebra(alg.dim, alg.table, basis_names=alg.basis_names, flavor=alg.flavor, grading=grading)


def graded_algebras():
    """The window models, the partial tables, sl3..sl6 graded principally
    (deg E_ij = j - i) and sp4, sp6 graded by their blocks."""
    models = [(f"window{model.__name__}-{size}", model(size)) for model, size in (p.values for p in WINDOW_MODELS)]
    tables = [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())]
    principal = [(f"sl{n}", _regraded(builtin("sl", n), lambda name: int(name[2]) - int(name[1]) if name[0] == "E"
                                      else 0)) for n in range(3, 7)]
    blocks = [(f"sp{n}", _regraded(builtin("sp", n), lambda name: {"A": 0, "B": 1, "C": -1}[name[0]])) for n in (4, 6)]
    return models + tables + principal + blocks


def cases():
    for name, alg in graded_algebras():
        kinds = HOM_KINDS + (DELTA_KINDS if _plan(alg).complete else [])
        yield from ((name, alg, kind) for kind in kinds)


# -- the tests ----------------------------------------------------------------------


def direct_solves(alg, kind, shifts, raised):
    """Each block's direct solve: its recording kernel, the undefined
    products it raised, and the subspace of all of them."""
    direct, pairs, rows = {}, {}, []
    for shift in shifts:
        direct[shift] = Recording()
        raised.clear()
        rows.extend(_solve_block(alg, kind, shift, direct[shift]).rows)
        pairs[shift] = list(raised)
    return direct, pairs, Subspace(alg.dim ** 2, sorted(rows, key=lambda pr: pr[0]))


def test_each_block_reads_the_rows_the_one_pass_router_gave_it(raised, monkeypatch):
    """Block by block, the direct solves give the one-pass router's
    subspace, and, with ``_hom_rows`` held to the natural walk the router
    compiled in, each kernel call reads the rows the router gave it.  The
    all-shift solve, shifts ascending, compiles the blocks of s <= 0, and
    the others too where the table has no mirror; it gives the same
    subspace, and raises the undefined products and reads the rows of
    those blocks' direct solves, in order."""
    checked = raises = saved = 0  # saved: raises the one-pass router made beyond the direct solves, on the windows
    for name, alg, kind in cases():
        shifts = grading_shifts(alg)
        _plan(alg).annihilator  # solved once, before any raise is recorded
        new = Recording()
        raised.clear()
        space = _solve_shift_blocks(alg, kind, shifts, new)
        all_shifts = list(raised)
        direct, pairs, space_direct = direct_solves(alg, kind, shifts, raised)
        old = Recording()
        raised.clear()
        assert space == space_direct == one_pass_router(alg, kind, shifts, old), (name, str(kind))
        router_raises = len(raised)
        compiled = [s for s in shifts if s <= 0 or _mirror(alg) is None]
        assert all_shifts == [pair for s in compiled for pair in pairs[s]], (name, str(kind))
        assert new.calls == sum((direct[s].calls for s in compiled), Counter()), (name, str(kind))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_hom_rows", lambda plan, kind, col_of, second, free:
                          natural_hom_rows(plan, kind, col_of, second))
            natural, natural_pairs, _ = direct_solves(alg, kind, shifts, raised)
        assert sum((recording.calls for recording in natural.values()), Counter()) == old.calls, (name, str(kind))
        if name.startswith("window"):
            saved += router_raises - sum(map(len, natural_pairs.values()))
        checked += len(shifts) > 1
        raises += sum(map(len, pairs.values()))
    assert checked > 300 and raises > 10_000 and saved > 1000


def test_the_all_shift_window_solve_raises_what_the_shifts_raise(raised):
    """sl2 N = 6: the direct solves of its blocks raise 394 times, where
    the one-pass router raised 1,833 (and the direct solves 1,560 while
    they walked the triples in the natural order alone: the directed
    stream reaches full rank in fewer evaluations, so fewer of them read
    an undefined product).  The all-shift solve compiles the blocks of
    s <= 0, conjugates the others from them, and raises what those blocks'
    direct solves raise: 161 times.  A raise is an evaluation that meets an
    undefined product before its block reaches full rank, so each count
    follows the order the triples are walked in."""
    alg = _untwisted(6)
    shifts = grading_shifts(alg)
    _plan(alg).annihilator
    per_shift = {}
    for shift in shifts:
        raised.clear()
        _solve_block(alg, HOM_LIE, shift, nullspace_of_rows)
        per_shift[shift] = len(raised)
    counts = []
    for solve in (_solve_shift_blocks, one_pass_router):
        raised.clear()
        solve(alg, HOM_LIE, shifts, nullspace_of_rows)
        counts.append(len(raised))
    assert sum(per_shift.values()) == 394
    assert counts == [sum(per_shift[s] for s in shifts if s <= 0), 1833] and counts[0] == 161


def test_blocks_are_solved_in_the_order_given():
    """The blocks are compiled in the order of ``shifts``, one kernel call
    each, a block whose mirror block is already kept conjugated instead, and
    the answer does not depend on that order.  Centre out, the blocks of
    0, -1, -2, ... are compiled, and in reverse those of ..., 2, 1, 0: the
    same sizes, in reverse order (a block's size is its accumulator's
    count of unknowns)."""
    shifts = sorted(grading_shifts(_untwisted(3)), key=lambda s: (abs(s), s))
    sizes = []

    def kernel(acc, rows):
        sizes.append(len(acc.columns))
        return nullspace_of_rows(acc, rows)

    forward = _solve_shift_blocks(_untwisted(3), HOM_LIE, shifts, kernel)
    order, sizes[:] = list(sizes), []
    assert _solve_shift_blocks(_untwisted(3), HOM_LIE, shifts[::-1], kernel) == forward
    assert sizes == order[::-1] and sorted(order) != order

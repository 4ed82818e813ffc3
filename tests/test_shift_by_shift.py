"""A solve over several shift blocks does exactly the work of solving them
one at a time: ``solver._solve_block`` compiles each block with a pass of
its own.  An all-shift solve (``solver._solve_shift_blocks``) compiles the
blocks it does not conjugate from a kept mirror block, and the undefined
products it raises and the rows its kernel calls read are those of their
direct solves, in order; every block is ``oracle``'s."""

from collections import Counter

from homlie.linalg import Subspace, nullspace_of_rows
from homlie.solver import HOM_LIE, _mirror, _plan, _solve_block, _solve_shift_blocks, grading_shifts
from shared import DELTA_KINDS, HOM_KINDS, PRINCIPAL, block_graded, partial_tables, untwisted, window_models


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


def graded_algebras():
    """The window models, the partial tables, sl3..sl6 graded principally
    (deg E_ij = j - i) and sp4, sp6 graded by their blocks."""
    tables = [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())]
    principal = [(name, make()) for name, make in PRINCIPAL.items()]
    blocks = [(f"sp{n}-blocks", block_graded(n)) for n in (4, 6)]
    return window_models() + tables + principal + blocks


def cases():
    for name, alg in graded_algebras():
        kinds = HOM_KINDS + (DELTA_KINDS if _plan(alg).complete else [])
        yield from ((name, alg, kind) for kind in kinds)


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


def test_the_all_shift_solve_does_the_work_of_the_direct_solves(raised, reference):
    """Block by block, the direct solves give the oracle's blocks.  The
    all-shift solve, shifts ascending, compiles the blocks of s <= 0, and
    the others too where the table has no mirror; it gives the same
    subspace, and raises the undefined products and reads the rows of
    those blocks' direct solves, in order."""
    checked = raises = 0
    for name, alg, kind in cases():
        shifts = grading_shifts(alg)
        _plan(alg).annihilator  # solved once, before any raise is recorded
        new = Recording()
        raised.clear()
        space = _solve_shift_blocks(alg, kind, shifts, new)
        all_shifts = list(raised)
        direct, pairs, space_direct = direct_solves(alg, kind, shifts, raised)
        want = reference(name, alg, "blocks", kind)
        assert space == space_direct == Subspace(alg.dim ** 2, sorted(
            (pr for block in want.values() for pr in block.rows), key=lambda pr: pr[0])), (name, str(kind))
        compiled = [s for s in shifts if s <= 0 or _mirror(alg) is None]
        assert all_shifts == [pair for s in compiled for pair in pairs[s]], (name, str(kind))
        assert new.calls == sum((direct[s].calls for s in compiled), Counter()), (name, str(kind))
        checked += len(shifts) > 1
        raises += sum(map(len, pairs.values()))
    assert checked > 300 and raises > 10_000


def test_the_all_shift_window_solve_raises_what_the_shifts_raise(raised):
    """sl2 N = 6: the direct solves of its blocks raise 394 times (1,560
    while they walked the triples in the natural order alone: the directed
    stream reaches full rank in fewer evaluations, so fewer of them read
    an undefined product).  The all-shift solve compiles the blocks of
    s <= 0, conjugates the others from them, and raises what those blocks'
    direct solves raise: 161 times.  A raise is an evaluation that meets an
    undefined product before its block reaches full rank, so each count
    follows the order the triples are walked in."""
    alg = untwisted(6)
    shifts = grading_shifts(alg)
    _plan(alg).annihilator
    per_shift = {}
    for shift in shifts:
        raised.clear()
        _solve_block(alg, HOM_LIE, shift, nullspace_of_rows)
        per_shift[shift] = len(raised)
    raised.clear()
    _solve_shift_blocks(alg, HOM_LIE, shifts, nullspace_of_rows)
    assert sum(per_shift.values()) == 394
    assert len(raised) == sum(per_shift[s] for s in shifts if s <= 0) == 161


def test_blocks_are_solved_in_the_order_given():
    """The blocks are compiled in the order of ``shifts``, one kernel call
    each, a block whose mirror block is already kept conjugated instead, and
    the answer does not depend on that order.  Centre out, the blocks of
    0, -1, -2, ... are compiled, and in reverse those of ..., 2, 1, 0: the
    same sizes, in reverse order (a block's size is its accumulator's
    count of unknowns)."""
    shifts = sorted(grading_shifts(untwisted(3)), key=lambda s: (abs(s), s))
    sizes = []

    def kernel(acc, rows):
        sizes.append(len(acc.columns))
        return nullspace_of_rows(acc, rows)

    forward = _solve_shift_blocks(untwisted(3), HOM_LIE, shifts, kernel)
    order, sizes[:] = list(sizes), []
    assert _solve_shift_blocks(untwisted(3), HOM_LIE, shifts[::-1], kernel) == forward
    assert sizes == order[::-1] and sorted(order) != order

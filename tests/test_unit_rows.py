"""The shift-block router retires the column of every one-entry row whose q
is closed, K's cut rows included (the unit-row lemma in
``solver._solve_modulo``).  Checked against a test-local copy of
``_solve_modulo`` without that step, which gives the stream the same
kernel feedback: the same canonical subspaces and the same undefined
products raised, in the same order, on the builtin and random batteries,
the window models and the partial tables; and fewer rows read.  A
reference router with neither the retire step nor the directed stream
(``_hom_rows``'s natural walk, ``shared.natural_hom_rows``) gives the same subspaces, and
the rows it reads are pinned beside the router's on four ladder solves."""

from itertools import chain

import pytest

from homlie import parse_builtin, solver
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import RowAccumulator, Subspace
from homlie.solver import (
    _known_block,
    _leibniz_rows,
    _plan,
    _require_defined,
    _solve_shift_blocks,
    grading_shifts,
    parse_kind,
)
from shared import (DELTA_KINDS, HOM_KINDS, Counting, block_col_of, direct_router, natural_hom_rows, partial_tables,
                    window_models)


def columns_of(col_of):
    """The End columns of a block's ``col_of``, ascending."""
    return sorted(k for image in col_of for k in image.values())


def cut_then_kernel(known, rows, kernel, columns):
    """A stream ``rows`` with no feedback, solved as ``solver._solve_modulo``
    solves without the retire step: K's cut rows in front, every row handed
    to ``kernel`` as compiled, into an accumulator of its own over the
    system's unknowns ``columns``."""
    acc = RowAccumulator(known.ambient, columns)
    rest = kernel(acc, chain(({p: 1} for p in known.pivot_cols()), rows))
    if not rest.dim:
        return known
    return known.sum(rest) if known.dim else rest


def unretired_solve_modulo(known, stream, col_maps, gaps, kernel):
    """``solver._solve_modulo`` without the retire step: the stream gets
    the same kernel feedback, over the same unknowns (the columns of
    ``col_maps``, ascending), and every row reaches ``kernel`` as compiled."""
    source = {k: c for col_map in col_maps for c, image in enumerate(col_map) for k in image.values()}
    columns = sorted(source)
    acc, low = RowAccumulator(known.ambient, columns), [0]

    def free():
        low[0] = acc.free_col(low[0])
        return acc.rank, source[columns[low[0]]] if low[0] < len(columns) else None

    rest = kernel(acc, chain(({p: 1} for p in known.pivot_cols()), stream(free)))
    if not rest.dim:
        return known
    return known.sum(rest) if known.dim else rest


def reference_router(alg, kind, shifts, kernel):
    """``_solve_shift_blocks`` without the retire step and the directed
    stream: every block's rows reach ``kernel`` whole in the natural walk's
    order, and every evaluation walks every column of the block."""
    n = alg.dim
    if kind.delta is not None:
        _require_defined(alg, kind)
    plan = _plan(alg)
    rows = []
    for shift in shifts:
        col_of = block_col_of(alg, shift)
        columns, space = columns_of(col_of), _known_block(alg, kind, shift)
        if space.dim < len(columns):
            compiled = (_leibniz_rows(alg, alg.rows, col_of, col_of, kind.delta) if kind.delta is not None
                        else natural_hom_rows(plan, kind, col_of, alg.rows))
            space = cut_then_kernel(space, compiled, kernel, columns)
        rows.extend(space.rows)
    return Subspace(n * n, sorted(rows, key=lambda pr: pr[0]))


def cases():
    """(name, algebra, kind, shifts): the hom kinds at every shift and over
    all shifts at once, and the delta kinds over all shifts of a complete
    table."""
    models = window_models()
    tables = [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())]
    for name, alg in chain(builtin_battery(), random_lie_battery(), models, tables):
        shifts = grading_shifts(alg)
        for kind in HOM_KINDS:
            yield name, alg, kind, shifts
            if len(shifts) > 1:
                yield from ((name, alg, kind, [shift]) for shift in shifts)
        if _plan(alg).complete:
            yield from ((name, alg, kind, shifts) for kind in DELTA_KINDS)


def test_the_router_solves_what_the_reference_router_solves(raised, monkeypatch):
    """Case by case, the router and the router without the retire step
    give the same subspace and raise the same undefined products in the
    same order; the reference router gives the same subspace.  Over all
    cases the router reads fewer rows than either."""
    checked = raises = 0
    read = {"router": 0, "unretired": 0, "reference": 0}
    for name, alg, kind, shifts in cases():
        spaces, pairs = {}, {}
        for side, solve in (("router", direct_router), ("unretired", direct_router), ("reference", reference_router)):
            kernel = Counting()
            raised.clear()
            with monkeypatch.context() as patch:
                if side == "unretired":
                    patch.setattr(solver, "_solve_modulo", unretired_solve_modulo)
                spaces[side] = solve(alg, kind, shifts, kernel)
            pairs[side] = list(raised)
            read[side] += kernel.rows
        assert spaces["router"] == spaces["unretired"] == spaces["reference"], (name, str(kind), shifts)
        assert pairs["router"] == pairs["unretired"], (name, str(kind), shifts)
        checked += 1
        raises += len(pairs["router"])
    assert checked > 1000 and raises > 1000
    assert read["router"] < read["unretired"] and read["router"] < read["reference"]


# The rows each solve hands to ``nullspace_of_rows`` (K's cut rows
# included): the router, and the reference router, with neither the
# unit-row rule nor the directed stream.  The cut rows retire their
# columns too, which took so7 hom-lie from 702 rows to 672 in the natural
# order.  The directed stream takes sl5 hom-cyclic from 915 rows to 745
# and so7 hom-lie from 672 to 694: a pick that stalls is followed by
# another, so where the natural walk would soon have raised the rank the
# picks can read more.  sl5 hom-lie still reads 752 rows, and delta:2's
# Leibniz rows are not directed.
ROWS_READ = {
    ("sl5", "hom-lie"): (752, 1650),
    ("sl5", "hom-cyclic"): (745, 3198),
    ("sl5", "delta:2"): (713, 1954),
    ("so7", "hom-lie"): (694, 2363),
}


@pytest.mark.parametrize("name, kind_text", ROWS_READ)
def test_rows_read_on_the_ladder(name, kind_text):
    """A lost retire step, or a lost directed pick, shows here as another row count."""
    alg, kind = parse_builtin(name), parse_kind(kind_text)
    kernels = [Counting(), Counting()]
    spaces = [solve(alg, kind, grading_shifts(alg), kernel)
              for solve, kernel in zip((_solve_shift_blocks, reference_router), kernels)]
    assert (kernels[0].rows, kernels[1].rows) == ROWS_READ[name, kind_text]
    assert spaces[0] == spaces[1]

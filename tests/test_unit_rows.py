"""The shift-block router retires the column of every one-entry row whose q
is closed, K's cut rows included (the unit-row lemma in
``solver._solve_modulo``).  Checked against a test-local copy of the router
without that step: the same canonical subspaces and the same undefined
products raised, in the same order, on the builtin and random batteries,
the window models and the partial tables; and fewer rows read, pinned on
four ladder solves."""

from fractions import Fraction
from itertools import chain

import pytest

from homlie import algebra, parse_builtin
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import Subspace, nullspace_of_rows
from homlie.solver import (
    _SIGNS,
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    _by_source,
    _delta_rows,
    _hom_rows,
    _known_block,
    _plan,
    _require_defined,
    _solve_block,
    _solve_shift_blocks,
    delta_derivation,
    grading_shifts,
    parse_kind,
)
from test_term_builders import partial_tables
from test_window import WINDOW_MODELS

F = Fraction
HOM_KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]
DELTA_KINDS = [delta_derivation(d) for d in (F(-1), F(1, 2), F(1), F(2))]


def cut_then_kernel(known, rows, kernel):
    """``solver._solve_modulo`` without the retire step: K's cut rows in
    front of ``rows``, every row handed to ``kernel`` as compiled."""
    rest = kernel(known.ambient, chain(({p: 1} for p in known.pivot_cols()), rows))
    if not rest.dim:
        return known
    return known.sum(rest) if known.dim else rest


def reference_router(alg, kind, shifts, kernel):
    """``_solve_shift_blocks`` without the retire step: every block's rows
    reach ``kernel`` whole, and every evaluation walks every column of the
    block."""
    n = alg.dim
    if kind.tag not in _SIGNS and kind.tag != "delta-derivation":
        raise ValueError(f"solve_structures cannot handle kind {kind.tag!r}")
    if kind.delta is not None:
        _require_defined(alg, kind)
    plan = _plan(alg)
    annihilator = plan.annihilator if kind.tag in _SIGNS else ()
    rows = []
    for shift in shifts:
        cols = plan.block(shift)
        if not cols:
            continue
        space = _known_block(alg, kind, shift, cols, annihilator)
        if space.dim < len(cols):
            col_of = _by_source(cols, n)
            compiled = (_delta_rows(plan, kind.delta, col_of) if kind.delta is not None
                        else _hom_rows(plan, kind, col_of, alg.rows))
            space = cut_then_kernel(space, compiled, kernel)
        end = [q * n + c for q, c in cols]
        rows.extend((end[p], {end[j]: x for j, x in r.items()}) for p, r in space.rows)
    return Subspace(n * n, sorted(rows, key=lambda pr: pr[0]))


def direct_router(alg, kind, shifts, kernel):
    """The router with the retire step, without the blocks it keeps and
    mirrors: every block of ``shifts`` compiled by ``_solve_block``."""
    rows = [pr for shift in shifts for pr in _solve_block(alg, kind, shift, kernel).rows]
    return Subspace(alg.dim ** 2, sorted(rows, key=lambda pr: pr[0]))


class Counting:
    """A kernel that counts the rows it reads before handing them on."""

    def __init__(self):
        self.rows = 0

    def __call__(self, ncols, rows):
        def counted():
            for row in rows:
                self.rows += 1
                yield row

        return nullspace_of_rows(ncols, counted())


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


def cases():
    """(name, algebra, kind, shifts): the hom kinds at every shift and over
    all shifts at once, and the delta kinds over all shifts of a complete
    table."""
    models = [(f"{model.__name__}-{size}", model(size)) for model, size in (p.values for p in WINDOW_MODELS)]
    tables = [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())]
    for name, alg in chain(builtin_battery(), random_lie_battery(), models, tables):
        shifts = grading_shifts(alg)
        for kind in HOM_KINDS:
            yield name, alg, kind, shifts
            if len(shifts) > 1:
                yield from ((name, alg, kind, [shift]) for shift in shifts)
        if _plan(alg).complete:
            yield from ((name, alg, kind, shifts) for kind in DELTA_KINDS)


def test_the_router_solves_what_the_reference_router_solves(raised):
    """Same subspace and the same undefined products raised in the same
    order, case by case; fewer rows read over all of them."""
    checked = raises = 0
    read = {"router": 0, "reference": 0}
    for name, alg, kind, shifts in cases():
        spaces = {}
        pairs = {}
        for side, solve in (("router", direct_router), ("reference", reference_router)):
            kernel = Counting()
            raised.clear()
            spaces[side] = solve(alg, kind, shifts, kernel)
            pairs[side] = list(raised)
            read[side] += kernel.rows
        assert spaces["router"] == spaces["reference"], (name, str(kind), shifts)
        assert pairs["router"] == pairs["reference"], (name, str(kind), shifts)
        checked += 1
        raises += len(pairs["router"])
    assert checked > 1000 and raises > 1000
    assert read["router"] < read["reference"]


# The rows each solve hands to ``nullspace_of_rows`` (K's cut rows
# included): with the unit-row rule, and before it.  The cut rows retire
# their columns too, which takes so7 hom-lie from 702 rows to 672.
ROWS_READ = {
    ("sl5", "hom-lie"): (752, 1650),
    ("sl5", "hom-cyclic"): (915, 3198),
    ("sl5", "delta:2"): (713, 1954),
    ("so7", "hom-lie"): (672, 2363),
}


@pytest.mark.parametrize("name, kind_text", ROWS_READ)
def test_rows_read_on_the_ladder(name, kind_text):
    """A lost retire step shows here as the old row count."""
    alg, kind = parse_builtin(name), parse_kind(kind_text)
    kernels = [Counting(), Counting()]
    spaces = [solve(alg, kind, grading_shifts(alg), kernel)
              for solve, kernel in zip((_solve_shift_blocks, reference_router), kernels)]
    assert (kernels[0].rows, kernels[1].rows) == ROWS_READ[name, kind_text]
    assert spaces[0] == spaces[1]

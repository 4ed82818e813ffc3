"""A shift block is solved over End's own columns, phi(e_c) -> e_q at
q*n + c (``solver._Plan.col_of``), with no numbering of its own.  Checked
against a test-local copy of the block-numbered solve it replaced, which
numbered a block's columns (q, c) ascending and converted K into them and
the answer back into End: block by block, the same subspace, and the same
rows handed to the kernel, in order, once the copy's rows are mapped into
End.  Both sides run on the builtin and random batteries, every window
model, the order-3 and principal gradings and the partial tables.  A
column map that misses one block column fails the comparison."""

from fractions import Fraction
from itertools import chain

from homlie import solver
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import RowAccumulator, Subspace, nullspace_of_rows
from homlie.solver import (
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    _delta_rows,
    _hom_rows,
    _known_block,
    _plan,
    _solve_block,
    delta_derivation,
    grading_shifts,
)
from test_term_builders import partial_tables
from test_window import WINDOW_MODELS
from test_window_mirror import ORDER3, PRINCIPAL

F = Fraction
HOM_KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]
DELTA_KINDS = [delta_derivation(d) for d in (F(-1), F(1, 2), F(1), F(2))]


# -- the block-numbered solve ----------------------------------------------------


def numbered_block(plan, shift):
    """The block's columns numbered by (q, c) ascending: (q, c) -> k."""
    pairs = ((q, c) for q, d in enumerate(plan.deg) for c in plan.components.get(d - shift, ()))
    return {pair: k for k, pair in enumerate(pairs)}


def numbered_solve_modulo(known, stream, col_maps, gaps, kernel):
    """``solver._solve_modulo`` over ``known.ambient`` columns numbered from
    0, every one an unknown, with its unit-row retire step."""
    ncols = known.ambient
    acc, low = RowAccumulator(ncols), 0
    source = [None] * (ncols + 1)
    image_of, q_of = [None] * ncols, [0] * ncols
    for col_map in col_maps:
        for c, image in enumerate(col_map):
            for q, k in image.items():
                source[k] = c
                if q not in gaps:
                    image_of[k], q_of[k] = image, q

    def free():
        nonlocal low
        low = acc.free_col(low)
        return acc.rank, source[low]

    def retiring(rows):
        for row in rows:
            if len(row) == 1 and image_of[k := next(iter(row))] is not None:
                del image_of[k][q_of[k]]
                image_of[k] = None
            yield row

    rest = kernel(acc, retiring(chain(({p: 1} for p in known.pivot_cols()), stream(free))))
    if not rest.dim:
        return known
    return known.sum(rest) if known.dim else rest


def numbered_solve_block(alg, kind, shift, kernel):
    """``solver._solve_block`` in the block's own numbering: K carried into
    it and the answer back into End by the increasing map (q, c) -> q*n + c."""
    n, plan = alg.dim, _plan(alg)
    cols, known = numbered_block(plan, shift), _known_block(alg, kind, shift)
    if known.dim == len(cols):
        return known, cols
    space = Subspace(len(cols), [(cols[divmod(p, n)], {cols[divmod(j, n)]: x for j, x in r.items()})
                                 for p, r in known.rows])
    col_of = [{} for _ in range(n)]
    for (q, c), k in cols.items():
        col_of[c][q] = k
    stream = ((lambda free: _delta_rows(plan, kind.delta, col_of)) if kind.delta is not None
              else (lambda free: _hom_rows(plan, kind, col_of, alg.rows, free)))
    space = numbered_solve_modulo(space, stream, [col_of], plan.gaps, kernel)
    end = [q * n + c for q, c in cols]
    return Subspace(n * n, [(end[p], {end[j]: x for j, x in r.items()}) for p, r in space.rows]), cols


# -- the comparison --------------------------------------------------------------


class Recording:
    """A kernel that records every row it reads, in order."""

    def __init__(self):
        self.rows = []

    def __call__(self, acc, rows):
        def recorded():
            for row in rows:
                self.rows.append(dict(row))
                yield row

        return nullspace_of_rows(acc, recorded())


def algebras():
    models = [(f"{model.__name__}-{size}", model(size)) for model, size in (p.values for p in WINDOW_MODELS)]
    graded = [(name, make()) for name, make in {**ORDER3, **PRINCIPAL}.items()]
    tables = [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())]
    return builtin_battery() + random_lie_battery() + models + graded + tables


def mismatches():
    """The (algebra, kind, shift) whose End solve and block-numbered solve
    differ in their answer or in the rows their kernels read, and the count
    of blocks compared and of rows read."""
    bad, blocks, read = [], 0, 0
    for name, alg in algebras():
        n = alg.dim
        kinds = HOM_KINDS + (DELTA_KINDS if _plan(alg).complete else [])
        for kind in kinds:
            for shift in grading_shifts(alg):
                new, old = Recording(), Recording()
                space = _solve_block(alg, kind, shift, new)
                want, cols = numbered_solve_block(alg, kind, shift, old)
                end = [q * n + c for q, c in cols]
                mapped = [{end[j]: x for j, x in row.items()} for row in old.rows]
                if space != want or [list(r.items()) for r in new.rows] != [list(r.items()) for r in mapped]:
                    bad.append((name, str(kind), shift))
                blocks += 1
                read += len(new.rows)
    return bad, blocks, read


def test_blocks_solve_and_read_what_the_block_numbered_solve_did():
    bad, blocks, read = mismatches()
    assert bad == []
    assert blocks > 2000 and read > 50_000


def test_a_column_map_missing_one_block_column_fails_the_comparison(monkeypatch):
    """The mutant: each block misses one column, the lowest q of its first
    source, so phi(e_c) never reaches e_q there."""
    col_of = solver._Plan.col_of

    def missing(plan, c, shift):
        image = col_of(plan, c, shift)
        if image and c == min(u for u in range(plan.alg.dim) if col_of(plan, u, shift)):
            del image[min(image)]
        return image

    monkeypatch.setattr(solver._Plan, "col_of", missing)
    bad, _, _ = mismatches()
    assert len(bad) > 100

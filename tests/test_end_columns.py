"""A shift block is solved over End's own columns, phi(e_c) -> e_q at
q*n + c (``solver._Plan.col_of``), with no numbering of its own.  Checked
block by block against ``oracle``, which solves each block over all n^2
columns with the columns outside it pinned to zero: the same subspace for
the hom kinds, and the delta kinds on complete tables, on the builtin and
random batteries, every window model, the order-3 and principal gradings
and the partial tables.  A column map that misses one block column fails
the comparison."""

from homlie import solver
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import nullspace_of_rows
from homlie.solver import _plan, _solve_block, grading_shifts
from shared import DELTA_KINDS, HOM_KINDS, ORDER3, PRINCIPAL, partial_tables, window_models


def algebras():
    graded = [(name, make()) for name, make in {**ORDER3, **PRINCIPAL}.items()]
    tables = [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())]
    return builtin_battery() + random_lie_battery() + window_models() + graded + tables


def mismatches(reference):
    """The (algebra, kind, shift) whose block, solved directly, differs from
    the oracle's, and the count of blocks compared."""
    bad, blocks = [], 0
    for name, alg in algebras():
        for kind in HOM_KINDS + (DELTA_KINDS if _plan(alg).complete else []):
            want = reference(name, alg, "blocks", kind)
            for shift in grading_shifts(alg):
                if _solve_block(alg, kind, shift, nullspace_of_rows) != want[shift]:
                    bad.append((name, str(kind), shift))
                blocks += 1
    return bad, blocks


def test_blocks_solve_in_end_columns_what_the_oracle_solves(reference):
    bad, blocks = mismatches(reference)
    assert bad == [] and blocks > 2000


def test_a_column_map_missing_one_block_column_fails_the_comparison(monkeypatch, reference):
    """The mutant: each block misses one column, the lowest q of its first
    source, so phi(e_c) never reaches e_q there."""
    col_of = solver._Plan.col_of

    def missing(plan, c, shift):
        image = col_of(plan, c, shift)
        if image and c == min(u for u in range(plan.alg.dim) if col_of(plan, u, shift)):
            del image[min(image)]
        return image

    monkeypatch.setattr(solver._Plan, "col_of", missing)
    bad, _ = mismatches(reference)
    assert len(bad) > 100

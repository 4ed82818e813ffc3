"""The directed stream of ``solver._hom_rows``: after a triple that raises
no rank, the next triple is a pick that holds the source of the kernel's
lowest free column (``solver._directed``).  Checked against the natural
walk alone (``shared.natural_hom_rows``, the order before the
rule): the same subspaces for the three hom kinds on the builtin and
random batteries, on every window model at every shift, on both order-3
twists and on principally graded sl3..sl6, and for the asym-cocycles on
the builtin battery.  Each kept triple is evaluated at most once per
block.  Two mutants of the rule must fail these checks: a pick marked
visited but never yielded, and a natural walk that yields a picked
triple again.  The walk and the picks' candidates themselves
(``_triples``, ``_Orbits.holding``) are checked against every ordered
triple the orbit table keeps with a defined first product e_a e_b, every
triple the table keeps but the walk drops raising in every shift block,
and a ``holding`` that skips a kept c fails that check."""

from collections import Counter
from itertools import product

import pytest

from homlie import solver
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import RowAccumulator, nullspace_of_rows
from homlie.solver import HOM_LIE, _plan, _solve_block, _triples, grading_shifts, solve_bilinear
from shared import (HOM_KINDS, ORDER3, PRINCIPAL, mutant, natural_hom_rows, partial_tables, raises_in_every_block,
                    untwisted, window_models)

FAMILIES = {
    "builtin": lambda: builtin_battery(),
    "random": lambda: random_lie_battery(),
    "windows": window_models,
    "order3": lambda: [(name, build()) for name, build in ORDER3.items()],
    "principal": lambda: [(name, build()) for name, build in PRINCIPAL.items()],
}


def natural(monkeypatch):
    """Hold ``solver._hom_rows`` to the natural walk."""
    monkeypatch.setattr(solver, "_hom_rows", lambda plan, kind, col_of, second, free:
                        natural_hom_rows(plan, kind, col_of, second))


def blocks(alg, kind):
    """Each shift's block, solved directly."""
    return {shift: _solve_block(alg, kind, shift, nullspace_of_rows) for shift in grading_shifts(alg)}


# A pick marked visited but never yielded, so its rows are never compiled.
DROPPED_PICK = ("yield x, y, w", "pass")
# A walk that does not skip the picked triples.
REVISITING_WALK = ("if skip and c in skip:", "if False:")


@pytest.fixture
def evaluations(monkeypatch):
    """The ``_hom_terms`` calls of each block, as (its col_of, a Counter of
    triples in the order they were first evaluated)."""
    counts: list[tuple[object, Counter]] = []
    hom_terms = solver._hom_terms

    def counted(first, second, signs, a, b, c, col_of):
        if not counts or counts[-1][0] is not col_of:
            counts.append((col_of, Counter()))
        counts[-1][1][a, b, c] += 1
        return hom_terms(first, second, signs, a, b, c, col_of)

    monkeypatch.setattr(solver, "_hom_terms", counted)
    return counts


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_the_directed_stream_solves_what_the_natural_walk_solves(family, kind, monkeypatch):
    directed = {name: blocks(alg, kind) for name, alg in FAMILIES[family]()}
    natural(monkeypatch)
    for name, alg in FAMILIES[family]():
        assert blocks(alg, kind) == directed[name], name


def test_asym_cocycles_are_the_natural_walks(monkeypatch):
    lie = lambda: [(name, alg) for name, alg in builtin_battery() if alg.flavor == "lie"]  # noqa: E731
    directed = {name: solve_bilinear(alg, "asym-cocycle") for name, alg in lie()}
    natural(monkeypatch)
    checked = 0
    for name, alg in lie():
        assert solve_bilinear(alg, "asym-cocycle") == directed[name], name
        checked += directed[name].dim > 0
    assert checked > 5


def at_most_once(family, kind, evaluations):
    """Solve every block of the family's algebras; every evaluated triple is
    a kept one.  Returns the largest count of one triple in one block and
    the number of evaluations out of the natural walk's order."""
    most = out_of_order = 0
    for _, alg in FAMILIES[family]():
        kept = [(a, b, c) for a, b, cs in _triples(_plan(alg), kind) for c in cs]
        place = {t: i for i, t in enumerate(kept)}
        for shift in grading_shifts(alg):
            evaluations.clear()
            _solve_block(alg, kind, shift, nullspace_of_rows)
            for _, block in evaluations:
                assert set(block) <= set(place)
                most = max(most, *block.values())
                order = list(block)
                out_of_order += sum(place[s] > place[t] for s, t in zip(order, order[1:]))
    return most, out_of_order


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_each_kept_triple_is_evaluated_at_most_once(family, kind, evaluations):
    most, out_of_order = at_most_once(family, kind, evaluations)
    assert most == 1
    if family == "windows":
        assert out_of_order > 100  # the picks leave the walk's order


def test_a_walk_that_revisits_picks_fails_the_count(monkeypatch, evaluations):
    mutant(monkeypatch, *REVISITING_WALK)
    assert at_most_once("windows", HOM_LIE, evaluations)[0] > 1


def test_a_pick_that_drops_its_rows_changes_a_window(monkeypatch):
    models = FAMILIES["windows"]()
    want = {name: blocks(alg, HOM_LIE) for name, alg in models}
    mutant(monkeypatch, *DROPPED_PICK)
    changed = [(name, shift) for name, alg in models for shift, block in blocks(alg, HOM_LIE).items()
               if block != want[name][shift]]
    assert changed


def test_the_accumulator_reports_its_lowest_free_column():
    """``free_col(k)`` is the lowest non-pivot column >= k, ``ncols`` when
    none is left; ``nullspace_of_rows`` adds to an accumulator it is given."""
    rows = [{0: 1, 2: 1}, {1: 2, 2: 1}, {0: 1, 1: 1, 2: 1}, {3: 1}]
    acc = RowAccumulator(4)
    assert acc.free_col(0) == 0
    assert nullspace_of_rows(acc, rows[:2]) == nullspace_of_rows(4, rows[:2])
    assert (acc.rank, acc.free_col(0), acc.free_col(3)) == (2, 2, 3)
    assert nullspace_of_rows(acc, rows[2:]).dim == 0
    assert (acc.rank, acc.free_col(0)) == (4, 4)


# -- the walk and the picks' candidates, by brute force ---------------------------------


def table_rule(alg, kind):
    """The orbit table of ``solver._Orbits``: whether the kind keeps the
    triple at places (i, j, k) of the basis, b = basis[j] (< is the
    basis order)."""
    if alg.is_commutative():
        return {"hom-lie": lambda i, j, k, b: i <= j <= k,
                "hom-cyclic": lambda i, j, k, b: j < k,
                "hom-2nilp": lambda i, j, k, b: i <= j}[kind.tag]
    if alg.is_anticommutative():
        return {"hom-lie": lambda i, j, k, b: i < j < k,
                "hom-cyclic": lambda i, j, k, b: j < k or j == k and alg.table.get((b, b), ()) is None,
                "hom-2nilp": lambda i, j, k, b: i < j}[kind.tag]
    return lambda i, j, k, b: True


def check_walk_and_picks(alg, kind):
    """The natural walk is every ordered triple the orbit table keeps whose
    first product e_a e_b is defined, in the lexicographic order of its
    places in the basis with degree 0 first, and ``holding(z, start)`` is
    the part of it that holds z from the first argument basis[start] on,
    each triple with its place (i * n + j) * n + k.  Every triple the table
    keeps and the walk drops raises ``UndefinedProduct`` in every shift
    block, so the walk loses no imposed equation."""
    n, deg = alg.dim, alg.grading or (0,) * alg.dim
    basis = sorted(range(n), key=lambda u: (deg[u] != 0, u))
    keeps = table_rule(alg, kind)
    table = [p for p in product(range(n), repeat=3) if keeps(*p, basis[p[1]])]
    defined = [alg.table.get((basis[i], basis[j]), ()) is not None for i, j, _ in table]
    places = [p for p, kept in zip(table, defined) if kept]
    assert raises_in_every_block(alg, kind, [tuple(basis[x] for x in p) for p, kept in zip(table, defined) if not kept])
    triples = [tuple(basis[x] for x in p) for p in places]
    plan = _plan(alg)
    assert [(a, b, c) for a, b, cs in _triples(plan, kind) for c in cs] == triples
    orbits = plan.orbits(kind)
    for z in range(n):
        holding = [((i * n + j) * n + k, *t) for (i, j, k), t in zip(places, triples) if z in t]
        for start in range(n):
            assert list(orbits.holding(z, start)) == [h for h in holding if h[0] >= start * n * n], (z, start)


WALKED = {
    "windows": FAMILIES["windows"],
    "order3": FAMILIES["order3"],
    "principal": lambda: [(name, PRINCIPAL[name]()) for name in ("sl3-principal", "sl4-principal", "sl5-principal")],
    "partial": lambda: [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())],
    "builtin": FAMILIES["builtin"],
}


@pytest.mark.parametrize("family", WALKED)
@pytest.mark.parametrize("kind", HOM_KINDS, ids=str)
def test_the_walk_and_the_picks_are_the_kept_triples_in_basis_order(family, kind):
    for name, alg in WALKED[family]():
        check_walk_and_picks(alg, kind)


def test_a_holding_that_skips_a_kept_c_fails_the_brute_force_walk(monkeypatch):
    mutant(monkeypatch, "range(first_c[j], n)", "range(first_c[j] + 1, n)", solver._Orbits, "holding")
    with pytest.raises(AssertionError):
        check_walk_and_picks(untwisted(2), HOM_LIE)

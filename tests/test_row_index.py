"""The product index (``AlgebraSpec.rows``, the one store of an algebra's
products) and the term builders that walk it.  The pair-keyed ``table`` is
a read-only view of the index: the index's own entries pair by pair, q
ascending, undefined (None) entries kept and zero products absent;
``_hom_terms`` and ``_leibniz_terms`` must give the terms, in their order,
and the raises of the builders that looked every product up in the table
(kept here as references), whichever walk they take."""

import json
import random
from fractions import Fraction
from itertools import chain, cycle, islice, product

import pytest

from homlie import solver
from homlie.algebra import UndefinedProduct, _hom_terms, _leibniz_terms, _undefined
from homlie.battery import builtin_battery, random_lie_battery
from homlie.serialize import algebra_from_json, algebra_to_json
from homlie.solver import HOM_2NILP, HOM_CYCLIC, HOM_LIE, _hom_rows, _triples, grading_shifts
from shared import block_col_of, mutant, partial_tables, sl3_loop, twisted, untwisted


def shift_blocks(alg):
    """Every nonempty shift block, shift -> ``block_col_of``."""
    return {shift: col_of for shift in grading_shifts(alg) if any(col_of := block_col_of(alg, shift))}


def unsteered():
    """``free`` for a stream read with no kernel behind it: no column is
    reported free, so ``_hom_rows`` keeps to the natural walk."""
    return 0, None


def ref_hom_terms(table, signs, a, b, c, col_of):
    """``_hom_terms`` as it read the table: e_p e_q looked up for every q of
    ``col_of[z]``."""
    for (x, y, z), sign in zip(((a, b, c), (c, a, b), (b, c, a)), signs):
        xy = table.get((x, y), ())
        if xy is None:
            raise _undefined(x, y)
        for p, w in xy:
            for q, col in col_of[z].items():
                pq = table.get((p, q), ())
                if pq is None:
                    raise _undefined(p, q)
                for m, cpq in pq:
                    yield m, col, sign * w * cpq


def ref_leibniz_terms(alg, i, j, outer, inner, delta):
    """``_leibniz_terms`` as it read the table through ``product_on_basis``."""
    for k, c in alg.product_on_basis(i, j):
        for m, col in outer[k].items():
            yield m, col, c
    for q, col in inner[i].items():
        for k, c in alg.product_on_basis(q, j):
            yield k, col, -delta * c
    for q, col in inner[j].items():
        for k, c in alg.product_on_basis(i, q):
            yield k, col, -delta * c


def terms_or_raise(terms):
    """The typed term list, or the pair an undefined product was read at."""
    try:
        return [(m, col, type(x), x) for m, col, x in terms]
    except UndefinedProduct as undefined:
        return undefined.pair


def json_loaded():
    """Builtins written to JSON and read back with the table entries shuffled,
    so the loaded table is not in (p, q) order."""
    rng = random.Random(26)
    out = []
    for name, alg in builtin_battery():
        doc = json.loads(json.dumps(algebra_to_json(alg)))
        rng.shuffle(doc["table"])
        out.append((f"json-{name}", algebra_from_json(doc)))
    return out


def windows():
    return [("untwisted-2", untwisted(2)), ("untwisted-4", untwisted(4)), ("twisted-3", twisted(3)),
            ("sl3-2", sl3_loop(2))]


INDEXED = {
    "builtin": builtin_battery,
    "random": random_lie_battery,
    "json": json_loaded,
    "window": windows,
    "partial": lambda: [(f"partial-{i}", alg) for i, alg in enumerate(partial_tables())],
}


@pytest.mark.parametrize("family", INDEXED)
def test_the_table_is_the_index_read_by_pair(family):
    for name, alg in INDEXED[family]():
        rows, table, n = alg.rows, alg.table, alg.dim
        assert len(rows) == n, name
        pairs = [(p, q) for p, row in enumerate(rows) for q in row]
        assert list(table) == pairs and len(table) == len(pairs), name  # the index's pairs, in its order
        for p, row in enumerate(rows):
            assert list(row) == sorted(row), (name, p)
            for q, terms in row.items():
                assert terms is None or terms, (name, p, q)  # an entry is a nonzero product or undefined
                assert table[(p, q)] is terms, (name, p, q)  # the index's own tuple, or None
        for p, q in product(range(-1, n + 1), repeat=2):  # a zero product, or a pair off the basis, is absent
            assert ((p, q) in table) == (0 <= p < n and q in rows[p]), (name, p, q)
            assert table.get((p, q), ()) == (rows[p].get(q, ()) if 0 <= p < n else ()), (name, p, q)
        with pytest.raises(TypeError):
            table[pairs[0] if pairs else (0, 0)] = ()  # read-only
        assert alg.rows is rows and table == {(p, q): rows[p][q] for p, q in pairs}, name  # compares as a dict
    if family in ("window", "partial"):
        assert any(None in row.values() for _, alg in INDEXED[family]() for row in alg.rows)


def random_images(rng, n):
    """col_of[z] for every z: q ascending over a random subset of range(n),
    from one q to all of them, so both walks of ``_hom_terms`` are taken."""
    out = []
    for _ in range(n):
        size = max(1, min(n, rng.choice((1, 2, n // 2, n - 1, n, n))))
        qs = sorted(rng.sample(range(n), size))
        out.append({q: rng.randrange(3 * n) for q in qs})
    return out


@pytest.mark.parametrize("family", INDEXED)
def test_hom_terms_walk_the_rows_as_the_table_lookup_did(family):
    """The same typed terms in the same order, or a raise at the same pair,
    for each kind's signs at random triples and images of every size."""
    rng = random.Random(f"walk-{family}")
    row_walks = lookups = raised = 0
    for name, alg in INDEXED[family]():
        n = alg.dim
        for _ in range(40):
            col_of = random_images(rng, n)
            a, b, c = (rng.randrange(n) for _ in range(3))
            for signs in ((1, 1, 1), (1, -1), (1,)):
                got = terms_or_raise(_hom_terms(alg.rows, alg.rows, signs, a, b, c, col_of))
                assert got == terms_or_raise(ref_hom_terms(alg.table, signs, a, b, c, col_of)), (name, a, b, c)
                raised += isinstance(got, tuple)
            for x, y, z in ((a, b, c), (c, a, b), (b, c, a)):
                for p, _ in alg.table.get((x, y)) or ():
                    shorter = len(alg.rows[p]) < len(col_of[z])
                    row_walks += shorter
                    lookups += not shorter
    assert row_walks > 50 and lookups > 50
    if family in ("window", "partial"):
        assert raised > 20


@pytest.mark.parametrize("family", INDEXED)
def test_leibniz_terms_walk_the_rows_as_the_table_lookup_did(family):
    rng = random.Random(f"leibniz-{family}")
    for name, alg in INDEXED[family]():
        n = alg.dim
        for _ in range(40):
            outer, inner = random_images(rng, n), random_images(rng, n)
            i, j = rng.randrange(n), rng.randrange(n)
            delta = rng.choice((1, 2, Fraction(-1, 2)))
            got = terms_or_raise(_leibniz_terms(alg.rows, i, j, outer, inner, delta))
            assert got == terms_or_raise(ref_leibniz_terms(alg, i, j, outer, inner, delta)), (name, i, j)


@pytest.fixture
def at_first(monkeypatch):
    """The triples (a, b, c) whose evaluation by ``solver._hom_rows`` raised
    at its first product e_a e_b, and the number of evaluations."""
    raised, evaluated = [], [0]
    hom_terms = solver._hom_terms

    def tracked(first, second, signs, a, b, c, col_of):
        evaluated[0] += 1
        terms = hom_terms(first, second, signs, a, b, c, col_of)
        try:
            head = list(islice(terms, 1))  # e_a e_b is read before any term
        except UndefinedProduct as undefined:
            if undefined.pair == (a, b):
                raised.append((a, b, c))
            raise
        return chain(head, terms)

    monkeypatch.setattr(solver, "_hom_terms", tracked)
    return raised, evaluated


def stalling(n):
    """``free`` for a kernel that never gains rank and reports the sources
    z = 0, 1, ..., n - 1 free in turn: after every walked triple,
    ``_hom_rows`` picks from the kept triples of each z (``holding``) until
    one z has none left."""
    zs = cycle(range(n))
    return lambda: (0, next(zs))


def check_first_products(models, kinds, at_first, stall=True):
    """Full passes of ``_hom_rows`` over every shift block of ``models``,
    read with no kernel behind them (``unsteered``) and, with ``stall``,
    with a kernel that stalls at every triple (``stalling``), evaluate no
    triple whose first product e_a e_b is undefined; each pass evaluates
    every kept triple."""
    raised, evaluated = at_first
    for alg in models:
        blocks = shift_blocks(alg)
        plan = solver._Plan(alg)  # its own orbits, built by the code under test
        frees = (unsteered, stalling(alg.dim)) if stall else (unsteered,)
        for kind, (shift, col_of), free in product(kinds, blocks.items(), frees):
            evaluated[0] = 0
            for _ in _hom_rows(plan, kind, col_of, alg.rows, free):
                pass
            assert raised == [], (kind, shift, free)
            assert evaluated[0] == sum(len(cs) for _, _, cs in _triples(plan, kind)), (kind, shift, free)


def test_no_evaluation_raises_at_its_first_product(at_first):
    """The walk and the picks skip each pair (a, b) whose e_a e_b leaves
    the window (``solver._Orbits``), so no evaluation of a triple raises at
    its first product: read unsteered on the sl2 window N = 6, and also
    stalled on the window N = 2 and on the partial tables, whose products
    are undefined at random."""
    window = untwisted(6)
    assert not solver._Plan(window).complete
    check_first_products([window], [HOM_LIE], at_first, stall=False)
    check_first_products([untwisted(2)] + partial_tables(), [HOM_LIE, HOM_CYCLIC, HOM_2NILP], at_first)


# The orbit rule of hom-lie on an anticommutative table, without the
# first-product rule: in the natural walk, and in the picks.
UNFILTERED = {"walk": ("for j in orbits.seconds[i]:", "for j in range(i + 1, len(basis)):", solver, "_triples"),
              "picks": ("for j in self.seconds[i]:", "for j in range(i + 1, n):", solver._Orbits, "holding")}


@pytest.mark.parametrize("where", UNFILTERED)
def test_a_walk_or_picks_without_the_first_product_rule_fail_the_check(where, monkeypatch, at_first):
    old, new, owner, name = UNFILTERED[where]
    mutant(monkeypatch, old, new, owner, name)
    with pytest.raises(AssertionError):
        check_first_products([untwisted(2)], [HOM_LIE], at_first)
    assert at_first[0]  # some evaluation raised at its first product


def test_an_undefined_product_keeps_its_pair():
    error = _undefined(3, 5)
    assert error.pair == (3, 5) and isinstance(error, ValueError)
    assert str(error) == "the basis product (3, 5) is undefined: it leaves the degree window"

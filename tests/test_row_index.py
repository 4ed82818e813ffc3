"""The product index (``AlgebraSpec.rows``, the one store of an algebra's
products) and the term builders that walk it.  The pair-keyed ``table`` is
a read-only view of the index: the index's own entries pair by pair, q
ascending, undefined (None) entries kept and zero products absent;
``_hom_terms`` and ``_leibniz_terms`` must give the terms, in their order,
and the raises of the builders that looked every product up in the table
(kept here as references), whichever walk they take."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from homlie import algebra, solver
from homlie.algebra import UndefinedProduct, _hom_terms, _leibniz_terms, _undefined
from homlie.battery import builtin_battery, random_lie_battery
from homlie.serialize import algebra_from_json, algebra_to_json
from homlie.solver import HOM_LIE, _hom_rows, _triples
from test_term_builders import partial_tables, shift_blocks, unsteered
from test_window import _sl3, _twisted, _untwisted


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
    return [("untwisted-2", _untwisted(2)), ("untwisted-4", _untwisted(4)), ("twisted-3", _twisted(3)),
            ("sl3-2", _sl3(2))]


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


def test_a_window_run_stops_at_its_undefined_first_product(monkeypatch):
    """A full pass of ``_hom_rows``, read with no kernel, over each shift
    block of the sl2 window N = 6 raises at a run's first product e_a e_b
    once per run (a, b, cs) whose e_a e_b is undefined, not once per c:
    e_a e_b is the first read of every evaluation of the run."""
    alg = _untwisted(6)
    plan, blocks = shift_blocks(alg)
    current = [None]
    at_first = Counter()
    triples, undefined = solver._triples, algebra._undefined

    def tracked(plan, kind):
        for run in triples(plan, kind):
            current[0] = run[:2]
            yield run

    def counted(i, j):
        at_first[i, j] += (i, j) == current[0]
        return undefined(i, j)

    monkeypatch.setattr(solver, "_triples", tracked)
    monkeypatch.setattr(algebra, "_undefined", counted)
    gaps = Counter((a, b) for a, b, _ in _triples(plan, HOM_LIE) if alg.table.get((a, b), ()) is None)
    assert len(gaps) > 100 and len(blocks) > 10
    compiled = 0
    for shift, col_of in blocks.items():
        at_first.clear()
        compiled += sum(1 for _ in _hom_rows(plan, HOM_LIE, col_of, alg.rows, unsteered))
        assert +at_first == gaps, shift
    assert compiled > 100_000


def test_an_undefined_product_keeps_its_pair():
    error = _undefined(3, 5)
    assert error.pair == (3, 5) and isinstance(error, ValueError)
    assert str(error) == "the basis product (3, 5) is undefined: it leaves the degree window"

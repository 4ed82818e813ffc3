"""The algebras, kinds, kernels and references that several test modules
share, so that no test module imports another."""

import inspect
import random
import textwrap
from fractions import Fraction
from itertools import product

import pytest

from homlie import solver
from homlie.algebra import AlgebraSpec, UndefinedProduct, _hom_terms, builtin, killing_form, make_algebra
from homlie.constructions import km_window
from homlie.linalg import Matrix, SpanSolver, Subspace, nullspace, nullspace_of_rows
from homlie.solver import (HOM_2NILP, HOM_CYCLIC, HOM_LIE, _SIGNS, MultiplicativityWitness, _plan, _solve_block,
                           _sparse_rows, _triples, delta_derivation, grading_shifts)

F = Fraction
HOM_KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]
DELTA_KINDS = [delta_derivation(d) for d in (F(-1), F(1, 2), F(1), F(2))]


# -- loop windows ----------------------------------------------------------------


def index_of(dim, table):
    """The product index (``AlgebraSpec.rows``) of a pair-keyed table whose
    entries may be None, as ``km_window`` writes one: rows[p][q] =
    table[(p, q)], q ascending."""
    return tuple({q: table[p, q] for p2, q in sorted(table) if p2 == p} for p in range(dim))


def untwisted(n):
    g = builtin("sl", 2)
    return km_window(g, killing_form(g), n)


def sl3_loop(n):
    g = builtin("sl", 3)
    return km_window(g, killing_form(g), n)


def twisted(n):
    g = builtin("sl", 2)
    g0 = Subspace.from_spanning([[0, 1, 0]], 3)
    g1 = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    return km_window(g, killing_form(g), n, twist=([g0, g1], 2))


def a22_grading():
    """The eigenspaces of the involution x -> -J x^T J^-1 of sl3, with
    J = antidiag(1, -1, 1) = J^-1, in the basis H1, H2, E12, E13, E21,
    E23, E31, E32 of ``builtin("sl", 3)``: fixed (eigenvalue 1) and negated."""
    units = [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}]
    units += [{(i, j): 1} for i in range(3) for j in range(3) if i != j]
    basis = [Matrix.from_sparse(3, 3, u) for u in units]
    j = Matrix.from_sparse(3, 3, {(0, 2): 1, (1, 1): -1, (2, 0): 1})
    coords = SpanSolver([b.flatten() for b in basis], 9)
    images = [coords.express((j @ b.transpose() @ j).scale(-1).flatten()) for b in basis]
    sigma = Matrix(tuple(tuple(images[c].get(r, 0) for c in range(8)) for r in range(8)), 8)
    return nullspace(sigma - Matrix.identity(8)), nullspace(sigma + Matrix.identity(8))


def a22(n):
    """The twisted A2(2) window."""
    g = builtin("sl", 3)
    return km_window(g, killing_form(g), n, twist=(list(a22_grading()), 2))


def order3(n):
    """sl2 twisted by the Z/3-grading g0 = <h>, g1 = <e+>, g2 = <e->: the
    k-th loop vector of degree i and of degree -i lie in different
    components, so sigma is the Chevalley involution composed with
    t -> t^-1, with signs no name lookup gives."""
    g = builtin("sl", 2)
    parts = [Subspace.from_spanning([v], 3) for v in ([0, 1, 0], [0, 0, 1], [1, 0, 0])]
    return km_window(g, killing_form(g), n, twist=(parts, 3))


def witt(n, central=False):
    """The Witt window W_N: L_m for |m| <= N, [L_a, L_b] = (a - b) L_{a+b},
    undefined where |a + b| > N; with ``central``, the Virasoro window,
    whose last basis vector c, of degree 0, adds (a^3 - a) delta_{a+b,0} c
    (Kac and Raina, *Bombay Lectures*, Lecture 1).  Certified lie as
    ``km_window`` is: every defined product is a bracket of W or Vir, which
    are Lie.  Neither has basis vectors named d and z."""
    degrees = range(-n, n + 1)
    table = {}
    for a, b in product(degrees, repeat=2):
        if abs(a + b) > n:
            table[a + n, b + n] = None
            continue
        terms = [(a + b + n, a - b)] if a != b else []
        if central and a + b == 0 and a ** 3 != a:
            terms.append((2 * n + 1, a ** 3 - a))
        if terms:
            table[a + n, b + n] = tuple(terms)
    names = [f"L{a}" for a in degrees] + ["c"] * central
    return AlgebraSpec(len(names), tuple(names), index_of(len(names), table), "lie",
                       grading=(*degrees, *[0] * central))


WINDOW_MODELS = [
    pytest.param(untwisted, 2, id="untwisted-2"),
    pytest.param(untwisted, 3, id="untwisted-3"),
    pytest.param(twisted, 3, id="twisted-3"),
    pytest.param(sl3_loop, 2, id="sl3-2"),
]


def window_models():
    """(name, window) for each of ``WINDOW_MODELS``."""
    return [(f"{model.__name__}-{size}", model(size)) for model, size in (p.values for p in WINDOW_MODELS)]


def raises_in_every_block(alg, kind, triples):
    """Whether evaluating each of ``triples`` (``_hom_terms`` over a shift
    block's columns, as ``_hom_rows`` does) raises ``UndefinedProduct`` in
    every shift block: the window imposes none of their equations."""
    plan, signs = _plan(alg), _SIGNS[kind.tag]
    for shift in grading_shifts(alg):
        col_of = [plan.col_of(c, shift) for c in range(alg.dim)]
        for t in triples:
            try:
                list(_hom_terms(alg.rows, alg.rows, signs, *t, col_of))
            except UndefinedProduct:
                continue
            return False
    return True


# -- graded tables -----------------------------------------------------------------


def replaced(alg, **changes):
    """``alg`` made again through ``AlgebraSpec(...)`` with ``changes`` to its
    fields: no law is checked, and the copy keeps none of ``alg``'s solves."""
    fields = {"dim": alg.dim, "basis_names": alg.basis_names, "rows": alg.rows, "flavor": alg.flavor,
              "grading": alg.grading, "jacobi_witness": alg.jacobi_witness}
    return AlgebraSpec(**{**fields, **changes})


def regraded(alg, degree_of):
    """``alg`` graded by the degree of each basis name."""
    grading = [degree_of(name) for name in alg.basis_names]
    return make_algebra(alg.dim, alg.table, basis_names=alg.basis_names, flavor=alg.flavor, grading=grading)


def principal(n):
    """sl_n graded principally, deg E_ij = j - i: its mirror is E_ij -> +-E_ji, H -> -H."""
    return regraded(builtin("sl", n), lambda name: int(name[2]) - int(name[1]) if name[0] == "E" else 0)


def block_graded(n):
    """sp_n graded by its blocks, A in degree 0, B in 1, C in -1: no mirror."""
    return regraded(builtin("sp", n), lambda name: {"A": 0, "B": 1, "C": -1}[name[0]])


ORDER3 = {f"sl2-order3-{n}": (lambda n=n: order3(n)) for n in (2, 3)}
PRINCIPAL = {f"sl{n}-principal": (lambda n=n: principal(n)) for n in range(3, 7)}

PARTIAL_FLAVORS = ["generic-anticommutative", "generic-commutative", "unchecked"]


def one_sided_gap():
    """Undefined e_2 e_3 while e_3 e_2 is defined, and e_0 e_3 undefined, so
    the left and the right undefined degrees of a basis element differ."""
    table = {(0, 1): ((2, 1),), (1, 0): ((2, -1),), (2, 3): None, (3, 2): ((1, 1),), (0, 3): None, (1, 2): ((3, 1),)}
    return AlgebraSpec(4, ("e0", "e1", "e2", "e3"), index_of(4, table), "unchecked", grading=(0, 1, 1, 2))


def random_partial_table(rng, flavor):
    """A graded table on 3..5 basis vectors of degrees -1..1 whose products
    are undefined at random: e_i e_j is None with probability 1/4, and
    otherwise a random combination of the basis vectors of degree
    deg i + deg j.  A commutative or anticommutative table sets e_j e_i from
    e_i e_j, None with it, as ``km_window`` does."""
    n = rng.randint(3, 5)
    deg = tuple(rng.randint(-1, 1) for _ in range(n))
    sigma = {"generic-anticommutative": -1, "generic-commutative": 1}.get(flavor)
    table = {}
    for i, j in product(range(n), repeat=2):
        if sigma is not None and j < i:
            continue
        if rng.random() < 0.25:
            entry = None
        elif sigma == -1 and i == j:
            continue
        else:
            entry = tuple((k, rng.choice((-2, -1, 1, 3))) for k in range(n)
                          if deg[k] == deg[i] + deg[j] and rng.random() < 0.6)
            if not entry:
                continue
        table[(i, j)] = entry
        if sigma is not None and i != j:
            table[(j, i)] = None if entry is None else tuple((k, sigma * c) for k, c in entry)
    return AlgebraSpec(n, tuple(f"e{u}" for u in range(n)), index_of(n, table), flavor, grading=deg)


def partial_tables():
    """``one_sided_gap`` and 35 seeded random partial tables of each flavor."""
    rng = random.Random(25)
    return [one_sided_gap()] + [random_partial_table(rng, flavor) for flavor in PARTIAL_FLAVORS for _ in range(35)]


# -- blocks, streams and kernels -----------------------------------------------------


def block_col_of(alg, shift):
    """col_of[c][q] = q*n + c for every q of degree deg c + shift: the End
    columns of the block of ``shift``, stated here apart from the solver's
    ``_Plan.col_of``."""
    n, deg = alg.dim, alg.grading or (0,) * alg.dim
    return [{q: q * n + c for q in range(n) if deg[q] == deg[c] + shift} for c in range(n)]


def natural_hom_rows(plan, kind, col_of, second):
    """``solver._hom_rows`` without the directed rule: every kept triple in
    the natural walk's order (``_triples``), whatever the kernel has
    pinned."""
    signs, first = _SIGNS[kind.tag], plan.alg.rows
    for a, b, cs in _triples(plan, kind):
        for c in cs:
            try:
                yield from _sparse_rows(_hom_terms(first, second, signs, a, b, c, col_of))
            except UndefinedProduct:
                pass


def direct_router(alg, kind, shifts, kernel):
    """The router with the retire step, without the blocks it keeps and
    mirrors: every block of ``shifts`` compiled by ``_solve_block``."""
    rows = [pr for shift in shifts for pr in _solve_block(alg, kind, shift, kernel).rows]
    return Subspace(alg.dim ** 2, sorted(rows, key=lambda pr: pr[0]))


class Counting:
    """A kernel that counts the rows it reads before handing them on."""

    def __init__(self):
        self.rows = 0

    def __call__(self, acc, rows):
        def counted():
            for row in rows:
                self.rows += 1
                yield row

        return nullspace_of_rows(acc, counted())


def mutant(monkeypatch, old, new, owner=solver, name="_directed"):
    """``owner.name`` (``solver._directed``) with ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1
    namespace = dict(vars(solver))
    exec(compile("from __future__ import annotations\n" + source.replace(old, new), solver.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


# -- dense references --------------------------------------------------------------


def _dense_multiply(alg, u, v):
    """``alg.multiply``, or None when the product reads an undefined basis
    product of a window."""
    support_u, support_v = [i for i, x in enumerate(u) if x], [j for j, x in enumerate(v) if x]
    if any(alg.table.get((i, j), ()) is None for i in support_u for j in support_v):
        return None
    return alg.multiply(u, v)


def dense_is_multiplicative(alg, phi):
    """``solver.is_multiplicative`` through dense products: True, or the
    witness of the first pair whose products are defined and differ."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            xy = _dense_multiply(alg, alg.basis_vector(i), alg.basis_vector(j))
            rhs = _dense_multiply(alg, phi.apply(alg.basis_vector(i)), phi.apply(alg.basis_vector(j)))
            if xy is None or rhs is None:
                continue
            lhs = phi.apply(xy)
            if lhs != rhs:
                return MultiplicativityWitness((i, j), lhs, rhs)
    return True


# -- exact entries -------------------------------------------------------------------


def is_exact_entry(x):
    """Whether x is an entry as the kernel stores it: an int when integral, else a Fraction."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def naive_rref(rows):
    """Textbook dense elimination, independent of the production kernel."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m, 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        scale = m[rank][col]
        m[rank] = [x / scale for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return m, rank

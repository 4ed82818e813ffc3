"""Linear solvers for twisted-structure spaces on structure-constant algebras.

Every identity handled here is linear in one unknown map.  The unknown
endomorphism ``phi`` is the matrix M with ``phi(e_j) = sum_i M[i][j] e_i``,
flattened row-major into dim^2 coordinates; an unknown bilinear form F is
the matrix ``F[i][j] = f(e_i, e_j)``, flattened the same way.  Each solver
compiles the identity into sparse rows over those coordinates and returns
the exact nullspace.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .algebra import (BILINEAR_KINDS, AlgebraSpec, BilinearForm, UndefinedProduct, _evaluate, _hom_terms, _Index,
                      _leibniz_terms, _pairing, _require_lie, _sorted_tuples, _Terms, _undefined,
                      right_annihilator, sparse_product, structural_subspaces)
from .linalg import (
    Frozen,
    Matrix,
    RowAccumulator,
    SparseVector,
    Subspace,
    Vector,
    as_scalar,
    dense_vector,
    int_if_integral,
    nullspace_of_rows,
    sparse_lincomb,
)

# -- structure kinds --------------------------------------------------------

# The kind's identity, one sign per term in the order (ab)phi(c), (ca)phi(b),
# (bc)phi(a): hom-lie has all three, hom-cyclic the first minus the second,
# hom-2nilp the first alone.
_SIGNS = {"hom-lie": (1, 1, 1), "hom-cyclic": (1, -1), "hom-2nilp": (1,)}


class StructureKind(Frozen):
    """A hom kind of ``_SIGNS`` or a delta-derivation; any other tag is refused.
    Two kinds are equal, and hash alike, when their tags and deltas are."""

    def __init__(self, tag: str, delta: Fraction | None = None):
        if tag not in _SIGNS and tag != "delta-derivation":
            raise ValueError(f"unknown structure kind {tag!r}")
        if (tag == "delta-derivation") != (delta is not None):
            raise ValueError("delta is given exactly for delta-derivation kinds")
        vars(self).update(tag=tag, delta=delta)

    def __eq__(self, other) -> bool:
        return (self.tag, self.delta) == (other.tag, other.delta) if type(other) is StructureKind else NotImplemented

    def __hash__(self) -> int:
        return hash((self.tag, self.delta))

    def __str__(self) -> str:
        if self.delta is not None:
            return f"delta:{self.delta}"
        return self.tag


HOM_LIE = StructureKind("hom-lie")
HOM_CYCLIC = StructureKind("hom-cyclic")
HOM_2NILP = StructureKind("hom-2nilp")


def delta_derivation(delta) -> StructureKind:
    return StructureKind("delta-derivation", as_scalar(delta))


def parse_kind(text: str) -> StructureKind:
    if text in _SIGNS:
        return StructureKind(text)
    if text.startswith("delta:"):
        return delta_derivation(text.removeprefix("delta:"))
    raise ValueError(f"unknown structure kind {text!r}")


class HomSolution(NamedTuple):
    """Exact solution space of one structure kind on one algebra."""

    algebra: AlgebraSpec
    kind: StructureKind
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_maps(self) -> list[Matrix]:
        n = self.algebra.dim
        return [Matrix.unflatten(r, n, n) for _, r in self.space.rows]

    def contains_map(self, phi: Matrix) -> bool:
        n = self.algebra.dim
        if phi.shape != (n, n):
            raise ValueError("map shape does not match the algebra")
        return self.space.contains(phi.sparse_flatten())


# -- row assembly helpers ----------------------------------------------------


def _sparse_rows(terms: _Terms) -> list[dict[int, Fraction]]:
    """One group's terms summed by row key, its nonzero rows listed in the
    order their keys were first touched; only a row holding a zero (terms
    that cancel) is filtered.  All terms are read before a row is returned,
    so a builder that raises gives none: a group is compiled whole or not."""
    rows: dict[object, dict[int, Fraction]] = {}
    for key, col, val in terms:
        row = rows.get(key)
        if row is None:
            rows[key] = {col: val}
        else:
            row[col] = row[col] + val if col in row else val
    out = [row if 0 not in row.values() else {col: val for col, val in row.items() if val} for row in rows.values()]
    return out if all(out) else [row for row in out if row]


# -- the compile plan and the pass over the triples ---------------------------


def _kept(alg: AlgebraSpec, key: object, build: Callable[[], object]):
    """The value kept on ``alg`` under ``key``, built on first use."""
    kept = alg._solved
    if key not in kept:
        kept[key] = build()
    return kept[key]


class _Plan:
    """The tables every structure solve on one algebra compiles from.  They
    depend on the algebra alone, so ``_plan`` builds them once per algebra
    and keeps them on it.

    - ``components``: each degree's indices, ascending.
    - ``basis``: the elements of degree 0, then the others, each part in
      index order (plain index order with one degree); ``pos[u]`` is u's
      place in it.  It is the one order the triples are walked in.
    - ``annihilator``: the echelon rows of ``right_annihilator``, solved on
      first use (only the hom kinds read it).
    - ``orbits(kind)``: the kind's kept triples and their walk
      (``_Orbits``), built on first use.
    - ``gaps``: the q of every undefined product e_p e_q; the other q are
      closed.
    - ``complete``: whether every product is defined (no gaps).
    - ``col_of(c, shift)``: the columns of the block of ``shift`` with source c.
    """

    def __init__(self, alg: AlgebraSpec):
        self.alg = alg
        self.gaps = {q for row in alg.rows for q, terms in row.items() if terms is None}
        self.complete = not self.gaps
        self.deg = deg = alg.grading or (0,) * alg.dim
        self.components: dict[int, list[int]] = {}
        for u, d in enumerate(deg):
            self.components.setdefault(d, []).append(u)
        self.basis = self.components.get(0, []) + [u for u in range(alg.dim) if deg[u] != 0]
        self.pos = [0] * alg.dim
        for i, u in enumerate(self.basis):
            self.pos[u] = i
        self._orbits: dict[str, _Orbits] = {}

    @cached_property
    def annihilator(self) -> list[Mapping[int, Fraction]]:
        return [z for _, z in right_annihilator(self.alg).rows]

    def orbits(self, kind: StructureKind) -> "_Orbits":
        """The kind's kept triples (``_Orbits``), built once per kind."""
        if kind.tag not in self._orbits:
            self._orbits[kind.tag] = _Orbits(self, kind)
        return self._orbits[kind.tag]

    def col_of(self, c: int, shift: int) -> dict[int, int]:
        """phi(e_c) -> e_q at End's column q*n + c, for every q of degree
        deg c + shift: the maps of the block of ``shift`` send degree d into
        d + shift (all of End with one degree and shift 0)."""
        n = self.alg.dim
        return {q: q * n + c for q in self.components.get(self.deg[c] + shift, ())}


def _plan(alg: AlgebraSpec) -> _Plan:
    return _kept(alg, "plan", lambda: _Plan(alg))


def _require_defined(alg: AlgebraSpec, what: object) -> None:
    """Refuse ``what``, a solve that imposes every equation, on a table with
    undefined products (a degree window), naming the first undefined pair."""
    if not _plan(alg).complete:
        pair = next((p, q) for p, row in enumerate(alg.rows) for q, terms in row.items() if terms is None)
        raise ValueError(f"{what} needs every product defined; "
                         f"this algebra has undefined products: {_undefined(*pair)}")


# The argument swaps of (a, b, c) that change the kind's forms by a sign
# alone, and that sign on a commutative table; an anticommutative table
# flips it (the symmetry lemmas in ``algebra._hom_terms``).
_SWAPS = {"hom-lie": ({"ab", "bc"}, 1), "hom-cyclic": ({"bc"}, -1), "hom-2nilp": ({"ab"}, 1)}


class _Orbits:
    """The basis triples the kind's identity is imposed on, one per orbit
    of the kind's swaps (``_SWAPS``) with a defined first product, and the
    order they are walked in.

    The kept-triple rule.  The triple at places (i, j, k) of ``_Plan.basis``,
    (a, b, c) = (basis[i], basis[j], basis[k]), is kept exactly when j is
    in ``seconds[i]`` and ``k >= first_c[j]``: it is its orbit's one kept
    triple, and its first product e_a e_b is defined.  The first-product
    rule: ``_hom_terms`` reads e_a e_b first, so a triple where it is
    undefined imposes nothing, nor (by the window lemma in
    ``algebra._hom_terms``) does any triple of its orbit.  The orbit rule:
    on a commutative or anticommutative table the arguments a swap of the
    kind exchanges come in basis order, strictly where the swap changes
    the sign (j >= i + 1, ``first_c[j] = j + 1``; + 0 where it keeps it,
    and 0 for an argument no swap orders).  By the symmetry lemmas in
    ``algebra._hom_terms`` the forms of every other triple of the orbit
    are plus or minus those of the kept one, and zero when a
    sign-changing swap exchanges two equal arguments (the zero orbits, of
    which nothing is kept); its window lemma shows that ``_hom_rows``
    imposes all or none of an orbit.  On an anticommutative
    table hom-cyclic's swap keeps the sign, and b < c is strict there too
    wherever e_b e_b is defined: by the cyclic lemma in
    ``algebra._hom_terms``, C(a, b, b) = -2 C(b, a, b), where (b, a, b) or
    its orbit mate (b, b, a) is kept when a != b (and C(b, b, b) = 0), and
    a window imposes C(a, b, b) exactly when it imposes C(b, a, b).  So the
    kept triples' rows span the rows of all ordered triples (the table
    states the orbit rule):

    | kind | anticommutative | commutative |
    |---|---|---|
    | hom-lie | a < b < c | a <= b <= c |
    | hom-cyclic | all a, b < c (b <= c where e_b e_b is undefined) | all a, b < c |
    | hom-2nilp | a < b, all c | a <= b, all c |

    A table of any other flavor keeps every ordered triple.
    """

    def __init__(self, plan: _Plan, kind: StructureKind):
        alg, basis = plan.alg, plan.basis
        swaps, sign = _SWAPS[kind.tag]
        if not (alg.is_commutative() or alg.is_anticommutative()):
            swaps = set()
        strict = int(sign == (-1 if alg.is_commutative() else 1))  # the swaps change the sign
        drop_bb = kind.tag == "hom-cyclic" and alg.is_anticommutative()  # the cyclic lemma
        self.plan, ab, bc = plan, "ab" in swaps, "bc" in swaps
        self.seconds = [[j for j in range(i + strict if ab else 0, len(basis))
                         if alg.rows[a].get(basis[j], ()) is not None] for i, a in enumerate(basis)]
        self.first_c = [j + (strict or drop_bb and alg.rows[b].get(b, ()) is not None) if bc else 0
                        for j, b in enumerate(basis)]

    def holding(self, z: int, start: int) -> Iterator[tuple[int, int, int, int]]:
        """The kept triples (a, b, c) that hold z, as (place, a, b, c) in the
        walk's order from the places (i, j, k) with i >= start on, the place
        (i * n + j) * n + k ascending with the walk.

        For a kept pair (a, b) that does not hold z, (a, b, z) is kept when
        pos[z] >= first_c[j]; where the rule orders b and c, first_c[j] is
        j or j + 1, so that fails exactly for the b past z, and the pairs of
        a (``seconds[i]``, ascending) end at the first of them."""
        basis, first_c, n = self.plan.basis, self.first_c, len(self.plan.basis)
        k = self.plan.pos[z]
        for i in range(start, n):
            a = basis[i]
            for j in self.seconds[i]:
                b, pair = basis[j], (i * n + j) * n
                if a == z or b == z:
                    for m in range(first_c[j], n):
                        yield pair + m, a, b, basis[m]
                elif k >= first_c[j]:
                    yield pair + k, a, b, z
                else:
                    break


def _triples(plan: _Plan, kind: StructureKind) -> Iterator[tuple[int, int, Sequence[int]]]:
    """The natural walk through the kept triples (``_Orbits``), as runs
    (a, b, cs), one per pair that keeps a triple: the triples (a, b, c)
    for c in cs = basis[first_c[j]:] (the kept c of a pair depend on j
    alone), in the lexicographic order of their places in ``_Plan.basis``.

    Elements of degree 0 act diagonally on the grading (the Cartan
    elements of a principally graded sl_n; the Euler element d and the
    centre z of a window), so the triples that lead with them give every
    shift block rows early.  That is not enough for a block to reach full
    rank early: block 0 of the sl2 window N = 6 has 133 columns, and in
    this order its rows reach rank 132 by row 327 but rank 133 only at row
    1,392, from (h (x) t^0, e+ (x) t^-6, e+ (x) t^6).  sl2's Hom-Lie maps
    psi extend to the loop part as psi (x) id (Prop. 2.1), and these solve
    every equation but those that read the central term of
    [x (x) t^i, y (x) t^-i]: the rank stays 132 for 1,065 rows, through the
    rest of the 1,160 led by e- (x) t^0, until such a triple led by
    h (x) t^0.  ``_directed`` therefore leaves this order where the kernel
    stalls.  No triple is listed or sorted up front, so a solve stops
    generating at full rank.
    """
    orbits = plan.orbits(kind)
    basis = plan.basis
    for i, a in enumerate(basis):
        for j in orbits.seconds[i]:
            cs = basis[orbits.first_c[j]:]
            if cs:
                yield a, basis[j], cs


def _directed(plan: _Plan, kind: StructureKind,
              free: Callable[[], tuple[int, int | None]]) -> Iterator[tuple[int, int, int]]:
    """The kept triples (``_Orbits``) in the directed order.  ``free()`` is
    the kernel's state after the rows of the triples so far: its rank, and
    the source z of its lowest column that is not a pivot (column
    phi(e_z) -> e_q), None when every column is one.

    The directed rule.  The triples come from the natural walk
    (``_triples``) until one raises no rank: its rows add nothing, or
    evaluating it reads an undefined product.  The next triple is then a
    pick: the first kept triple of the walk that holds z, that the walk
    has not reached and that was not picked before (``_Orbits.holding``).
    Picks go on while they raise no rank and z has one left; then the walk
    goes on, past the picked triples.  So every kept triple is yielded at
    most once, and a stream read to its end has yielded every one.  A pick
    holds z, so its rows are the equations that read phi(e_z), the
    unknowns the kernel has not pinned.

    The row-order lemma.  The kernel of the kept triples' rows does not
    depend on the order they come in, and a prefix of full rank already
    has kernel 0: a stream stopped at full rank leaves the same kernel as
    all the rows.  So the directed stream solves what the natural walk
    solves, with the same canonical subspace.
    """
    orbits = plan.orbits(kind)
    pos, n = plan.pos, len(plan.pos)
    picked: dict[tuple[int, int], set[int]] = {}  # (a, b) -> the c picked
    holding: dict[int, Iterator] = {}  # z -> its kept triples, from where the walk stood when z was first free
    rank = free()[0]
    for a, b, cs in _triples(plan, kind):
        skip = picked.get((a, b))
        for c in cs:
            if skip and c in skip:
                continue
            yield a, b, c
            now, z = free()
            if now == rank and z is not None:  # a stall: pick while they stall too
                here = (pos[a] * n + pos[b]) * n + pos[c]  # the walk's place
                while now == rank and z is not None:
                    candidates = holding.get(z)
                    if candidates is None:
                        candidates = holding[z] = orbits.holding(z, pos[a])
                    for place, x, y, w in candidates:
                        if place > here and w not in picked.get((x, y), ()):
                            break
                    else:
                        break
                    picked.setdefault((x, y), set()).add(w)
                    yield x, y, w
                    now, z = free()
                skip = picked.get((a, b))
            rank = now


def _hom_rows(plan: _Plan, kind: StructureKind, col_of: Sequence[Mapping[int, int]], second: _Index,
              free: Callable[[], tuple[int, int | None]]) -> Iterator[dict[int, int | Fraction]]:
    """The rows of the kind's identity in one block, phi(e_z) -> e_q at
    column ``col_of[z][q]``, for the kept triples in the order
    ``_directed`` gives them.  Each row sums the ``_hom_terms`` of one
    triple over the block's columns, its second products read from
    ``second`` (the algebra's index, or a form's pairing).  A shift block's
    columns give phi(e_z) every q of degree deg z + s, so the triple's
    equations at shift s are compiled whole or, when evaluating them reads
    an undefined product, not at all."""
    signs, first = _SIGNS[kind.tag], plan.alg.rows
    for a, b, c in _directed(plan, kind, free):
        try:
            yield from _sparse_rows(_hom_terms(first, second, signs, a, b, c, col_of))
        except UndefinedProduct:
            pass


def _leibniz_rows(alg: AlgebraSpec, index: _Index, outer: Sequence[Mapping[int, int]],
                  inner: Sequence[Mapping[int, int]], delta: int | Fraction) -> Iterator[dict[int, int | Fraction]]:
    """X(e_i e_j) - delta (Y(e_i) e_j + e_i Y(e_j)) = 0 as rows, one group of
    ``_leibniz_terms`` per pair of ``_sorted_tuples(alg, 2)`` in its order,
    read from ``index`` through the column maps ``outer`` of X and ``inner``
    of Y; delta enters the rows as an int when it is integral."""
    delta = int_if_integral(delta)
    return chain.from_iterable(_sparse_rows(_leibniz_terms(index, i, j, outer, inner, delta))
                               for i, j in _sorted_tuples(alg, 2))


def _known_block(alg: AlgebraSpec, kind: StructureKind, shift: int) -> Subspace:
    """A subspace K of the kind's solutions in the block of ``shift``, known
    without solving, in End (phi(e_c) -> e_q at column q*n + c) and kept on
    the algebra: the one statement of them, which the solver cuts in front
    of a block and the window's inner report predicts with.

    For hom-lie, hom-cyclic and hom-2nilp, K holds the maps e_c -> z for z in
    the echelon basis ``_Plan.annihilator`` of the right annihilator and c of
    degree deg z - shift (z is homogeneous, as the annihilator is graded):
    every term of those identities has the form (xy)phi(w), which vanishes
    when phi(w) lies in it.  For hom-lie on a lie-flavor algebra K also holds
    the identity at shift 0: its Hom-Jacobi identity is the Jacobi identity
    that ``make_algebra`` validated (``km_window`` certifies each imposed one).
    """
    def build() -> Subspace:
        n, plan = alg.dim, _plan(alg)
        gens = []
        for z in plan.annihilator if kind.tag in _SIGNS else ():
            gens.extend({q * n + c: x for q, x in z.items()} for c in plan.components.get(plan.deg[min(z)] - shift, ()))
        if kind.tag == "hom-lie" and alg.flavor == "lie" and shift == 0:
            gens.append({c * n + c: 1 for c in range(n)})
        return Subspace.from_spanning(gens, n * n)

    return _kept(alg, ("known", kind, shift), build)


def grading_shifts(alg: AlgebraSpec) -> list[int]:
    """Every difference of two degrees of ``alg.grading``, ascending ([0] ungraded)."""
    lo, hi = min(alg.grading or (0,)), max(alg.grading or (0,))
    return list(range(lo - hi, hi - lo + 1))


def _solve_shift_blocks(
    alg: AlgebraSpec,
    kind: StructureKind,
    shifts: Iterable[int],
    kernel: Callable[[RowAccumulator, Iterable[Mapping[int, Fraction]]], Subspace],
) -> Subspace:
    """The kind's solutions in the shift blocks ``shifts``, in End.  Each
    block is solved once per algebra and kept on it under (kind, shift):
    block s is conjugated from a kept block -s when the table has a
    ``_mirror``, and solved by ``_solve_block`` with ``kernel`` otherwise.

    The direct-sum lemma.  Every term of the kind's identity at basis
    vectors of total degree D, for a map of shift s, lies in degree D + s,
    so the solution space is the direct sum of its shift blocks; ungraded,
    the one block is all of End.  The blocks have disjoint columns, and each
    block's rows are reduced in End (``_solve_block``), so a row is zero on
    every other block's pivots: all the rows, sorted by pivot, are the
    reduced basis of the direct sum, with no further elimination.

    The mirror lemma.  Let sigma(e_u) = s_u e_{pi u} be the checked
    ``_mirror``: a bijection that negates degrees, maps every defined
    product of basis vectors to the product of the images and every
    undefined one to an undefined one (on a loop window, x (x) t^i ->
    x (x) t^-i, d -> -d, z -> -z, Kac, *Infinite-dimensional Lie algebras*,
    ch. 7-8).  For phi of shift s, phi' = sigma phi sigma^-1 has shift -s,
    and its entry at (pi q, pi c) is s_q s_c times phi's at (q, c).  Each
    identity ``_solve_block`` compiles, the three hom identities and
    D(xy) - delta (D(x)y + xD(y)), is built from products alone.  Its
    equation at a basis tuple and shift s reads products of basis vectors
    whose factors are tuple members, members of the support of such a
    product, or basis vectors of the degree a member's degree plus s; pi
    maps them onto the products that the equation of the image tuple reads
    at -s, as it maps supports onto supports and degree d + s onto
    -d - s.  So one equation is imposed exactly when the other is, and then
    the form of the image tuple at phi' is sigma of the form at phi, times
    the product of the tuple's signs: for instance
    (e_{pi a} e_{pi b}) phi'(e_{pi c}) = s_a s_b s_c sigma((e_a e_b) phi(e_c))
    and phi'(e_{pi i} e_{pi j}) = s_i s_j sigma(phi(e_i e_j)).  A block's
    solutions are the common kernel of the equations imposed on every
    ordered tuple, which ``_solve_block``'s rows span (``_triples``,
    ``_sorted_tuples``).  Hence phi solves every equation imposed at s
    exactly when phi' solves every one imposed at -s: the invertible map
    phi -> phi' carries the solutions of block s onto those of block -s,
    and ``Subspace.from_spanning`` of the images of a basis is that block's
    reduced basis.
    """
    if kind.delta is not None:
        _require_defined(alg, kind)
    n, kept = alg.dim, _kept(alg, "blocks", dict)
    blocks = []
    for shift in shifts:
        if (kind, shift) not in kept:
            mirror = _mirror(alg) if shift and (kind, -shift) in kept else None
            if mirror is None:
                kept[kind, shift] = _solve_block(alg, kind, shift, kernel)
            else:
                (perm, sign), partner = mirror, kept[kind, -shift]
                images = ({perm[j // n] * n + perm[j % n]: sign[j // n] * sign[j % n] * x for j, x in row.items()}
                          for _, row in partner.rows)
                kept[kind, shift] = Subspace.from_spanning(images, n * n)
        blocks.append(kept[kind, shift])
    if len(blocks) == 1:
        return blocks[0]
    return Subspace(n * n, sorted((pr for block in blocks for pr in block.rows), key=lambda pr: pr[0]))


def _solve_block(
    alg: AlgebraSpec,
    kind: StructureKind,
    shift: int,
    kernel: Callable[[RowAccumulator, Iterable[Mapping[int, Fraction]]], Subspace],
) -> Subspace:
    """The kind's solutions in the block of ``shift``, in End, compiled and
    solved directly: the one place a shift block reaches ``_solve_modulo``,
    modulo ``_known_block`` and with ``kernel``, reading the rows of the
    block's own pass (``_hom_rows``, or ``_leibniz_rows``) through its End
    columns ``_Plan.col_of``: at full rank ``kernel`` stops reading, and the
    pass compiles nothing more.  A block that K fills is K, and is not
    compiled.
    """
    n, plan = alg.dim, _plan(alg)
    col_of, known = [plan.col_of(c, shift) for c in range(n)], _known_block(alg, kind, shift)
    if known.dim == sum(map(len, col_of)):
        return known
    stream = ((lambda free: _leibniz_rows(alg, alg.rows, col_of, col_of, kind.delta)) if kind.delta is not None
              else (lambda free: _hom_rows(plan, kind, col_of, alg.rows, free)))
    return _solve_modulo(known, stream, [col_of], plan.gaps, kernel)


def _sigma(alg: AlgebraSpec) -> tuple[list[int], list[int]] | None:
    """The table's candidate mirror, sigma(e_u) = sign[u] e_perm[u], as
    (perm, sign), found from the grading alone: the k-th basis vector of
    degree i goes to the k-th of degree -i.  None on an ungraded table,
    when two opposite degrees hold different numbers of vectors, or when no
    signs fit.

    With sign[u] = (-1)^x_u, sigma maps e_p e_q = sum c_k e_k to
    sum c_k s_k e_{perm k}, and sigma(e_p) sigma(e_q) has s_p s_q c'_k
    there, c'_k the coefficient of e_{perm k} in e_{perm p} e_{perm q}.  So
    a product-preserving sigma has x_p + x_q + x_k = [c'_k != c_k] over
    GF(2) for every defined product and every k in its support; on a
    commutative or anticommutative table e_q e_p = +-e_p e_q gives the
    equation of e_p e_q, so q >= p suffices.  The equations, each once, are
    reduced as bit masks to rows that hold their pivot and free variables
    only; with the free variables 0, each pivot variable is its row's right
    side.  Any solution will do: the equations are ``_is_mirror``'s
    conditions on the signs, so one solution passes it exactly when every
    one does."""
    if alg.grading is None:
        return None
    components, perm = _plan(alg).components, list(range(alg.dim))
    for d, us in components.items():
        if len(components.get(-d, ())) != len(us):
            return None
        for u, v in zip(us, components[-d]):
            perm[u] = v
    equations, swapped = set(), alg.is_commutative() or alg.is_anticommutative()
    for p, row in enumerate(alg.rows):
        image = alg.rows[perm[p]]
        for q, terms in row.items():
            if terms and not (swapped and q < p):
                pq, mapped = (1 << p) ^ (1 << q), dict(image.get(perm[q]) or ())
                for k, c in terms:
                    equations.add((pq ^ (1 << k), mapped.get(perm[k]) != c))
    pivots: dict[int, tuple[int, bool]] = {}  # pivot bit -> (its row, its right side)
    for mask, odd in equations:
        bits = mask
        while bits:  # the equation's own variables, as no row holds another row's pivot
            bit = bits & -bits
            bits ^= bit
            if bit in pivots:
                mask, odd = mask ^ pivots[bit][0], odd ^ pivots[bit][1]
        if not mask:
            if odd:
                return None
            continue
        low = mask & -mask
        for bit, (other, other_odd) in pivots.items():
            if other & low:
                pivots[bit] = other ^ mask, other_odd ^ odd
        pivots[low] = mask, odd
    return perm, [-1 if pivots.get(1 << u, (0, False))[1] else 1 for u in range(alg.dim)]


def _is_mirror(alg: AlgebraSpec, perm: list[int], sign: list[int]) -> bool:
    """Whether sigma(e_u) = sign[u] e_perm[u] is a bijection that negates
    degrees, sends each defined product e_p e_q to sigma(e_p) sigma(e_q)
    and each undefined one to an undefined one.

    Each row of the index is walked once: its entries map injectively into
    row perm[p], and equal lengths leave that row no other entry, so zero
    products map to zero products too."""
    rows, deg = alg.rows, alg.grading
    if sorted(perm) != list(range(alg.dim)) or any(deg[perm[u]] != -deg[u] for u in range(alg.dim)):
        return False
    for p, row in enumerate(rows):
        image = rows[perm[p]]
        if len(image) != len(row):
            return False
        for q, terms in row.items():
            mapped = image.get(perm[q], ())
            if terms is None or mapped is None:
                if terms is not mapped:
                    return False
            elif dict(mapped) != {perm[k]: sign[p] * sign[q] * sign[k] * c for k, c in terms}:
                return False
    return True


def _mirror(alg: AlgebraSpec) -> tuple[list[int], list[int]] | None:
    """``_sigma`` once it has passed ``_is_mirror``, found once per algebra
    and kept on it; None when the table has no such mirror."""
    return _kept(alg, "mirror", lambda: sigma if (sigma := _sigma(alg)) and _is_mirror(alg, *sigma) else None)


def _solve_modulo(
    known: Subspace,
    stream: Callable[[Callable[[], tuple[int, int | None]]], Iterable[Mapping[int, Fraction]]],
    col_maps: Iterable[Sequence[dict[int, int]]],
    gaps: Container[int],
    kernel: Callable[[RowAccumulator, Iterable[Mapping[int, Fraction]]], Subspace],
) -> Subspace:
    """Kernel S of the rows ``stream(free)`` compiles, given a subspace K of
    S known without solving, in K's ambient space.

    The kernel.  The system's unknowns are the columns of ``col_maps``
    (col_of[c][q] for each of them), and K and every row lie in them.
    ``_solve_modulo`` owns the system's ``RowAccumulator`` over those
    columns, ascending, and hands it to ``kernel`` (``nullspace_of_rows``,
    which adds the rows to it).  ``free()`` reads it while the rows are
    compiled: the rank so far, and the source c of its lowest unknown that
    is not a pivot (None when every one is).  A column never stops being a
    pivot, so the lowest free column is looked for from the last one found.
    ``_hom_rows`` directs its stream by it; a stream that ignores it is
    read in its own order.

    The cut.  One unit row x_p = 0 is put in front of the rows for each
    pivot column p of K's echelon basis.  W = {x : x_p = 0 for every such
    p}, in the unknowns' span, is a complement of K there (K's echelon
    basis is the identity on its pivot columns, so K meet W = 0 and dim W
    is the unknowns' count less dim K).  K lies inside S, so every s in S
    splits as k + w with w = s - k in S meet W:
    S = K + (S meet W) as a direct sum, and the kernel of the cut system is
    exactly S meet W.  The result K + (S meet W) is therefore the same
    canonical subspace S as the kernel of the uncut system.  Once the cut
    system has full rank, S meet W = 0 and ``kernel`` stops reading rows.
    Row order does not change a kernel, so this holds for the rows in
    whatever order ``stream`` makes them (the row-order lemma in
    ``_hom_rows``).

    The unit-row lemma.  It is stated per stream, in the order the stream
    is produced, whatever decided that order.  The rows are compiled on
    demand through the column maps ``col_maps``: an evaluation walks x_k,
    k = col_of[c][q], with the image of e_c and reads e_p e_q with it,
    which may raise only for q in ``gaps`` (``_Plan.gaps`` for a block of
    the algebra's own index; none on a complete table or through a form's
    pairing).  A row of one entry says x_k = 0.  When q is closed (not in
    ``gaps``), q is deleted from col_of[c], so no later evaluation walks
    x_k, and every evaluation raises as before (the Leibniz rows, which
    also read e_q e_j, are solved on complete tables only): the stream gets
    rows for the same equations.  Every later row reaches ``kernel`` after
    the unit row, and on x_k = 0 it agrees with the same row without its k
    entry (a row that becomes zero is dropped).  So every prefix of the
    stream has the span and rank it had: the system reaches full rank at
    the same evaluation, with the same kernel.  The span fixes the pivot
    columns, so ``free()`` reads the same at every point, and a directed
    stream makes the same picks.  In the cut system x_p = 0 holds, so the
    lemma lets the cut rows retire their columns too.

    ``kernel`` is ``nullspace_of_rows`` as the caller's module names it, so
    that perfbench's tracer charges the rows to the compiler that made them.
    """
    source_of, closed = {}, {}  # column k's c; k's col_of[c] and q, for a closed q
    for col_map in col_maps:
        for c, image in enumerate(col_map):
            for q, k in image.items():
                source_of[k] = c
                if q not in gaps:
                    closed[k] = image, q
    columns = sorted(source_of)
    acc, low = RowAccumulator(known.ambient, columns), 0
    source = [source_of[k] for k in columns] + [None]  # the c of each unknown, by place; None past the last

    free_col = acc.free_col

    def free() -> tuple[int, int | None]:
        nonlocal low
        low = free_col(low)
        return acc.rank, source[low]

    def retiring(stream: Iterable[Mapping[int, Fraction]]) -> Iterator[Mapping[int, Fraction]]:
        for row in stream:
            if len(row) == 1 and (k := next(iter(row))) in closed:  # x_k = 0: the unit-row lemma
                image, q = closed.pop(k)
                del image[q]
            yield row

    rest = kernel(acc, retiring(chain(({p: 1} for p in known.pivot_cols()), stream(free))))
    if not rest.dim:
        return known
    if not known.dim:
        return rest
    return known.sum(rest)


def solve_structures(alg: AlgebraSpec, kind: StructureKind) -> HomSolution:
    """Exact space of maps satisfying the kind's defining identity, solved
    over every shift block of ``alg.grading`` (``_solve_shift_blocks``) once
    per algebra and kept on it."""
    return _kept(
        alg,
        ("structures", kind),
        lambda: HomSolution(alg, kind, _solve_shift_blocks(alg, kind, grading_shifts(alg), nullspace_of_rows)),
    )


def structure_residual(
    alg: AlgebraSpec, phi: Matrix, kind: StructureKind, triple: tuple[int, int, int], shift: int | None = None
) -> Vector | None:
    """Defining-identity defect of ``phi`` at a basis triple: the algebra's
    term builders (``_hom_terms``, ``_leibniz_terms``) evaluated at phi,
    with no row compiled or eliminated (used to re-verify solver output).
    A delta kind reads the pair (a, b) of the triple only.  Without a
    ``shift`` every product must be defined.  With one, only the part of
    phi sending degree d to d + shift is read, over the shift block's
    columns phi(e_z) -> e_q for every q of degree deg z + shift, as
    ``_hom_rows`` reads them, and the result is None when evaluating the
    equation reads an undefined product (an equation a degree window does
    not impose; whether it is imposed does not depend on phi).
    """
    n = alg.dim
    if phi.shape != (n, n):
        raise ValueError("map shape does not match the algebra")
    if shift is None:
        _require_defined(alg, "a residual without a degree shift")
    plan = _plan(alg)
    a, b, c = triple
    cols = phi.sparse_cols
    try:
        # phi(e_a), phi(e_b), and phi(e_c) or phi(ab)
        read = (a, b, c) if kind.delta is None else (a, b, *(k for k, _ in alg.product_on_basis(a, b)))
        # phi(e_z) -> e_q at column q*n + z: for phi's entries without a shift, the block's columns with one
        col_of = {z: {q: q * n + z for q in cols[z]} if shift is None else plan.col_of(z, shift) for z in read}
        x = {col_of[z][q]: v for z in read for q, v in cols[z].items() if q in col_of[z]}
        terms = (_hom_terms(alg.rows, alg.rows, _SIGNS[kind.tag], a, b, c, col_of) if kind.delta is None
                 else _leibniz_terms(alg.rows, a, b, col_of, col_of, kind.delta))
        return dense_vector(_evaluate(terms, x), n)
    except UndefinedProduct:
        return None


# -- bilinear solvers --------------------------------------------------------


def _symmetry_rows(n: int, sign: int) -> Iterator[dict[int, Fraction]]:
    """f(x,y) - sign*f(y,x) = 0."""
    for i in range(n):
        if sign == -1:
            yield {i * n + i: 1}
        for j in range(i + 1, n):
            yield {i * n + j: 1, j * n + i: -sign}


def coboundary_space(alg: AlgebraSpec) -> Subspace:
    """Span of the forms (x, y) -> f(xy) for functionals f."""
    n = alg.dim
    gens: list[dict[int, Fraction]] = [{} for _ in range(n)]  # gens[m][(i, j)]: e_m in e_i e_j
    for i, row in enumerate(alg.rows):
        for j in row:
            for m, c in alg.product_on_basis(i, j):
                gens[m][i * n + j] = c
    return Subspace.from_spanning(gens, n * n)


def solve_bilinear(alg: AlgebraSpec, kind: str) -> Subspace:
    """Exact space of bilinear forms of the requested kind, solved once per
    algebra and kept on it.

    The kinds but coboundary compile ``_hom_rows`` over all n^2 columns,
    f(e_z) -> e_q at column q*n + z, with e_p e_q read from the identity
    pairing (``_pairing``), so f is a form, plus the symmetry rows of the
    skew and sym kinds: the cocycle equation on hom-lie's triples, b-space's
    B(x, y, z) = f(xy, z) - f(zx, y) on hom-cyclic's, and sym-invariant as
    b-space with the symmetry rows.

    Lemma.  The symmetric forms with B = 0 at every basis triple are the
    symmetric invariant ones.  Proof.  For a symmetric f,
    f(ab, c) - f(a, bc) = f(ab, c) - f(bc, a) = -B(b, c, a).  So at a
    symmetric f the invariance defect at (a, b, c) is minus B at
    (b, c, a), and the one vanishes at every basis triple exactly when the
    other does.  By ``_triples`` the rows of hom-cyclic's kept triples span
    B's rows at every ordered triple, so b-space's rows with the symmetry
    rows cut out the same space as the invariance rows at every ordered
    triple with them.
    """
    _require_lie(alg, "solve_bilinear")
    if kind not in BILINEAR_KINDS:
        raise ValueError(f"unknown bilinear kind {kind!r}")
    _require_defined(alg, kind)
    n = alg.dim

    def solve() -> Subspace:
        if kind == "coboundary":
            return coboundary_space(alg)
        col_of = [{q: q * n + z for q in range(n)} for z in range(n)]

        def stream(free):
            rows = _hom_rows(_plan(alg), HOM_LIE if kind.endswith("-cocycle") else HOM_CYCLIC, col_of,
                             _pairing([{p: 1} for p in range(n)]), free)
            if kind.startswith(("skew-", "sym-")):
                rows = chain(rows, _symmetry_rows(n, -1 if kind == "skew-cocycle" else 1))
            return rows

        return _solve_modulo(Subspace.zero(n * n), stream, [col_of], (), nullspace_of_rows)

    return _kept(alg, ("bilinear", kind), solve)


# -- quasiderivations and the cocycle/quasiderivation sequence ---------------


class QDerSolution(NamedTuple):
    """Pairs (D, F) with D(xy) = y.F(x) - x.F(y); coordinates are the
    row-major D matrix followed by the row-major F matrix."""

    algebra: AlgebraSpec
    module: str
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def d_component(self) -> Subspace:
        n2 = self.algebra.dim ** 2
        return Subspace.from_spanning(({c: x for c, x in r.items() if c < n2} for _, r in self.space.rows), n2)


def _coadjoint_index(alg: AlgebraSpec) -> list[dict[int, tuple[tuple[int, int | Fraction], ...]]]:
    """The product index of g + g*, g's semidirect product with its
    coadjoint module, e*_p at index n + p: e_i e_q from ``alg.rows``, and
    e_i e*_p = sum_m c_mi^p e*_m = -e*_p e_i for e_m e_i = sum_p c_mi^p e_p."""
    n = alg.dim
    index: list[dict] = [dict(row) for row in alg.rows] + [{} for _ in range(n)]
    for m, row in enumerate(alg.rows):
        for i, mi in row.items():
            for p, c in mi:
                index[i].setdefault(n + p, []).append((n + m, c))
                index[n + p].setdefault(i, []).append((n + m, -c))
    return [{q: tuple(terms) for q, terms in sorted(row.items())} for row in index]


def _qder_rows(alg: AlgebraSpec, module: str) -> tuple[Iterator[dict[int, Fraction]], list[list[dict[int, int]]]]:
    """D(e_i e_j) - F(e_i) e_j - e_i F(e_j) = 0, ``_leibniz_rows`` with
    delta 1 on g's pairs i < j (g and g + g* are anticommutative): over g's
    own index for the adjoint module, over ``_coadjoint_index`` for the
    coadjoint one.  F's columns are D's shifted by n^2.  Returns the rows
    and the column maps, D's and F's, they are compiled through."""
    n = alg.dim
    if module == "adjoint":  # D(e_c) -> e_q at column q*n + c
        index, d_cols = alg.rows, [{q: q * n + c for q in range(n)} for c in range(n)]
    else:  # D(e_c) -> e*_m, at index n + m, at column c*n + m
        index, d_cols = _coadjoint_index(alg), [{n + m: c * n + m for m in range(n)} for c in range(n)]
    f_cols = [{q: n * n + col for q, col in image.items()} for image in d_cols]
    return _leibniz_rows(alg, index, d_cols, f_cols, 1), [d_cols, f_cols]


def solve_qder(alg: AlgebraSpec, module: str = "adjoint") -> QDerSolution:
    """Quasiderivation pairs into the adjoint or coadjoint module."""
    _require_lie(alg, "solve_qder")
    if module not in ("adjoint", "coadjoint"):
        raise ValueError(f"unknown module {module!r}")
    _require_defined(alg, f"the {module} quasiderivations")
    rows, col_maps = _qder_rows(alg, module)
    space = _solve_modulo(Subspace.zero(2 * alg.dim ** 2), lambda free: rows, col_maps, (), nullspace_of_rows)
    return QDerSolution(alg, module, space)


class ExactnessReport(NamedTuple):
    algebra: AlgebraSpec
    u_image: Subspace
    v_kernel: Subspace
    u_injective: bool

    @property
    def exact(self) -> bool:
        return self.u_injective and self.u_image == self.v_kernel


def seq_uv(alg: AlgebraSpec) -> ExactnessReport:
    """Exactness data for cocycles -> quasiderivation pairs -> forms.

    u sends a cocycle f to the pair (D, F) with D(x)(y) = f(x,y) and
    F(x)(y) = -f(y,x); v sends (D, F) to the form D(x)(y) + F(y)(x).
    """
    _require_lie(alg, "seq_uv")
    _require_defined(alg, "seq_uv")
    n = alg.dim
    n2 = n * n
    z2 = solve_bilinear(alg, "asym-cocycle")
    # u(f) at D[i][j] = f[i][j] and at F[j][i] = -f[i][j]
    u_image = Subspace.from_spanning(
        ({**f, **{n2 + (c % n) * n + c // n: -x for c, x in f.items()}} for _, f in z2.rows), 2 * n2
    )
    v_rows = ({i * n + j: 1, n2 + j * n + i: 1} for i in range(n) for j in range(n))  # D[i][j] + F[j][i] = 0
    rows, col_maps = _qder_rows(alg, "coadjoint")
    v_kernel = _solve_modulo(Subspace.zero(2 * n2), lambda free: chain(rows, v_rows), col_maps, (), nullspace_of_rows)
    return ExactnessReport(alg, u_image, v_kernel, u_injective=u_image.dim == z2.dim)


# -- derived forms and membership checks -------------------------------------


def f_t(alg: AlgebraSpec, form: BilinearForm, phi: Matrix, t: Sequence[Fraction]) -> BilinearForm:
    """The form (x, y) -> <phi(y), [x,t]> built from an invariant form and a
    solved structure; lands in the asymmetric-cocycle space by construction,
    and membership is re-checked here.  Its matrix is R^T F phi, where R's
    columns are the brackets [e_i, t] and F = F^T is the form's matrix.
    The form's check runs once per (algebra, form) and is kept on the algebra."""
    _require_lie(alg, "f_t")
    if not _kept(alg, ("invariant form", form), lambda: form.is_symmetric() and form.is_invariant(alg)):
        raise ValueError("form must be symmetric and invariant")
    if not solve_structures(alg, HOM_LIE).contains_map(phi):
        raise ValueError("phi is not a Hom-Lie structure on this algebra")
    n = alg.dim
    if len(t) != n:
        raise ValueError("vector dimension mismatch")
    out = BilinearForm(alg.right_mul_matrix([as_scalar(a) for a in t]).transpose() @ form.matrix @ phi)
    if not solve_bilinear(alg, "asym-cocycle").contains(out.matrix.sparse_flatten()):
        raise AssertionError("constructed form violates the cocycle equation")  # pragma: no cover
    return out


class MultiplicativityWitness(NamedTuple):
    pair: tuple[int, int]
    lhs: Vector
    rhs: Vector


def is_multiplicative(alg: AlgebraSpec, phi: Matrix) -> bool | MultiplicativityWitness:
    """phi(xy) == phi(x)phi(y) on basis pairs; True or a witness pair.

    On a degree window a pair is skipped when evaluating it, its product or
    the product of its images, reads an undefined (None) basis product.
    """
    n = alg.dim
    if phi.shape != (n, n):
        raise ValueError("map shape does not match the algebra")
    cols = phi.sparse_cols  # phi(e_c)
    for i in range(n):
        for j in range(n):
            try:
                lhs = sparse_lincomb(*((c, cols[k]) for k, c in alg.product_on_basis(i, j)))
                rhs = sparse_product(alg.rows, cols[i], cols[j])
            except UndefinedProduct:
                continue
            if lhs != rhs:
                return MultiplicativityWitness((i, j), dense_vector(lhs, n), dense_vector(rhs, n))
    return True


# -- central extensions: decomposed route ------------------------------------


def central_ext_homlie_decomposed(l: AlgebraSpec, xi) -> HomSolution:
    """Solution space on the central extension, assembled blockwise.

    phi(x) = psi(x) + lambda(x) z, phi(z) = s + mu z, where psi solves the
    base identity together with the twisted-cocycle compatibility condition,
    lambda and mu are free, and s is annihilated by the derived subalgebra
    both under the bracket and under the cocycle.  Must coincide with the
    direct solve on the extension (tested as an oracle equivalence).
    """
    from .constructions import Cocycle2, central_extension

    if not isinstance(xi, Cocycle2):
        raise TypeError("xi must be a verified Cocycle2")
    _require_lie(l, "central_ext_homlie_decomposed")
    n = l.dim
    ext = central_extension(l, xi)

    hl = solve_structures(l, HOM_LIE)

    # xi([x,y], psi(t)) + xi([t,x], psi(y)) + xi([y,t], psi(x)) = 0, psi(e_t) -> e_q at column q*n + t
    col_of = [{q: q * n + t for q in range(n)} for t in range(n)]
    pairing = _pairing(xi.form.matrix.sparse_rows)
    compat = _solve_modulo(Subspace.zero(n * n), lambda free: _hom_rows(_plan(l), HOM_LIE, col_of, pairing, free),
                           [col_of], (), nullspace_of_rows)
    psi_space = hl.space.intersect(compat)

    _, derived, ann_derived = structural_subspaces(l)
    cocycle_rows = ({q: xi.form(w, {q: 1}) for q in range(n)} for _, w in derived.rows)  # xi(w, .)
    s_space = ann_derived.intersect(nullspace_of_rows(n, cocycle_rows))

    m = n + 1
    gens: list[dict[int, Fraction]] = []
    for _, p in psi_space.rows:  # psi in the top-left block
        gens.append({(c // n) * m + c % n: x for c, x in p.items()})
    for j in range(n + 1):  # lambda: row z; then mu
        gens.append({n * m + j: 1})
    for _, s in s_space.rows:  # phi(z) = s
        gens.append({i * m + n: v for i, v in s.items()})
    return HomSolution(ext, HOM_LIE, Subspace.from_spanning(gens, m * m))


# -- tensor-product span assemblies -------------------------------------------


class SpanAssembly(NamedTuple):
    """A sum of tensor-product blocks with dimension bookkeeping."""

    space: Subspace
    summands: tuple[tuple[str, int], ...]

    def to_json(self) -> dict:
        return {
            "dim": self.space.dim,
            "summands": [{"name": n, "dim": d} for n, d in self.summands],
        }


def _tensor_block(a_maps: Sequence[Matrix], b_maps: Sequence[Matrix]) -> list[SparseVector]:
    return [pa.kron(pb).sparse_flatten() for pa in a_maps for pb in b_maps]


def multiplication_operators(a: AlgebraSpec) -> list[Matrix]:
    """Left-multiplication operators by the basis elements."""
    return [a.left_mul_matrix(a.basis_vector(i)) for i in range(a.dim)]


def end_basis(n: int) -> list[Matrix]:
    return [Matrix.from_sparse(n, n, {(i, j): 1}) for i in range(n) for j in range(n)]


def _assemble(blocks: Sequence[tuple[str, list[SparseVector]]], ambient: int) -> SpanAssembly:
    spaces = [(name, Subspace.from_spanning(gens, ambient)) for name, gens in blocks]
    total = Subspace.from_spanning((r for _, s in spaces for _, r in s.rows), ambient)
    return SpanAssembly(total, tuple((name, s.dim) for name, s in spaces))


def current_formula_span(l: AlgebraSpec, a: AlgebraSpec) -> SpanAssembly:
    """Right-hand side of the current-algebra description of the solution
    space on a (x) l: structures of l tensored with multiplications of a,
    plus maps killed by the derived subalgebra tensored with all of End(a).
    """
    hl = solve_structures(l, HOM_LIE).basis_maps()
    h2n = solve_structures(l, HOM_2NILP).basis_maps()
    mult_a = multiplication_operators(a)
    blocks = [
        ("HomLie(l)(x)mult(a)", _tensor_block(mult_a, hl)),
        ("Hom2Nilp(l)(x)End(a)", _tensor_block(end_basis(a.dim), h2n)),
    ]
    return _assemble(blocks, (l.dim * a.dim) ** 2)


def tensor_formula_span(a: AlgebraSpec, b: AlgebraSpec) -> SpanAssembly:
    """Four-block span for the tensor bracket of a commutative and an
    anticommutative factor (first factor major in the tensor basis)."""
    hl_a = solve_structures(a, HOM_LIE).basis_maps()
    hc_a = solve_structures(a, HOM_CYCLIC).basis_maps()
    h2_a = solve_structures(a, HOM_2NILP).basis_maps()
    hl_b = solve_structures(b, HOM_LIE).basis_maps()
    hc_b = solve_structures(b, HOM_CYCLIC).basis_maps()
    h2_b = solve_structures(b, HOM_2NILP).basis_maps()
    blocks = [
        ("HomLie(a)(x)HomCycl(b)", _tensor_block(hl_a, hc_b)),
        ("Hom2Nilp(a)(x)End(b)", _tensor_block(h2_a, end_basis(b.dim))),
        ("HomCycl(a)(x)HomLie(b)", _tensor_block(hc_a, hl_b)),
        ("End(a)(x)Hom2Nilp(b)", _tensor_block(end_basis(a.dim), h2_b)),
    ]
    return _assemble(blocks, (a.dim * b.dim) ** 2)


"""Composite algebras: tensor brackets, extensions, and degree windows.

The constructors here produce :class:`AlgebraSpec` instances: validated
tensor products, semidirect and central extensions and cyclic twisted
currents, and the degree-truncated loop model, whose products leaving the
window are marked undefined (None) rather than wrongly set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (AlgebraSpec, BilinearForm, LawViolation, _evaluate, _hom_terms, _jacobi_triples, _leibniz_pairs,
                      _leibniz_terms, _lie_by_theorem, _pairing, _require_lie, make_algebra, sparse_product)
from .linalg import Matrix, Subspace, Vector, dense_vector, int_if_integral


# ---------------------------------------------------------------------------
# 2-cocycles and central extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle2:
    """A skew-symmetric 2-cocycle on a Lie algebra, verified on construction:
    xi is skew and xi(xy, z) + xi(zx, y) + xi(yz, x) = 0 on the basis
    triples i < j < k (skewness and anticommutativity give the rest)."""

    algebra: AlgebraSpec
    form: BilinearForm

    def __post_init__(self):
        alg, matrix = self.algebra, self.form.matrix
        _require_lie(alg, "cocycle2")
        if matrix.shape != (alg.dim, alg.dim):
            raise ValueError("cocycle matrix shape mismatch")
        if not self.form.is_skew():
            raise LawViolation("cocycle-skewness", (), ())
        n = alg.dim
        pairing, f = _pairing([{p: 1} for p in range(n)]), matrix.sparse_flatten()
        cols = [{q: q * n + z for q in range(n)} for z in range(n)]
        for i, j, k in _jacobi_triples(alg):
            val = _evaluate(_hom_terms(alg.rows, pairing, (1, 1, 1), i, j, k, cols), f)
            if val:
                raise LawViolation("cocycle-equation", (i, j, k), (Fraction(val[0]),))


def cocycle2(alg: AlgebraSpec, matrix: Matrix) -> Cocycle2:
    """Wrap and verify a skew 2-cocycle given by its Gram matrix."""
    return Cocycle2(alg, BilinearForm(matrix))


def central_extension(l: AlgebraSpec, xi: Cocycle2) -> AlgebraSpec:
    """One-dimensional central extension with bracket [x,y] + xi(x,y) z,
    certified Lie by theorem.

    Proof.  l is Lie, and xi is a skew 2-cocycle on l's table (``Cocycle2``
    verifies it, and l's table is checked to be that table).  The bracket
    is anticommutative because [x, y] and xi are.  Brackets with z vanish,
    so a Jacobi sum over x, y, w in l is the Jacobi sum of l, which is 0,
    plus (xi([x,y], w) + xi([w,x], y) + xi([y,w], x)) z, which is 0 by the
    cocycle equation; a Jacobi sum with z in it is 0 term by term.
    """
    _require_lie(l, "central_extension")
    if xi.algebra is not l and xi.algebra.rows != l.rows:
        raise ValueError("cocycle was verified on a different algebra")
    n = l.dim
    table: dict = {(i, j): list(l.product_on_basis(i, j)) for i, row in enumerate(l.rows) for j in row}
    for i, row in enumerate(xi.form.matrix.sparse_rows):
        for j, val in row.items():
            table.setdefault((i, j), []).append((n, val))
    return _lie_by_theorem(n + 1, table, l.basis_names + ("z",))


# ---------------------------------------------------------------------------
# tensor products of a commutative and an anticommutative factor
# ---------------------------------------------------------------------------


def tensor_index(a: AlgebraSpec, b: AlgebraSpec, i: int, j: int) -> int:
    """Position of a_i (x) b_j in the tensor basis (first factor major)."""
    return i * b.dim + j


def tensor_lie(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Bracket [u (x) x, v (x) y] = uv (x) xy on a (x) b.

    Requires a commutative and b anticommutative (validated flavors).  The
    result is always anticommutative; it is marked ``lie`` when the Jacobi
    identity holds, and ``generic-anticommutative`` with a recorded witness
    triple otherwise.

    With a commutative-associative and b Lie the result is certified Lie by
    theorem.  Proof.  uv (x) xy = -(vu (x) yx) because uv = vu and
    xy = -yx.  A Jacobi sum of u (x) x, v (x) y, w (x) s is
    (uv)w (x) (xy)s + (wu)v (x) (sx)y + (vw)u (x) (ys)x, and commutativity
    and associativity make the three factors in a equal to uvw, so the sum
    is uvw (x) J(x, y, s) = 0.  Otherwise Jacobi can fail, and the full scan
    finds the witness.
    """
    if not a.is_commutative():
        raise ValueError("first tensor factor must have a commutative flavor")
    if not b.is_anticommutative():
        raise ValueError("second tensor factor must have an anticommutative flavor")
    dim = a.dim * b.dim
    table: dict = {}
    a_products, b_products = ([(i, j, x.product_on_basis(i, j)) for i, row in enumerate(x.rows) for j in row]
                              for x in (a, b))
    for i1, i2, a_terms in a_products:  # an entry of the index is never empty
        for j1, j2, b_terms in b_products:
            table[(tensor_index(a, b, i1, j1), tensor_index(a, b, i2, j2))] = [
                (tensor_index(a, b, k1, k2), c1 * c2) for k1, c1 in a_terms for k2, c2 in b_terms]
    names = tuple(
        f"{an}(x){bn}" for an in a.basis_names for bn in b.basis_names
    )
    if a.flavor == "commutative-associative" and b.flavor == "lie":
        return _lie_by_theorem(dim, table, names)
    try:
        return make_algebra(dim, table, basis_names=names, flavor="lie")
    except LawViolation as e:
        if e.law != "jacobi":
            raise
        return make_algebra(
            dim, table, basis_names=names, flavor="generic-anticommutative", jacobi_witness=e.witness
        )


def derivation_defect(a: AlgebraSpec, d: Matrix) -> tuple[tuple[int, int], Vector] | None:
    """First basis pair where d(xy) != d(x)y + x d(y), or None: the first
    of ``_leibniz_pairs`` where ``_leibniz_terms`` (delta 1) is nonzero at d."""
    n = a.dim
    if d.shape != (n, n):
        raise ValueError("map shape does not match the algebra")
    cols = [{q: q * n + c for q in col} for c, col in enumerate(d.sparse_cols)]  # d(e_c) -> e_q, nonzero only
    flat = d.sparse_flatten()
    for i, j in _leibniz_pairs(a):
        defect = _evaluate(_leibniz_terms(a.rows, i, j, cols, cols, 1), flat)
        if defect:
            return (i, j), dense_vector(defect, n)
    return None


def semidirect_derivation(l: AlgebraSpec, a: AlgebraSpec, d: Matrix) -> AlgebraSpec:
    """(l (x) a) extended by one generator acting as id (x) d.

    ``d`` must be a derivation of the commutative-associative factor ``a``
    (Leibniz rule verified on all basis pairs); the extra generator D obeys
    [D, x (x) f] = x (x) d(f).  The result is certified Lie by theorem.

    Proof.  ``tensor_lie`` certifies a (x) l Lie, as a is
    commutative-associative and l is Lie.  The map d (x) id sends u (x) x to
    d(u) (x) x, and (d (x) id)(uv (x) [x, y]) = (d(u)v + u d(v)) (x) [x, y]
    = [d(u) (x) x, v (x) y] + [u (x) x, d(v) (x) y], because d is a
    derivation of a.  So d (x) id is a derivation of a (x) l, and by the
    proof in ``adjoin_map`` the table with D adjoined is Lie.
    """
    _require_lie(l, "semidirect_derivation")
    if a.flavor != "commutative-associative":
        raise ValueError("second factor must be commutative-associative")
    defect = derivation_defect(a, d)
    if defect is not None:
        pair, residual = defect
        raise LawViolation("leibniz", pair, residual)
    tensor = tensor_lie(a, l)
    return _lie_by_theorem(tensor.dim + 1, *_adjoined_table(tensor, d.kron(Matrix.identity(l.dim))))


def _adjoined_table(l: AlgebraSpec, d: Matrix) -> tuple[dict, tuple[str, ...]]:
    """The table and basis names of l + K.D with [D, x] = d(x) = -[x, D]."""
    n = l.dim
    table: dict = {(i, j): list(l.product_on_basis(i, j)) for i, row in enumerate(l.rows) for j in row}
    for i, col in enumerate(d.sparse_cols):  # d(e_i)
        if col:
            table[(n, i)] = list(col.items())
            table[(i, n)] = [(k, -c) for k, c in col.items()]
    return table, l.basis_names + ("D",)


def adjoin_map(l: AlgebraSpec, d: Matrix) -> AlgebraSpec:
    """Anticommutative extension l + K.D with [D, x] = d(x).

    Lie when the Jacobi identity survives (d a derivation), otherwise
    generic-anticommutative; used to embed delta-derivations as structures
    on a one-generator extension.

    ``derivation_defect`` decides which on the pairs i < j of l, and
    the Lie result is certified by theorem.  Proof.  The table is
    anticommutative, as l's is and [x, D] = -d(x) is written so.  A Jacobi
    sum over three elements of l is 0, as l is Lie, and one with D twice is
    0 by anticommutativity.  With D once, [[D, x], y] + [[y, D], x] +
    [[x, y], D] = d(x)y + x d(y) - d(xy), minus the Leibniz defect of d at
    (x, y).  So Jacobi holds exactly when d is a derivation.
    """
    _require_lie(l, "adjoin_map")
    defect = derivation_defect(l, d)  # raises on a map of the wrong shape
    table, names = _adjoined_table(l, d)
    if defect is None:
        return _lie_by_theorem(l.dim + 1, table, names)
    return make_algebra(l.dim + 1, table, basis_names=names, flavor="generic-anticommutative")


# ---------------------------------------------------------------------------
# twisted cyclic currents
# ---------------------------------------------------------------------------


def check_cyclic_grading(g: AlgebraSpec, grading: Sequence[Subspace]) -> dict[tuple[int, int, int, int], tuple]:
    """Components must direct-sum to g with [g_i, g_j] inside g_{i+j mod n}.  Returns the
    constants found: at (i, a, j, b) the coordinates (s, c) of (row a of g_i)(row b of g_j)
    in the echelon basis of g_{i+j mod n}, integral c as ints."""
    n = len(grading)
    if n < 1:
        raise ValueError("grading needs at least one component")
    total = 0
    for s in grading:
        if s.ambient != g.dim:
            raise ValueError("grading component has wrong ambient dimension")
        total += s.dim
    if total != g.dim:
        raise LawViolation("grading-direct-sum", (total, g.dim), ())
    stacked = Subspace.from_spanning((r for s in grading for _, r in s.rows), g.dim)
    if stacked.dim != g.dim:
        raise LawViolation("grading-direct-sum", (stacked.dim, g.dim), ())
    constants = {}
    for i, si in enumerate(grading):
        for j, sj in enumerate(grading):
            target = grading[(i + j) % n]
            for a, (_, u) in enumerate(si.rows):
                for b, (_, v) in enumerate(sj.rows):
                    w = sparse_product(g.rows, u, v)
                    coords = target.coords(w)
                    if coords is None:
                        raise LawViolation("grading-compatibility", (i, j), dense_vector(w, g.dim))
                    constants[(i, a, j, b)] = tuple((s, int_if_integral(c)) for s, c in enumerate(coords) if c)
    return constants


def twisted_cyclic(g: AlgebraSpec, grading: Sequence[Subspace], m: int) -> AlgebraSpec:
    """Span of g_{i mod n} (x) t^i, 0 <= i < m, inside g (x) K[t]/(t^m - 1),
    certified Lie by theorem.

    Proof.  g is Lie and K[t]/(t^m - 1) commutative-associative, so their
    current algebra is Lie (see ``tensor_lie``).  The grading is checked:
    the components direct-sum to g and [g_i, g_j] lies in g_{i+j mod n}.
    As n divides m, (i + j) mod m is i + j mod n, so the span is closed
    under the bracket, a subalgebra.  Its basis is the echelon basis of
    g_{i mod n} times t^i, and the table holds the coordinates of the
    brackets in that basis, so it is the bracket of a Lie algebra.
    """
    _require_lie(g, "twisted_cyclic")
    n = len(grading)
    if m % n:
        raise ValueError("m must be a multiple of the grading order")
    constants = check_cyclic_grading(g, grading)
    # basis: for each degree i, the echelon basis of g_{i mod n}, labelled
    # (degree, index inside the component)
    labels = [(deg, s) for deg in range(m) for s in range(grading[deg % n].dim)]
    index = {lab: pos for pos, lab in enumerate(labels)}
    table: dict = {}
    for p1, (d1, s1) in enumerate(labels):
        for p2, (d2, s2) in enumerate(labels):
            deg = (d1 + d2) % m
            entry = [(index[(deg, s)], c) for s, c in constants[(d1 % n, s1, d2 % n, s2)]]
            if entry:
                table[(p1, p2)] = entry
    names = tuple(f"g{d % n}[{s}](x)t^{d}" for d, s in labels)
    return _lie_by_theorem(len(labels), table, names)


# ---------------------------------------------------------------------------
# degree-windowed loop model
# ---------------------------------------------------------------------------


def km_window(
    g: AlgebraSpec,
    invariant_form: BilinearForm,
    n_window: int,
    twist: tuple[Sequence[Subspace], int] | None = None,
) -> AlgebraSpec:
    """Window model of the loop algebra of g with Euler element and center.

    Loop vectors x (x) t^i for |i| <= N, plus d with [d, x (x) t^i] =
    i * x (x) t^i and central z; loop brackets are defined when the degrees
    stay inside the window and carry the residue-pairing central term
    i * delta_{i+j,0} <x,y> z.  A twist restricts degree-i loop vectors to
    the grading component i mod n.

    The product index holds both orders of every bracket, integral
    constants as ints as ``make_algebra`` stores them, and None for a pair
    whose degrees leave the window; ``grading`` is the loop degree (d, z: 0).  N
    is read back as max |grading|; only ``window.beta_map`` and
    ``serialize.partial_to_json`` read d and z, by their basis names.

    The result is certified ``flavor="lie"``.  Every defined product is the
    bracket of the affine algebra L(g) + Kz + Kd (of its twisted subalgebra
    under a twist): the loop brackets with their residue term, the action
    of d, and z central.  That algebra is Lie, because g is validated as
    Lie, the form is validated symmetric and invariant (so the residue term
    is a 2-cocycle), d acts as a derivation, and a twist is validated as a
    grading.  An equation the row compiler imposes reads only defined
    products, so for the identity map it is a coordinate of the Jacobi
    identity of that algebra, and holds.
    """
    _require_lie(g, "km_window")
    if n_window < 2:
        raise ValueError("window must be at least 2")
    if not invariant_form.is_symmetric() or not invariant_form.is_invariant(g):
        raise ValueError("form must be symmetric and invariant")
    if twist is not None:
        grading, n_twist = twist
        if len(grading) != n_twist:
            raise ValueError("twist grading must have one component per residue")
    else:
        grading, n_twist = [Subspace.full(g.dim)], 1
    constants = check_cyclic_grading(g, grading)
    if not (grading[n_window % n_twist].dim or grading[-n_window % n_twist].dim):
        raise ValueError("degrees -N and N of the window are empty, so N cannot be read back from it")

    names: list[str] = []
    degrees: list[int] = []
    vectors: list[Mapping[int, Fraction]] = []  # echelon basis vectors of the components
    starts: dict[int, int] = {}  # degree -> index of its first loop vector
    for deg in range(-n_window, n_window + 1):
        starts[deg] = len(names)
        for s, (k, vec) in enumerate(grading[deg % n_twist].rows):
            unit = len(vec) == 1  # then vec = e_k, k its pivot
            names.append(f"{g.basis_names[k]}(x)t^{deg}" if unit else f"g[{s}](x)t^{deg}")
            degrees.append(deg)
            vectors.append(vec)
    loop_count = len(names)
    d_idx, z_idx = loop_count, loop_count + 1

    # q ascends in each row: row p gets its q < p, then its q > p, then d
    rows: list[dict] = [{} for _ in range(loop_count + 2)]
    for p1 in range(loop_count):
        i = degrees[p1]
        for p2 in range(p1 + 1, loop_count):
            j = degrees[p2]
            if abs(i + j) > n_window:
                rows[p1][p2] = rows[p2][p1] = None
                continue
            bracket = constants[(i % n_twist, p1 - starts[i], j % n_twist, p2 - starts[j])]
            entry = [(starts[i + j] + s, c) for s, c in bracket]
            if i + j == 0:
                central = i * invariant_form(vectors[p1], vectors[p2])
                if central:
                    entry.append((z_idx, int_if_integral(central)))
            if entry:
                rows[p1][p2] = tuple(sorted(entry))
                rows[p2][p1] = tuple((k, -c) for k, c in rows[p1][p2])
    # Euler action: [d, x (x) t^i] = i * x (x) t^i
    for p, deg in enumerate(degrees):
        if deg:
            rows[d_idx][p] = ((p, deg),)
            rows[p][d_idx] = ((p, -deg),)
    return AlgebraSpec(
        dim=loop_count + 2,
        basis_names=(*names, "d", "z"),
        rows=tuple(rows),
        flavor="lie",
        grading=(*degrees, 0, 0),
    )

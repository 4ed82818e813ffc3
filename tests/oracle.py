"""The test suite's one reference for solved spaces: every equation of an
identity at every ordered basis tuple, written from its definition
straight off ``AlgebraSpec.rows`` and solved by ``nullspace_of_rows``.

It uses no lemma of the solver: no orbit or swap lemma, no known
solutions, no unit-row retire step, no direction and no mirror; a row
repeated is eliminated once, as it adds nothing.  A map phi is the matrix
with phi(e_c) = sum_q phi[q][c] e_q, at column q*n + c, and a form f holds
f(e_p, e_q) at column p*n + q.  The block of a shift holds the maps that
send degree d to d + shift, and is solved over all n^2 columns with a unit
row pinning each column outside it.

A tuple's equations are {output coordinate: row}, and a block does not
impose them when one of the products they read is undefined, as a degree
window does not.  A kind is read by its ``tag`` and ``delta`` alone."""

from itertools import product

from homlie.linalg import Subspace, nullspace_of_rows

# (ab)phi(c) + s1 (ca)phi(b) + s2 (bc)phi(a), one sign per term
HOM_SIGNS = {"hom-lie": (1, 1, 1), "hom-cyclic": (1, -1), "hom-2nilp": (1,)}


def _add(eqs, m, col, value):
    row = eqs.setdefault(m, {})
    row[col] = row.get(col, 0) + value


def shifts(alg):
    """Every difference of two degrees of the grading, ascending ([0] ungraded)."""
    deg = alg.grading or (0,)
    return list(range(min(deg) - max(deg), max(deg) - min(deg) + 1))


def _by_shift(alg, kind, tup):
    """The equations of a hom kind at the triple ``tup``, or of a delta kind
    at the pair ``tup``, over all of End, split by the block of their
    columns (phi(e_z) -> e_q lies in the block of deg q - deg z): the
    equations of each block, and the blocks where they read an undefined
    product; None when a product of the tuple itself is undefined."""
    rows, n, deg = alg.rows, alg.dim, alg.grading or (0,) * alg.dim
    eqs, undefined = {}, set()

    def term(terms, shift, col, scale):  # scale times a product's terms, at column col
        if terms is None:
            undefined.add(shift)
        elif shift not in undefined:
            at = eqs.setdefault(shift, {})
            for m, v in terms:
                row = at.setdefault(m, {})
                row[col] = row.get(col, 0) + scale * v

    if kind.delta is None:  # (ab)phi(c) + s1 (ca)phi(b) + s2 (bc)phi(a)
        a, b, c = tup
        for (x, y, z), sign in zip(((a, b, c), (c, a, b), (b, c, a)), HOM_SIGNS[kind.tag]):
            xy = rows[x].get(y, ())
            if xy is None:
                return None
            for p, w in xy:  # w e_p phi(e_z), phi(e_z) -> e_q at q*n + z: term(), inlined
                w *= sign
                for q, pq in rows[p].items():
                    shift = deg[q] - deg[z]
                    if pq is None:
                        undefined.add(shift)
                    elif shift not in undefined:
                        at, col = eqs.setdefault(shift, {}), q * n + z
                        for m, v in pq:
                            row = at.setdefault(m, {})
                            row[col] = row.get(col, 0) + w * v
    else:  # phi(e_i e_j) - delta (phi(e_i) e_j + e_i phi(e_j))
        i, j = tup
        ij = rows[i].get(j, ())
        if ij is None:
            return None
        for k, w in ij:
            for q in range(n):
                term(((q, 1),), deg[q] - deg[k], q * n + k, w)
        for q in range(n):
            term(rows[q].get(j, ()), deg[q] - deg[i], q * n + i, -kind.delta)
        for q, iq in rows[i].items():
            term(iq, deg[q] - deg[j], q * n + j, -kind.delta)
    return eqs, undefined


def residuals(alg, phi, kind, triple):
    """{shift: the equations at ``triple`` (a delta kind reads its pair) in
    the block of shift, evaluated at phi, as a vector of Q^n, or None where
    they read an undefined product}, for every shift."""
    n, entries = alg.dim, phi.sparse_rows
    split = _by_shift(alg, kind, triple if kind.delta is None else triple[:2])
    out = dict.fromkeys(shifts(alg))
    for s in out:
        if split is not None and s not in split[1]:
            eqs = split[0].get(s, {})
            out[s] = tuple(sum(x * entries[col // n].get(col % n, 0) for col, x in eqs.get(m, {}).items())
                           for m in range(n))
    return out


def _solve(ncols, distinct, pins=()):
    return nullspace_of_rows(ncols, [*pins, *map(dict, distinct)])


def _system(at, tuples):
    """The distinct rows of the equations ``at(tup)`` over ``tuples``, each
    as the set of its entries: a repeated row is eliminated once."""
    return {frozenset(row.items()) for tup in tuples for row in at(tup).values()}


def blocks(alg, kind):
    """{shift: the kind's solutions in the block of shift}, for every shift
    of ``shifts``, from one pass over the ordered tuples."""
    n, deg = alg.dim, alg.grading or (0,) * alg.dim
    distinct = {s: set() for s in shifts(alg)}
    for tup in product(range(n), repeat=3 if kind.delta is None else 2):
        split = _by_shift(alg, kind, tup)
        if split is not None:
            for s, at in split[0].items():
                if s not in split[1]:
                    distinct[s].update(frozenset(row.items()) for row in at.values())
    return {s: _solve(n * n, rows, [{q * n + c: 1} for q, c in product(range(n), repeat=2) if deg[q] != deg[c] + s])
            for s, rows in distinct.items()}


def space(alg, kind):
    """The kind's solutions in all of End: a tuple imposes its equations
    where every product they read is defined, each output coordinate's
    row the sum of the blocks'."""
    def whole(tup):
        eqs, split = {}, _by_shift(alg, kind, tup)
        for at in split[0].values() if split and not split[1] else ():
            for m, row in at.items():
                eqs.setdefault(m, {}).update(row)
        return eqs

    return _solve(alg.dim ** 2, _system(whole, product(range(alg.dim), repeat=3 if kind.delta is None else 2)))


# -- forms --------------------------------------------------------------------


def _form(eqs, n, sign, u, v):
    """sign f(u, v), for u and v given by their terms."""
    for p, x in u:
        for q, y in v:
            _add(eqs, 0, p * n + q, sign * x * y)


def form_equations(alg, kind, a, b, c):
    """The equation at (a, b, c) of a form kind of ``solver.solve_bilinear``:
    the cocycle's, b-space's, or sym-invariant's invariance."""
    rows, n, eqs = alg.rows, alg.dim, {}
    ab, ca, bc = rows[a].get(b, ()), rows[c].get(a, ()), rows[b].get(c, ())
    if kind.endswith("-cocycle"):  # f(ab, c) + f(ca, b) + f(bc, a)
        for uv, w in ((ab, c), (ca, b), (bc, a)):
            _form(eqs, n, 1, uv, ((w, 1),))
    elif kind == "b-space":  # f(ab, c) - f(ca, b)
        _form(eqs, n, 1, ab, ((c, 1),))
        _form(eqs, n, -1, ca, ((b, 1),))
    else:  # sym-invariant: f(ab, c) - f(a, bc)
        _form(eqs, n, 1, ab, ((c, 1),))
        _form(eqs, n, -1, ((a, 1),), bc)
    return eqs


def coboundaries(alg):
    """The span of the forms (x, y) -> e*_m(xy)."""
    n = alg.dim
    gens = [{} for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        for m, c in alg.rows[i].get(j, ()):
            gens[m][i * n + j] = c
    return Subspace.from_spanning(gens, n * n)


def form_space(alg, kind):
    """The forms of a kind of ``solver.solve_bilinear``, the skew and sym
    kinds with f(x, y) - sign f(y, x) = 0 at every ordered pair."""
    n = alg.dim
    if kind == "coboundary":
        return coboundaries(alg)
    distinct = _system(lambda t: form_equations(alg, kind, *t), product(range(n), repeat=3))
    sign = {"skew-cocycle": -1, "sym-cocycle": 1, "sym-invariant": 1}.get(kind)
    if sign is not None:
        for a, b in product(range(n), repeat=2):
            eqs = {}
            _form(eqs, n, 1, ((a, 1),), ((b, 1),))
            _form(eqs, n, -sign, ((b, 1),), ((a, 1),))
            distinct.add(frozenset(eqs[0].items()))
    return _solve(n * n, distinct)


def compat_space(alg, xi_rows):
    """The maps psi with xi(xy, psi(t)) + xi(tx, psi(y)) + xi(yt, psi(x)) = 0
    at every ordered triple, for the form xi of sparse rows ``xi_rows``: the
    compatibility condition of ``solver.central_ext_homlie_decomposed``."""
    rows, n = alg.rows, alg.dim

    def compat(tup):
        x, y, t = tup
        eqs = {}
        for u, v, w in ((x, y, t), (t, x, y), (y, t, x)):
            for p, c in rows[u].get(v, ()):
                for q, value in xi_rows[p].items():
                    _add(eqs, 0, q * n + w, c * value)
        return eqs

    return _solve(n * n, _system(compat, product(range(n), repeat=3)))


# -- quasiderivations and seq_uv ------------------------------------------------


def qder_equations(alg, module, i, j):
    """D(e_i e_j) - (F(e_i) e_j + e_i F(e_j)) for D, F: g -> M, M the adjoint
    module g or the coadjoint one g*, where (e_i . f)(e_k) = -f(e_i e_k) and
    f e_j = -(e_j . f).  D(e_c) -> e_v is at column v*n + c in g and at
    c*n + v in g*, and F's columns follow D's n^2."""
    rows, n, eqs = alg.rows, alg.dim, {}
    if module == "adjoint":
        def left(i, v):
            return rows[i].get(v, ())

        def right(v, j):
            return rows[v].get(j, ())

        def col(c, v):
            return v * n + c
    else:
        def left(i, v):  # e_i . e*_v = -sum_k c_ik^v e*_k
            return [(k, -x) for k, terms in rows[i].items() for m, x in terms if m == v]

        def right(v, j):
            return [(k, -x) for k, x in left(j, v)]

        def col(c, v):
            return c * n + v
    for k, w in rows[i].get(j, ()):
        for v in range(n):
            _add(eqs, v, col(k, v), w)
    for v in range(n):
        for m, x in right(v, j):
            _add(eqs, m, n * n + col(i, v), -x)
        for m, x in left(i, v):
            _add(eqs, m, n * n + col(j, v), -x)
    return eqs


def _qder_system(alg, module):
    return _system(lambda t: qder_equations(alg, module, *t), product(range(alg.dim), repeat=2))


def qder_space(alg, module):
    """The quasiderivation pairs (D, F) of ``solver.solve_qder``."""
    return _solve(2 * alg.dim ** 2, _qder_system(alg, module))


def seq_uv(alg):
    """(u_image, v_kernel, u_injective) of ``solver.seq_uv``: u(f) = (D, F)
    with D(x)(y) = f(x, y) and F(x)(y) = -f(y, x) on the asym cocycles, and
    the coadjoint pairs with D(x)(y) + F(y)(x) = 0."""
    n = alg.dim
    n2 = n * n
    z2 = form_space(alg, "asym-cocycle")
    u_image = Subspace.from_spanning(
        ({**f, **{n2 + (c % n) * n + c // n: -x for c, x in f.items()}} for _, f in z2.rows), 2 * n2)
    v_rows = [{i * n + j: 1, n2 + j * n + i: 1} for i, j in product(range(n), repeat=2)]
    return u_image, _solve(2 * n2, _qder_system(alg, "coadjoint"), v_rows), u_image.dim == z2.dim

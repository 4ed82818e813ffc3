"""Differential tests: the sparse table walks against dense evaluation.

The library evaluates products on basis tuples by walking the structure
table.  The references here evaluate the same quantities densely, through
the public vector product ``multiply`` on unit vectors, and must agree
exactly: tables, law witnesses and residuals, forms, matrices, witnesses
and failure messages.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from homlie import battery
from homlie.algebra import (
    ANTICOMMUTATIVE_FLAVORS,
    COMMUTATIVE_FLAVORS,
    BilinearForm,
    LawViolation,
    builtin,
    killing_form,
    make_algebra,
)
from homlie.battery import builtin_battery, check_action_intertwines_jacobiator, random_lie_battery
from homlie.constructions import cocycle2, derivation_defect, km_window, twisted_cyclic
from homlie.linalg import Matrix, Subspace, dense_vector
from homlie.solver import (
    HOM_2NILP,
    HOM_CYCLIC,
    HOM_LIE,
    delta_derivation,
    is_multiplicative,
    solve_bilinear,
    structure_residual,
)
from homlie.window import beta_map
from shared import dense_is_multiplicative, replaced

F = Fraction

BATTERY = builtin_battery() + random_lie_battery(count=25)
LIE_BATTERY = [(name, alg) for name, alg in BATTERY if alg.flavor == "lie"]


def _ids(v):
    return v if isinstance(v, str) else ""


# -- builtin tables ----------------------------------------------------------

# sha256 prefixes of (dim, basis names, flavor, table) as built by the dense
# path (dense matrix commutators and dense law checks), which this replaced.
DENSE_BUILD_DIGESTS = [
    ("sl", 2, "f62d0e48d1fe136e"),
    ("sl", 3, "e913437f22a10ae0"),
    ("sl", 4, "fbbcf02b88797e13"),
    ("sl", 5, "16a808c7f53ad710"),
    ("sl", 6, "1704848b6473ae90"),
    ("sl", 7, "7a75df8fbae22811"),
    ("sl", 8, "e615d5a347d29888"),
    ("gl", 2, "e716ff0c9d541568"),
    ("gl", 3, "d22cc35600983dc9"),
    ("gl", 4, "2edc471d0f0164d9"),
    ("so", 3, "964c7f6c902b484b"),
    ("so", 4, "4fd649fa7775c84b"),
    ("so", 5, "4e104180625f86d3"),
    ("so", 6, "216485bc92862d27"),
    ("so", 7, "a19e61ae5318e6fd"),
    ("so", 8, "1b4b39805a84390c"),
    ("so", 9, "b1437477c203c04f"),
    ("sp", 2, "b9961c7c3ed48a31"),
    ("sp", 4, "007514a49cec89b7"),
    ("sp", 6, "955241803bda4830"),
    ("sp", 8, "54b2429d6ea6e26f"),
]


@pytest.mark.parametrize("name,param,digest", DENSE_BUILD_DIGESTS)
def test_builtin_matches_the_dense_build(name, param, digest):
    a = builtin(name, param)
    text = repr((a.dim, a.basis_names, a.flavor, sorted((k, [(m, str(c)) for m, c in v]) for k, v in a.table.items())))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _cartan_grading():
    return (Subspace.from_spanning([[0, 1, 0]], 3), Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3))


# sha256 prefixes of the labels and products of km_window, and of the table of
# twisted_cyclic, as built by the dense path (``g.multiply`` on component
# basis vectors), which this replaced.
DENSE_WINDOW_DIGESTS = [
    ("untwisted-2", lambda g: km_window(g, killing_form(g), 2), "281d245228c59343"),
    ("untwisted-3", lambda g: km_window(g, killing_form(g), 3), "ebe051978624770b"),
    ("untwisted-4", lambda g: km_window(g, killing_form(g), 4), "449ed571867f54f2"),
    ("twisted-3", lambda g: km_window(g, killing_form(g), 3, twist=(list(_cartan_grading()), 2)), "56cb337a7433297a"),
    ("twisted-cyclic-4", lambda g: twisted_cyclic(g, _cartan_grading(), 4), "69bc2561c4ce195a"),
]


@pytest.mark.parametrize("build,digest", [pytest.param(b, d, id=i) for i, b, d in DENSE_WINDOW_DIGESTS])
def test_window_build_matches_the_dense_build(build, digest):
    a = build(builtin("sl", 2))
    if None in a.table.values():
        # the hashed text of a window lists each loop bracket once (i < j)
        # and the Euler action as [d, x], with kinds read from the names
        kinds = ["euler" if x == "d" else "central" if x == "z" else "loop" for x in a.basis_names]
        once = {(i, j): v for (i, j), v in a.table.items() if kinds[j] == "loop" and (i < j or kinds[i] == "euler")}
        products = sorted((k, None if v is None else [(m, str(c)) for m, c in v]) for k, v in once.items())
        text = repr((a.dim, list(zip(kinds, a.grading, a.basis_names)), products))
    else:
        text = repr((a.dim, a.basis_names, a.flavor, sorted((k, [(m, str(c)) for m, c in v]) for k, v in a.table.items())))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# -- law checks --------------------------------------------------------------


def _dense_check_laws(alg):
    """The law checks evaluated with ``multiply`` on unit vectors."""
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    mul = alg.multiply

    def add(u, v, sign=1):
        return tuple(a + sign * b for a, b in zip(u, v))

    def require(law, witness, residual):
        if any(residual):
            raise LawViolation(law, witness, residual)

    if alg.flavor in ANTICOMMUTATIVE_FLAVORS:
        for i in range(n):
            for j in range(i, n):
                require("anticommutativity", (i, j), add(mul(basis[i], basis[j]), mul(basis[j], basis[i])))
    if alg.flavor in COMMUTATIVE_FLAVORS:
        for i in range(n):
            for j in range(i + 1, n):
                require("commutativity", (i, j), add(mul(basis[i], basis[j]), mul(basis[j], basis[i]), -1))
    if alg.flavor == "lie":
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    x, y, z = basis[i], basis[j], basis[k]
                    terms = (mul(mul(x, y), z), mul(mul(z, x), y), mul(mul(y, z), x))
                    require("jacobi", (i, j, k), tuple(sum(t) for t in zip(*terms)))
    if alg.flavor == "commutative-associative":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = mul(mul(basis[i], basis[j]), basis[k])
                    rhs = mul(basis[i], mul(basis[j], basis[k]))
                    require("associativity", (i, j, k), add(lhs, rhs, -1))
    if alg.grading is not None:
        for (i, j), terms in alg.table.items():
            for k, _ in terms:
                if alg.grading[k] != alg.grading[i] + alg.grading[j]:
                    require("grading", (i, j, k), mul(basis[i], basis[j]))


def _random_table(rng, n, flavor):
    """A sparse random table that mostly keeps the flavor's symmetry, with
    an occasional entry that breaks it."""
    table = {}
    for i in range(n):
        for j in range(i if flavor in COMMUTATIVE_FLAVORS else i + 1, n):
            entry = [(rng.randrange(n), F(rng.randint(-2, 2), rng.choice((1, 1, 2)))) for _ in range(rng.randint(0, 2))]
            table[(i, j)] = entry
            if i != j:
                sign = -1 if flavor in ANTICOMMUTATIVE_FLAVORS else 1
                table[(j, i)] = [(k, sign * c) for k, c in entry]
    if rng.random() < 0.3:
        i, j = rng.randrange(n), rng.randrange(n)
        table[(i, j)] = list(table.get((i, j), [])) + [(rng.randrange(n), F(1))]
    return table


def _law_verdict(check):
    try:
        check()
    except LawViolation as e:
        return e.law, e.witness, e.residual
    return None


@pytest.mark.parametrize("flavor", ["lie", "generic-anticommutative", "commutative-associative", "generic-commutative"])
def test_law_violations_match_dense_checks(flavor):
    rng = random.Random(f"laws-{flavor}")
    laws = set()
    for _ in range(150):
        n = rng.randint(1, 4)
        table = _random_table(rng, n, flavor)
        grading = [rng.randint(0, 2) for _ in range(n)] if rng.random() < 0.3 else None
        unchecked = make_algebra(n, table, flavor="unchecked")
        spec = replaced(unchecked, flavor=flavor, grading=None if grading is None else tuple(grading))
        dense = _law_verdict(lambda: _dense_check_laws(spec))
        sparse = _law_verdict(lambda: make_algebra(n, table, flavor=flavor, grading=grading))
        assert sparse == dense, (n, table, grading)
        laws.add(dense and dense[0])
    assert None in laws and len(laws) >= 3, laws


# -- forms, multiplication matrices, multiplicativity ------------------------


def _dense_mul_matrix(alg, v, left):
    n = alg.dim
    cols = [alg.multiply(v, alg.basis_vector(j)) if left else alg.multiply(alg.basis_vector(j), v) for j in range(n)]
    return Matrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)), n)


@pytest.mark.parametrize("name,alg", BATTERY, ids=_ids)
def test_multiplication_matrices_and_killing_form_match_dense(name, alg):
    n = alg.dim
    rng = random.Random(f"mul-{name}")
    vectors = [alg.basis_vector(i) for i in range(n)] + [tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))]
    for v in vectors:
        assert alg.left_mul_matrix(v) == _dense_mul_matrix(alg, v, left=True)
        assert alg.right_mul_matrix(v) == _dense_mul_matrix(alg, v, left=False)
    if alg.flavor == "lie":
        ads = [_dense_mul_matrix(alg, alg.basis_vector(i), left=True) for i in range(n)]
        dense = Matrix(tuple(tuple((ads[i] @ ads[j]).trace() for j in range(n)) for i in range(n)), n)
        assert killing_form(alg).matrix == dense


def _candidate_maps(n, rng):
    ident = Matrix.identity(n)
    return [ident, ident.scale(2), Matrix.zeros(n, n)] + [
        Matrix.from_rows([[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]) for _ in range(3)
    ]


@pytest.mark.parametrize("name,alg", BATTERY, ids=_ids)
def test_is_multiplicative_matches_dense(name, alg):
    for phi in _candidate_maps(alg.dim, random.Random(f"mult-{name}")):
        assert is_multiplicative(alg, phi) == dense_is_multiplicative(alg, phi)


@pytest.mark.parametrize("n_window", [2, 3])
def test_is_multiplicative_on_windows_matches_dense(n_window):
    sl2 = builtin("sl", 2)
    pa = km_window(sl2, killing_form(sl2), n_window)
    ident, beta = Matrix.identity(pa.dim), beta_map(pa)
    maps = [ident + beta.scale(3), beta, ident.scale(3)] + _candidate_maps(pa.dim, random.Random(f"window-{n_window}"))
    verdicts = [is_multiplicative(pa, phi) for phi in maps]
    assert verdicts == [dense_is_multiplicative(pa, phi) for phi in maps]
    assert verdicts[:2] == [True, True] and verdicts[2] is not True


def _dense_derivation_defect(a, d):
    n = a.dim
    basis = [a.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = d.apply(a.multiply(basis[i], basis[j]))
            terms = (a.multiply(d.apply(basis[i]), basis[j]), a.multiply(basis[i], d.apply(basis[j])))
            rhs = tuple(x + y for x, y in zip(*terms))
            if lhs != rhs:
                return (i, j), tuple(x - y for x, y in zip(lhs, rhs))
    return None


def _dense_cocycle_verdict(alg, matrix):
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    form = lambda u, v: sum(u[p] * matrix.entry(p, q) * v[q] for p in range(n) for q in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = sum(form(alg.multiply(basis[x], basis[y]), basis[z]) for x, y, z in ((i, j, k), (k, i, j), (j, k, i)))
                if val:
                    return "cocycle-equation", (i, j, k), (val,)
    return None


def _dense_is_invariant(alg, matrix):
    """f(xy, z) == f(x, yz) on every basis triple, with the products from
    ``multiply`` on unit vectors."""
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    prod = [[alg.multiply(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    f = [[matrix.entry(p, q) for q in range(n)] for p in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum(x * f[p][k] for p, x in enumerate(prod[i][j]))
                rhs = sum(f[i][p] * x for p, x in enumerate(prod[j][k]))
                if lhs != rhs:
                    return False
    return True


def _random_symmetric(n, rng):
    upper = {(i, j): rng.choice((0, 0, 1, -1, F(1, 2))) for i in range(n) for j in range(i, n)}
    return Matrix.from_sparse(n, n, upper | {(j, i): x for (i, j), x in upper.items()})


@pytest.mark.parametrize("name,alg", BATTERY, ids=_ids)
def test_derivation_defect_and_cocycle_check_match_dense(name, alg):
    n = alg.dim
    rng = random.Random(f"leibniz-{name}")
    for d in _candidate_maps(n, rng) + [alg.left_mul_matrix(alg.basis_vector(n - 1))]:
        assert derivation_defect(alg, d) == _dense_derivation_defect(alg, d)
    forms = [_random_symmetric(n, rng) for _ in range(2)]
    if alg.flavor == "lie":
        kf = killing_form(alg).matrix
        bumps = [(0, 0), (n - 1, 0), (rng.randrange(n), rng.randrange(n))]
        forms += [kf] + [kf + Matrix.from_sparse(n, n, {pq: 1}) for pq in bumps]
    for m in forms:
        assert BilinearForm(m).is_invariant(alg) is _dense_is_invariant(alg, m)
    if alg.flavor == "lie":
        assert BilinearForm(kf).is_invariant(alg)
        upper = {(i, j): rng.choice((0, 1, -1, F(1, 2))) for i in range(n) for j in range(i + 1, n)}
        skew = Matrix.from_sparse(n, n, upper | {(j, i): -x for (i, j), x in upper.items()})
        assert _law_verdict(lambda: cocycle2(alg, skew)) == _dense_cocycle_verdict(alg, skew)
        # skew-cocycle basis forms pass; with one entry pair (p, q), (q, p) changed
        # they stay skew, and the two checks must name the same witness and residual.
        # Every pair is bumped up to dim 5 (some bump fails unless every skew form
        # is a cocycle, as the bumps span the skew forms), four of them above.
        skew_cocycles = solve_bilinear(alg, "skew-cocycle")
        pairs = list(itertools.combinations(range(n), 2))
        if n > 5:
            pairs = rng.sample(pairs, 4)
        failing = 0
        for _, row in skew_cocycles.rows[:2]:
            base = Matrix.unflatten(row, n, n)
            assert _law_verdict(lambda: cocycle2(alg, base)) is None
            for p, q in pairs:
                bumped = base + Matrix.from_sparse(n, n, {(p, q): 1, (q, p): -1})
                verdict = _law_verdict(lambda: cocycle2(alg, bumped))
                assert verdict == _dense_cocycle_verdict(alg, bumped)
                if verdict is not None:
                    assert all(type(x) is F for x in verdict[2])
                    failing += 1
        assert failing or skew_cocycles.dim in (0, n * (n - 1) // 2)


def _dense_structure_residual(alg, phi, kind, triple):
    a, b, c = (alg.basis_vector(i) for i in triple)
    fa, fb, fc = (phi.apply(v) for v in (a, b, c))
    mul = alg.multiply
    if kind.tag == "hom-lie":
        terms = (mul(mul(a, b), fc), mul(mul(c, a), fb), mul(mul(b, c), fa))
        return tuple(sum(t) for t in zip(*terms))
    if kind.tag == "hom-cyclic":
        return tuple(x - y for x, y in zip(mul(mul(a, b), fc), mul(mul(c, a), fb)))
    if kind.tag == "hom-2nilp":
        return mul(mul(a, b), fc)
    rhs = tuple(x + y for x, y in zip(mul(fa, b), mul(a, fb)))
    return tuple(x - kind.delta * y for x, y in zip(phi.apply(mul(a, b)), rhs))


@pytest.mark.parametrize("name,alg", [(name, alg) for name, alg in BATTERY if alg.dim <= 4], ids=_ids)
def test_structure_residual_matches_dense(name, alg):
    n = alg.dim
    phi = _candidate_maps(n, random.Random(f"residual-{name}"))[-1]
    for kind in (HOM_LIE, HOM_CYCLIC, HOM_2NILP, delta_derivation("1/2")):
        for triple in itertools.product(range(n), repeat=3):
            assert structure_residual(alg, phi, kind, triple) == _dense_structure_residual(alg, phi, kind, triple)


# -- the intertwining check ----------------------------------------------------


def _dense_jacobiator(alg, phi, x, y, z):
    """(xy)phi(z) + (zx)phi(y) + (yz)phi(x), evaluated by ``multiply``."""
    mul = alg.multiply
    terms = (mul(mul(x, y), phi.apply(z)), mul(mul(z, x), phi.apply(y)), mul(mul(y, z), phi.apply(x)))
    return tuple(sum(t) for t in zip(*terms))


def _dense_intertwining(alg, rng):
    """The intertwining check with every Jacobiator evaluated by ``multiply``
    on each basis triple."""
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    mul = alg.multiply
    for _ in range(3):
        h = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        phi = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        hphi = battery.act(alg, h, phi)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = _dense_jacobiator(alg, hphi, basis[i], basis[j], basis[k])
                    rhs = mul(_dense_jacobiator(alg, phi, basis[i], basis[j], basis[k]), h)
                    for slot in range(3):
                        args = [basis[i], basis[j], basis[k]]
                        args[slot] = mul(args[slot], h)
                        rhs = tuple(a - b for a, b in zip(rhs, _dense_jacobiator(alg, phi, *args)))
                    if lhs != rhs:
                        return f"intertwining fails at triple ({i},{j},{k})"
    return None


SMALL_LIE = [(name, alg) for name, alg in LIE_BATTERY if alg.dim <= 5]


@pytest.mark.parametrize("name,alg", SMALL_LIE, ids=_ids)
def test_jacobiator_table_matches_dense(name, alg):
    """The table filled by alternation from the sorted triples holds the
    Jacobiator of every ordered triple, repeated indices included."""
    n, rng = alg.dim, random.Random(f"jacobiator-{name}")
    basis = [alg.basis_vector(i) for i in range(n)]
    for _ in range(2):
        phi = Matrix.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
        table = battery._jacobiator(alg, phi)
        assert set(table) == set(itertools.product(range(n), repeat=3))
        for i, j, k in table:
            assert dense_vector(table[(i, j, k)], n) == _dense_jacobiator(alg, phi, basis[i], basis[j], basis[k])


@pytest.mark.parametrize("name,alg", SMALL_LIE, ids=_ids)
def test_intertwining_check_matches_dense(name, alg):
    verdict = check_action_intertwines_jacobiator(alg, random.Random(f"jac-{name}"))
    assert verdict is None
    assert verdict == _dense_intertwining(alg, random.Random(f"jac-{name}"))


def _flip_sign(act):
    return lambda alg, h, phi: act(alg, h, phi).scale(-1)


def _corrupt_entry(act):
    def corrupted(alg, h, phi):
        m = act(alg, h, phi)
        return m + Matrix.from_sparse(m.rows, m.cols, {(0, m.cols - 1): 1})

    return corrupted


@pytest.mark.parametrize("mutate", [_flip_sign, _corrupt_entry], ids=["sign-flip", "one-entry"])
def test_mutated_action_fails_the_intertwining_check(monkeypatch, mutate):
    monkeypatch.setattr(battery, "act", mutate(battery.act))
    caught = 0
    for name, alg in LIE_BATTERY:
        verdict = check_action_intertwines_jacobiator(alg, random.Random(f"mut-{name}"))
        if alg.dim <= 5:
            assert verdict == _dense_intertwining(alg, random.Random(f"mut-{name}")), name
        caught += verdict is not None
    assert caught >= 5

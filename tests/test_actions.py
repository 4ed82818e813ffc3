import math
import random
import time
from fractions import Fraction

import pytest

from homlie.actions import (
    NonSplitAction,
    NotSubmodule,
    SubmoduleWitness,
    act,
    action_matrix,
    conjugate,
    is_submodule,
    noncommuting_pair,
    rational_eigenvalues,
    sl2_decompose,
    weight_decompose,
)
from homlie import battery
from homlie.algebra import UndefinedProduct, builtin, killing_form
from homlie.battery import builtin_battery, check_conjugation_stability, lie_battery, random_lie_battery
from homlie.constructions import km_window
from homlie.linalg import Matrix, Subspace, sparse_lincomb
from homlie.solver import HOM_2NILP, HOM_LIE, solve_structures

F = Fraction


def sum_of_subspaces(spaces, ambient):
    return Subspace.from_spanning([v for s in spaces for v in s.basis.data], ambient)


def test_identity_is_invariant():
    sl2 = builtin("sl", 2)
    assert act(sl2, sl2.basis_vector(1), Matrix.identity(3)).is_zero()


# longer and shorter than sl2's dim 3
WRONG_LENGTHS = [(0, 1, 0, 7), (0, 1), (1, 0, 0, 9), (1,)]


@pytest.mark.parametrize("h", WRONG_LENGTHS)
def test_act_rejects_a_vector_of_the_wrong_length(h):
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        act(builtin("sl", 2), h, Matrix.identity(3))


@pytest.mark.parametrize("x", WRONG_LENGTHS)
def test_conjugate_rejects_a_vector_of_the_wrong_length(x):
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        conjugate(builtin("sl", 2), Matrix.identity(3), x)


@pytest.mark.parametrize("t", WRONG_LENGTHS)
def test_weight_decompose_rejects_a_torus_vector_of_the_wrong_length(t):
    sl2 = builtin("sl", 2)
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        weight_decompose(sl2, [t], solve_structures(sl2, HOM_LIE).space)


def test_act_weight_of_lowering_to_raising_map():
    # hand expansion: (h.phi)(e-) = [phi(e-), h] - phi([e-, h])
    #               = [e+, h] + phi(e-) = e+ + e+ = 2 phi(e-)
    sl2 = builtin("sl", 2)
    phi = Matrix.from_sparse(3, 3, {(2, 0): 1})
    assert act(sl2, sl2.basis_vector(1), phi) == phi.scale(2)
    phi_rev = Matrix.from_sparse(3, 3, {(0, 2): 1})
    assert act(sl2, sl2.basis_vector(1), phi_rev) == phi_rev.scale(-2)


def test_act_central_elements_act_trivially():
    heis = builtin("heisenberg")
    rng = random.Random(5)
    phi = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    assert act(heis, heis.basis_vector(2), phi).is_zero()


def test_act_is_bilinear():
    sl2 = builtin("sl", 2)
    rng = random.Random(11)
    h1 = tuple(F(rng.randint(-2, 2)) for _ in range(3))
    h2 = tuple(F(rng.randint(-2, 2)) for _ in range(3))
    phi = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    lhs = act(sl2, tuple(a + b for a, b in zip(h1, h2)), phi)
    assert lhs == act(sl2, h1, phi) + act(sl2, h2, phi)


def test_submodule_verdicts():
    sl2 = builtin("sl", 2)
    hl = solve_structures(sl2, HOM_LIE)
    assert is_submodule(sl2, hl.space) is True
    assert is_submodule(sl2, Subspace.from_spanning([Matrix.identity(3).flatten()], 9)) is True
    generic_line = Subspace.from_spanning([Matrix.from_sparse(3, 3, {(0, 1): 1}).flatten()], 9)
    witness = is_submodule(sl2, generic_line)
    assert witness is not True
    assert hasattr(witness, "generator_index")


def test_weight_decompose_homlie_sl2():
    sl2 = builtin("sl", 2)
    hl = solve_structures(sl2, HOM_LIE)
    comps = weight_decompose(sl2, [sl2.basis_vector(1)], hl.space)
    mult = {c.weight[0]: c.component.dim for c in comps}
    assert mult == {F(-2): 1, F(-1): 1, F(0): 2, F(1): 1, F(2): 1}
    # components direct-sum to the space
    assert sum_of_subspaces([c.component for c in comps], 9) == hl.space
    assert sum(c.component.dim for c in comps) == hl.dim


def test_weight_decompose_trivial_cases():
    sl2 = builtin("sl", 2)
    line = Subspace.from_spanning([Matrix.identity(3).flatten()], 9)
    comps = weight_decompose(sl2, [sl2.basis_vector(1)], line)
    assert len(comps) == 1 and comps[0].weight == (F(0),)
    comps = weight_decompose(sl2, [], line)
    assert len(comps) == 1 and comps[0].weight == ()


def test_weight_decompose_rejects_non_submodules():
    sl2 = builtin("sl", 2)
    line = Subspace.from_spanning([Matrix.from_sparse(3, 3, {(0, 1): 1}).flatten()], 9)
    with pytest.raises(NotSubmodule):
        weight_decompose(sl2, [sl2.basis_vector(1)], line)


def test_rational_eigenvalues():
    m = Matrix.from_rows([[2, 1], [0, F(1, 2)]])
    assert rational_eigenvalues(m) == [F(1, 2), F(2)]
    rotation = Matrix.from_rows([[0, -1], [1, 0]])  # eigenvalues +-i
    assert rational_eigenvalues(rotation) == []


def _conjugated(rng, rows):
    """rows conjugated by random elementary matrices E = I + c e_ij:
    E A E^-1 adds c * row j to row i, then -c * column i to column j."""
    a = [list(r) for r in rows]
    n = len(a)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = F(rng.randint(-2, 2), rng.choice([1, 2]))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in a:
            r[j] -= c * r[i]
    return Matrix.from_rows(a)


def _battery_matrix(rng, style, n):
    if style == "random":  # mostly irrational or complex spectrum
        return Matrix.from_rows(
            [[F(rng.randint(-4, 4), rng.choice([1, 2, 3])) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(n)]
        )
    eig = [F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) for _ in range(n)]
    rows = [[eig[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if style == "jordan":  # repeat an eigenvalue and chain it: not diagonalizable
        for i in range(1, n):
            if rng.random() < 0.5:
                rows[i][i] = rows[i - 1][i - 1]
                rows[i - 1][i] = 1
    return _conjugated(rng, rows)


def test_rational_eigenvalues_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    x = sympy.Symbol("x")
    seen = {"non-diagonalizable": 0, "irrational spectrum": 0}
    for trial in range(240):
        n = rng.randint(1, 6)
        m = _battery_matrix(rng, ("random", "split", "jordan")[trial % 3], n)
        sm = sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator) for r in m.data for v in r])
        roots = sympy.Poly(sm.charpoly(x).as_expr(), x).ground_roots()
        assert rational_eigenvalues(m) == sorted(F(int(r.p), int(r.q)) for r in roots), m
        seen["irrational spectrum"] += sum(roots.values()) < n
        seen["non-diagonalizable"] += sum(roots.values()) == n and not sm.is_diagonalizable()
    assert all(count >= 20 for count in seen.values()), seen


def test_rational_eigenvalues_near_a_million():
    m = Matrix.from_rows([[10**6, 0, 0], [0, -(10**6) + 3, 0], [0, 0, F(1, 7)]])
    start = time.process_time()
    assert rational_eigenvalues(m) == [F(-(10**6) + 3), F(1, 7), F(10**6)]
    assert time.process_time() - start < 1.0


def test_non_split_actions_fail_loudly():
    assert rational_eigenvalues(Matrix.from_rows([[2, 1], [0, 2]])) == [F(2)]
    sl2 = builtin("sl", 2)
    raiser = sl2.basis_vector(2)  # ad-nilpotent: its action on End is a sum of Jordan blocks
    with pytest.raises(NonSplitAction):
        weight_decompose(sl2, [raiser], Subspace.full(9))
    rotation = tuple(a - b for a, b in zip(sl2.basis_vector(2), sl2.basis_vector(0)))  # eigenvalues +-2i
    with pytest.raises(NonSplitAction):
        weight_decompose(sl2, [rotation], Subspace.full(9))


def test_sl2_decompose_values():
    sl2 = builtin("sl", 2)
    triple = tuple(sl2.basis_vector(i) for i in range(3))
    hl = solve_structures(sl2, HOM_LIE)
    assert sl2_decompose(sl2, triple, hl.space) == [5, 1]
    assert sl2_decompose(sl2, triple, Subspace.from_spanning([Matrix.identity(3).flatten()], 9)) == [1]
    assert sl2_decompose(sl2, triple, Subspace.full(9)) == [5, 3, 1]


def test_sl2_decompose_rejects_non_triples():
    sl2 = builtin("sl", 2)
    bad = (sl2.basis_vector(1), sl2.basis_vector(0), sl2.basis_vector(2))
    with pytest.raises(ValueError):
        sl2_decompose(sl2, bad, Subspace.full(9))


def test_conjugate_fixes_identity_and_zero():
    sl2 = builtin("sl", 2)
    assert conjugate(sl2, Matrix.identity(3), sl2.basis_vector(2)) == Matrix.identity(3)
    phi = Matrix.from_sparse(3, 3, {(2, 0): 1})
    assert conjugate(sl2, phi, (F(0),) * 3) == phi


def test_conjugate_preserves_solution_space():
    sl2 = builtin("sl", 2)
    hl = solve_structures(sl2, HOM_LIE)
    for nil_idx in (0, 2):  # e- and e+ are ad-nilpotent
        x = sl2.basis_vector(nil_idx)
        for phi in hl.basis_maps():
            assert hl.space.contains(conjugate(sl2, phi, x).flatten())


def test_conjugate_rejects_non_nilpotent():
    sl2 = builtin("sl", 2)
    with pytest.raises(ValueError):
        conjugate(sl2, Matrix.identity(3), sl2.basis_vector(1))  # ad h is semisimple


def _conjugate_reference(alg, phi, x):
    """exp(-ad x) . phi . exp(ad x) from two separately summed series; exact
    for ad-nilpotent x, whose powers vanish from the dim-th on."""
    n = alg.dim

    def series(ad):
        total = power = Matrix.identity(n)
        for k in range(1, n + 1):
            power = power @ ad
            total = total + power.scale(F(1, math.factorial(k)))
        return total

    ad = alg.left_mul_matrix(x)
    return series(ad.scale(-1)) @ phi @ series(ad)


def test_conjugates_and_verdicts_on_the_battery():
    for name, alg in lie_battery(max_dim=5) + random_lie_battery(count=6, seed=7):
        n = alg.dim
        maps = solve_structures(alg, HOM_LIE).basis_maps()
        for i in range(n):
            x = alg.basis_vector(i)
            power = Matrix.identity(n)
            for _ in range(n):
                power = power @ alg.left_mul_matrix(x)
            if not power.is_zero():
                with pytest.raises(ValueError):
                    conjugate(alg, Matrix.identity(n), x)
                continue
            for phi in maps:
                assert conjugate(alg, phi, x) == _conjugate_reference(alg, phi, x), (name, i)
        assert check_conjugation_stability(alg) is None, name


def _by_columns(cols, n):
    """The n x n matrix with these dense columns."""
    return Matrix(cols, n).transpose()


def _dense_act(alg, h, phi):
    """R phi - phi R, with R's column c the product e_c h by ``multiply``."""
    rh = _by_columns([alg.multiply(alg.basis_vector(c), h) for c in range(alg.dim)], alg.dim)
    return (rh @ phi) - (phi @ rh)


def _dense_exp_ad(alg, x):
    """(exp(ad x), exp(-ad x)) as sums of (+-ad x)^k / k! with ad x built by
    ``multiply``, or None when ad x ** dim != 0."""
    n = alg.dim
    ad = _by_columns([alg.multiply(x, alg.basis_vector(c)) for c in range(n)], n)
    plus = minus = power = Matrix.identity(n)
    for k in range(1, n + 1):
        power = power @ ad
        plus = plus + power.scale(F(1, math.factorial(k)))
        minus = minus + power.scale(F((-1) ** k, math.factorial(k)))
    return (plus, minus) if power.is_zero() else None


def _dense_is_submodule(alg, s):
    n = alg.dim
    for i in range(n):
        for j, v in enumerate(s.basis.data):
            if not s.contains(_dense_act(alg, alg.basis_vector(i), Matrix.unflatten(v, n, n)).flatten()):
                return SubmoduleWitness(i, j)
    return True


@pytest.mark.parametrize("name,alg", lie_battery(max_dim=8) + random_lie_battery(count=6, seed=31),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_sparse_action_matches_the_dense_products(name, alg):
    rng = random.Random(name)
    n = alg.dim
    h = tuple(F(rng.randint(-2, 2)) for _ in range(n))
    phi = Matrix.from_rows([[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
    assert act(alg, h, phi) == _dense_act(alg, h, phi)
    line = Subspace.from_spanning([phi.flatten()], n * n)
    for s in (solve_structures(alg, HOM_LIE).space, solve_structures(alg, HOM_2NILP).space, line):
        assert is_submodule(alg, s) == _dense_is_submodule(alg, s)
    hl = solve_structures(alg, HOM_LIE).space
    expected = [hl.coords(_dense_act(alg, h, Matrix.unflatten(v, n, n)).flatten()) for v in hl.basis.data]
    k = hl.dim
    assert action_matrix(alg, h, hl) == Matrix(tuple(tuple(expected[j][i] for j in range(k)) for i in range(k)), k)


def test_weight_decompose_rejects_a_non_commuting_torus():
    gl2 = builtin("gl", 2)
    space = solve_structures(gl2, HOM_LIE).space
    torus = [gl2.basis_vector(i) for i in (0, 3, 1)]  # E11 and E22 commute; E12 commutes with neither
    assert noncommuting_pair(gl2, torus) == (0, 2)
    assert noncommuting_pair(gl2, torus[:2]) is None
    with pytest.raises(ValueError, match="torus elements 0 and 2 do not commute"):
        weight_decompose(gl2, torus, space)


def test_action_matrix_names_no_generator():
    sl2 = builtin("sl", 2)
    line = Subspace.from_spanning([Matrix.from_sparse(3, 3, {(0, 1): 1}).flatten()], 9)
    with pytest.raises(NotSubmodule, match="^the action moves basis map 0 outside the subspace$") as e:
        action_matrix(sl2, sl2.basis_vector(0), line)
    assert e.value.generator_index is None


def test_action_matrix_checks_h_on_the_zero_subspace():
    with pytest.raises(ValueError, match="requires a lie-flavor algebra"):
        action_matrix(builtin("trunc_poly", 2), (1,), Subspace.zero(4))
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        action_matrix(builtin("sl", 2), (1, 2), Subspace.zero(9))


def test_weight_decompose_checks_the_torus_on_the_zero_subspace():
    sl2 = builtin("sl", 2)
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        weight_decompose(sl2, [(1, 2)], Subspace.zero(9))
    with pytest.raises(ValueError, match="requires a lie-flavor algebra"):
        weight_decompose(builtin("trunc_poly", 2), [(1, 0)], Subspace.zero(4))
    assert weight_decompose(sl2, [sl2.basis_vector(1)], Subspace.zero(9)) == []


def _dense_action_matrix(alg, h, s):
    """The action matrix on s from ``_dense_act``, or the index of the first
    basis map it moves out of s."""
    n, cols = alg.dim, []
    for _, r in s.rows:
        coords = s.coords(_dense_act(alg, h, Matrix.unflatten(r, n, n)).sparse_flatten())
        if coords is None:
            return len(cols)
        cols.append(coords)
    return Matrix.from_sparse(s.dim, s.dim, {(r, k): c for k, col in enumerate(cols) for r, c in enumerate(col) if c})


KERNEL_BATTERY = builtin_battery() + random_lie_battery(count=25)


@pytest.mark.parametrize("name,alg", KERNEL_BATTERY, ids=lambda v: v if isinstance(v, str) else "")
def test_action_kernel_matches_the_multiply_references(name, alg):
    """act, action_matrix, is_submodule and conjugate against R phi - phi R
    and sums of ad^k / k!, both built from ``multiply``, with Fraction
    entries in h, x and phi; a non-Lie algebra is refused by every call."""
    rng = random.Random(f"kernel-{name}")
    n = alg.dim
    h = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    phi = Matrix.from_rows([[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
    full = Subspace.full(n * n)
    if alg.flavor != "lie":
        calls = [lambda: act(alg, h, phi), lambda: action_matrix(alg, h, full),
                 lambda: is_submodule(alg, full), lambda: conjugate(alg, phi, h)]
        for call in calls:
            with pytest.raises(ValueError, match="requires a lie-flavor algebra"):
                call()
        return
    assert act(alg, h, phi) == _dense_act(alg, h, phi)
    line = Subspace.from_spanning([phi.sparse_flatten()], n * n)
    spaces = [solve_structures(alg, HOM_LIE).space, solve_structures(alg, HOM_2NILP).space, line]
    for s in spaces + [full] * (n <= 8):
        assert is_submodule(alg, s) == _dense_is_submodule(alg, s)
        expected = _dense_action_matrix(alg, h, s)
        if isinstance(expected, int):
            with pytest.raises(NotSubmodule) as e:
                action_matrix(alg, h, s)
            assert e.value.basis_index == expected
        else:
            assert action_matrix(alg, h, s) == expected
    for x in [alg.basis_vector(i) for i in range(n)] + [h, tuple(a * F(1, 2) for a in alg.basis_vector(n - 1))]:
        pair = _dense_exp_ad(alg, x)
        if pair is None:
            with pytest.raises(ValueError, match="not nilpotent"):
                conjugate(alg, phi, x)
            continue
        plus, minus = pair
        assert conjugate(alg, phi, x) == minus @ phi @ plus, (name, x)


def _raised_pair(call):
    """The pair of the UndefinedProduct the call raises, or None."""
    try:
        call()
    except UndefinedProduct as e:
        return e.pair
    except ValueError:
        pass
    return None


def test_action_kernel_raises_on_the_undefined_pairs_the_multiplication_matrices_read():
    """On the sl2 window N = 2 each call reads the products of the right
    (act, action_matrix, is_submodule) or left (conjugate) multiplication
    matrix of its element, in their order, so it raises on the same
    undefined pair as building that matrix, or on none."""
    sl2 = builtin("sl", 2)
    pa = km_window(sl2, killing_form(sl2), 2)
    n = pa.dim
    phi, full = Matrix.identity(n), Subspace.full(n * n)
    rights, lefts = [], []
    for i in range(n):
        h = pa.basis_vector(i)
        rights.append(_raised_pair(lambda: pa.right_mul_matrix(h)))
        lefts.append(_raised_pair(lambda: pa.left_mul_matrix(h)))
        assert _raised_pair(lambda: act(pa, h, phi)) == rights[i]
        assert _raised_pair(lambda: action_matrix(pa, h, full)) == rights[i]
        assert _raised_pair(lambda: conjugate(pa, phi, h)) == lefts[i]
    assert _raised_pair(lambda: is_submodule(pa, full)) == next(p for p in rights if p)
    assert None in rights and any(rights) and None in lefts and any(lefts)


def _flip_ad_sign(exp_ad):
    """exp(ad x) with the sign of its ad x term flipped."""
    def mutant(alg, x):
        pair = exp_ad(alg, x)
        if pair is None:
            return None
        ad = [dict(enumerate(alg.multiply(x, alg.basis_vector(c)))) for c in range(alg.dim)]
        return [sparse_lincomb((1, col), (-2, a)) for col, a in zip(pair[0], ad)], pair[1]

    return mutant


def _shift_one_entry(exp_ad):
    """exp(ad x) with 1 added to its entry (0, dim - 1)."""
    def mutant(alg, x):
        pair = exp_ad(alg, x)
        if pair is None:
            return None
        cols = [dict(col) for col in pair[0]]
        cols[-1][0] = cols[-1].get(0, 0) + 1
        return cols, pair[1]

    return mutant


def _dense_conjugation_stability(alg):
    """The conjugation check with each conjugate formed by Matrix products
    from the columns of exp(ad x) and exp(-ad x) that ``battery._exp_ad``
    gives."""
    sol = solve_structures(alg, HOM_LIE)
    n = alg.dim
    for i in range(n):
        pair = battery._exp_ad(alg, alg.basis_vector(i))
        if pair is None:
            continue
        alpha, inv = (Matrix.from_sparse(n, n, {(q, c): v for c, col in enumerate(m) for q, v in col.items()}) for m in pair)
        for phi in sol.basis_maps():
            if not sol.contains_map(inv @ phi @ alpha):
                return f"conjugation by basis vector {i} leaves the space"
    return None


@pytest.mark.parametrize("mutate", [_flip_ad_sign, _shift_one_entry], ids=["ad-sign", "one-entry"])
def test_mutated_exponential_fails_the_conjugation_check(monkeypatch, mutate):
    monkeypatch.setattr(battery, "_exp_ad", mutate(battery._exp_ad))
    caught = 0
    for name, alg in KERNEL_BATTERY:
        if alg.flavor != "lie":
            continue
        verdict = check_conjugation_stability(alg)
        if alg.dim <= 5:
            assert verdict == _dense_conjugation_stability(alg), name
        caught += verdict is not None
    assert caught >= 5

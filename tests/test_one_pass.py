"""Each question is answered in one pass, and the answer of a check is the
input of the step after it.  Every test compares the one-pass result with a
test-local copy of the second pass it replaced."""

from fractions import Fraction

import pytest

from homlie import solver
from homlie.actions import SubmoduleWitness, is_submodule
from homlie.algebra import builtin, killing_form, make_algebra, parse_builtin, sparse_product
from homlie.constructions import check_cyclic_grading, km_window, tensor_lie, twisted_cyclic
from homlie.jordan import ClosureVerdict, closure_check, jordan_product, jordan_structure_constants
from homlie.linalg import Matrix, Subspace
from homlie.scenarios import _current_grid, _random_comm_anticomm_pairs
from homlie.serialize import algebra_to_json
from homlie.solver import HOM_LIE, current_formula_span, solve_structures, tensor_formula_span
from homlie.window import solve_window
from shared import a22_grading


def _units(dim, *indices):
    return Subspace.from_spanning([{i: 1} for i in indices], dim)


# sl3's basis is H1, H2, E12, E13, E21, E23, E31, E32; deg E_ij = j - i mod 4
GRADINGS = [
    pytest.param(builtin("sl", 2), [_units(3, 1), _units(3, 0, 2)], id="sl2-cartan-z2"),
    pytest.param(builtin("sl", 3), list(a22_grading()), id="sl3-a22-z2"),
    pytest.param(
        builtin("sl", 3), [_units(8, 0, 1), _units(8, 2, 5), _units(8, 3, 6), _units(8, 4, 7)], id="sl3-principal-z4"
    ),
]


def _reduced_products(g, grading):
    """Each product of component rows reduced on its own, as the loop
    models did per pair of loop vectors."""
    n = len(grading)
    out = {}
    for i, si in enumerate(grading):
        for j, sj in enumerate(grading):
            for a, (_, u) in enumerate(si.rows):
                for b, (_, v) in enumerate(sj.rows):
                    coords = grading[(i + j) % n].coords(sparse_product(g.rows, u, v))
                    assert coords is not None
                    out[(i, a, j, b)] = tuple((s, c) for s, c in enumerate(coords) if c)
    return out


@pytest.mark.parametrize("g, grading", GRADINGS)
def test_grading_check_returns_the_reduced_products(g, grading):
    constants = check_cyclic_grading(g, grading)
    assert constants == _reduced_products(g, grading)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for terms in constants.values() for _, c in terms)


@pytest.mark.parametrize("g, grading", GRADINGS)
def test_twisted_currents_read_the_grading_constants(g, grading):
    n = len(grading)
    labels = [(deg, s) for deg in range(2 * n) for s in range(grading[deg % n].dim)]
    table = {}
    for p1, (d1, s1) in enumerate(labels):
        for p2, (d2, s2) in enumerate(labels):
            w = sparse_product(g.rows, grading[d1 % n].rows[s1][1], grading[d2 % n].rows[s2][1])
            deg = (d1 + d2) % (2 * n)
            coords = grading[deg % n].coords(w)
            entry = [(labels.index((deg, s)), c) for s, c in enumerate(coords) if c]
            if entry:
                table[(p1, p2)] = entry
    assert twisted_cyclic(g, grading, 2 * n).table == make_algebra(len(labels), table).table


def _window_space(n_window):
    g = builtin("sl", 2)
    return solve_window(km_window(g, killing_form(g), n_window)).full


def _double_pass_constants(sol):
    """The induced algebra from every ordered product formed and reduced again."""
    maps = sol.basis_maps()
    table = {}
    for i, phi in enumerate(maps):
        for j, psi in enumerate(maps):
            coords = sol.space.coords(jordan_product(phi, psi).sparse_flatten())
            entry = [(k, c) for k, c in enumerate(coords) if c]
            if entry:
                table[(i, j)] = entry
    return make_algebra(len(maps), table, flavor="generic-commutative")


@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(lambda: solve_structures(builtin("sl", 2), HOM_LIE), id="sl2"),
        pytest.param(lambda: solve_structures(builtin("sl", 3), HOM_LIE), id="sl3"),
        pytest.param(lambda: solve_structures(tensor_lie(builtin("trunc_poly", 2), builtin("sl", 2)), HOM_LIE),
                     id="sl2(x)trunc_poly:2"),
        pytest.param(lambda: _window_space(2), id="sl2-window-2"),
        pytest.param(lambda: _window_space(3), id="sl2-window-3"),
    ],
)
def test_structure_constants_come_from_the_closure_check(solve):
    sol = solve()
    verdict = closure_check(sol)
    assert verdict.closed
    assert set(verdict.constants) == {(i, j) for i in range(sol.dim) for j in range(i, sol.dim)}
    jalg, reference = jordan_structure_constants(sol, verdict), _double_pass_constants(sol)
    assert (jalg.dim, jalg.flavor, jalg.table) == (reference.dim, reference.flavor, reference.table)
    assert algebra_to_json(jalg) == algebra_to_json(reference)


def test_structure_constants_need_the_checked_coordinates():
    sol = solve_structures(builtin("sl", 2), HOM_LIE)
    with pytest.raises(ValueError):
        jordan_structure_constants(sol, ClosureVerdict(True))


def _loop_is_submodule(alg, s):
    """The submodule test with its own action loop."""
    n = alg.dim
    maps = [Matrix.unflatten(r, n, n) for _, r in s.rows]
    for i in range(n):
        right = alg.right_mul_matrix({i: 1})
        for j, phi in enumerate(maps):
            if not s.contains((right @ phi - phi @ right).sparse_flatten()):
                return SubmoduleWitness(i, j)
    return True


def test_submodule_witnesses_match_the_action_loop():
    sl2 = builtin("sl", 2)
    space = solve_structures(sl2, HOM_LIE).space
    lines = [Subspace.from_spanning([r], 9) for _, r in space.rows]
    pairs = [Subspace.from_spanning([r, s], 9) for (_, r), (_, s) in zip(space.rows, space.rows[1:])]
    verdicts = [is_submodule(sl2, s) for s in [space, *lines, *pairs]]
    assert verdicts == [_loop_is_submodule(sl2, s) for s in [space, *lines, *pairs]]
    assert verdicts[0] is True and any(v is not True for v in verdicts)


def _assembled(monkeypatch, build, *args):
    """``build(*args)`` and the blocks it handed to ``_assemble``."""
    seen = []
    assemble = solver._assemble

    def spy(blocks, ambient):
        seen.append((blocks, ambient))
        return assemble(blocks, ambient)

    monkeypatch.setattr(solver, "_assemble", spy)
    result = build(*args)
    monkeypatch.undo()
    [(blocks, ambient)] = seen
    return result, blocks, ambient


def _running_sum(blocks, ambient):
    running, summands = None, []
    for name, gens in blocks:
        space = Subspace.from_spanning(gens, ambient)
        summands.append((name, space.dim))
        running = space if running is None else running.combine(space)[0]
    return running, tuple(summands)


SPAN_CASES = [
    pytest.param(current_formula_span, parse_builtin(l), parse_builtin(a), id=f"current-{l}-{a}")
    for l, a in _current_grid()
] + [
    pytest.param(tensor_formula_span, a, b, id=label)
    for label, a, b in [
        ("tensor-trunc_poly:2-sl2", builtin("trunc_poly", 2), builtin("sl", 2)),
        ("tensor-trunc_poly:3-nonabelian2", builtin("trunc_poly", 3), builtin("nonabelian2")),
        ("tensor-cyclic_group_alg:2-heisenberg", builtin("cyclic_group_alg", 2), builtin("heisenberg")),
    ]
    + [(f"tensor-random#{k}", a, b) for k, (a, b) in enumerate(_random_comm_anticomm_pairs())]
]


@pytest.mark.parametrize("build, left, right", SPAN_CASES)
def test_span_assembly_equals_the_running_sum(monkeypatch, build, left, right):
    result, blocks, ambient = _assembled(monkeypatch, build, left, right)
    assert (result.space, result.summands) == _running_sum(blocks, ambient)

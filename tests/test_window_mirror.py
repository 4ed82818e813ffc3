"""The mirror of a graded table, found from its grading alone
(``solver._sigma``): the k-th basis vector of degree i goes to the k-th of
degree -i, with signs solved over GF(2).  On a loop window it is
x (x) t^i -> x (x) t^-i, d -> -d, z -> -z.

``solver._solve_shift_blocks`` keeps every block it solves on the algebra,
per kind, and conjugates block -s from a kept block s (the mirror lemma in
its docstring), for every kind it solves.  Checked against the direct
solve of each block, ``solver._solve_block``, on a fresh model: the three
hom kinds on the untwisted, order-2 and order-3 twisted, A2(2), Witt and
Virasoro windows, and the hom and delta kinds on principally graded
sl3..sl6.  A sigma that is not an automorphism fails
``solver._is_mirror``, and the table is then solved block by block, with
the same answers."""

import random
from itertools import combinations

import pytest

from homlie import solver
from homlie.algebra import builtin, killing_form, make_algebra
from homlie.constructions import km_window
from homlie.linalg import Subspace, nullspace_of_rows
from homlie.solver import (HOM_2NILP, HOM_CYCLIC, HOM_LIE, _kept, _mirror, _solve_block, _solve_shift_blocks,
                           delta_derivation, grading_shifts, solve_structures)
from homlie.window import solve_window
from test_unit_rows import Counting, direct_router
from test_window import _sl3, _sl3_twisted, _twisted, _untwisted, _witt


def _affine(name, rank, n):
    g = builtin(name, rank)
    return km_window(g, killing_form(g), n)


def _order3(n):
    """sl2 twisted by the Z/3-grading g0 = <h>, g1 = <e+>, g2 = <e->: the
    k-th loop vector of degree i and of degree -i lie in different
    components, so sigma is the Chevalley involution composed with
    t -> t^-1, with signs no name lookup gives."""
    g = builtin("sl", 2)
    parts = [Subspace.from_spanning([v], 3) for v in ([0, 1, 0], [0, 0, 1], [1, 0, 0])]
    return km_window(g, killing_form(g), n, twist=(parts, 3))


def _regraded(name, rank, degree_of):
    alg = builtin(name, rank)
    grading = [degree_of(basis_name) for basis_name in alg.basis_names]
    return make_algebra(alg.dim, alg.table, basis_names=alg.basis_names, flavor=alg.flavor, grading=grading)


def _principal(n):
    """sl_n graded principally, deg E_ij = j - i: its mirror is E_ij -> +-E_ji, H -> -H."""
    return _regraded("sl", n, lambda name: int(name[2]) - int(name[1]) if name[0] == "E" else 0)


def _block_graded(n):
    """sp_n graded by its blocks, A in degree 0, B in 1, C in -1: no mirror."""
    return _regraded("sp", n, lambda name: {"A": 0, "B": 1, "C": -1}[name[0]])


def _mirrored_table(seed):
    """A random anticommutative table graded in degrees -1, 0, 0, 0, 1 that
    the signed permutation e_u -> s_u e_{pi u}, pi swapping the two ends,
    preserves by construction: each product is chosen together with its
    image, and a product its own image must fix is dropped unless it is
    fixed.  Some of its blocks have basis maps whose entries carry different
    signs s_q s_c, so a conjugation that drops a sign gives another block."""
    rng = random.Random(seed)
    degrees, perm = (-1, 0, 0, 0, 1), (4, 1, 2, 3, 0)
    sign = [rng.choice((1, -1)) for _ in range(4)]
    sign.append(sign[0])
    table = {}
    for p, q in combinations(range(5), 2):
        if (p, q) in table:
            continue
        targets = [k for k in range(5) if degrees[k] == degrees[p] + degrees[q]]
        terms = [(k, rng.choice((-1, 1, 2))) for k in targets if rng.random() < 0.5]
        image = [(perm[k], sign[p] * sign[q] * sign[k] * c) for k, c in terms]
        if {perm[p], perm[q]} == {p, q} and sorted(image) != sorted((k, c if perm[p] == p else -c) for k, c in terms):
            continue
        for (x, y), ts in (((p, q), terms), ((perm[p], perm[q]), image)):
            table[x, y], table[y, x] = ts, [(k, -c) for k, c in ts]
    table = {pq: ts for pq, ts in table.items() if ts}
    return make_algebra(5, table, flavor="generic-anticommutative", grading=degrees)


MODELS = {
    **{f"sl2-{n}": (lambda n=n: _untwisted(n)) for n in range(2, 7)},
    "sl2-twisted-3": lambda: _twisted(3),
    "sl3-2": lambda: _sl3(2),
    "sl3-3": lambda: _sl3(3),
    "so5-2": lambda: _affine("so", 5, 2),
    "sp4-2": lambda: _affine("sp", 4, 2),
    "a22-2": lambda: _sl3_twisted(2),
    "a22-3": lambda: _sl3_twisted(3),
}
ORDER3 = {f"sl2-order3-{n}": (lambda n=n: _order3(n)) for n in (2, 3)}
PRINCIPAL = {f"sl{n}-principal": (lambda n=n: _principal(n)) for n in range(3, 7)}
BLOCK_GRADED = {f"sp{n}-blocks": (lambda n=n: _block_graded(n)) for n in (4, 6)}
MIRRORED = {f"mirrored-{seed}": (lambda seed=seed: _mirrored_table(seed)) for seed in range(8)}
# no d or z: sigma is L_m -> +-L_-m (and c -> -c), found from the table alone
WITT = {**{f"witt-{n}": (lambda n=n: _witt(n)) for n in (2, 3, 5, 8)},
        **{f"virasoro-{n}": (lambda n=n: _witt(n, central=True)) for n in (2, 3, 6, 8)}}
WINDOWS = {**MODELS, **WITT}
HOM_KINDS = [HOM_LIE, HOM_CYCLIC, HOM_2NILP]
DELTA_KINDS = [delta_derivation(d) for d in (1, "1/2", -1)]


def _name_sigma(pa):
    """The loop mirror as it was built from the basis names: the k-th loop
    vector of degree i to the k-th of degree -i, d -> -d and z -> -z."""
    d, z = pa.basis_names.index("d"), pa.basis_names.index("z")
    loops = {}
    for u, deg in enumerate(pa.grading):
        if u not in (d, z):
            loops.setdefault(deg, []).append(u)
    perm, sign = list(range(pa.dim)), [1] * pa.dim
    sign[d] = sign[z] = -1
    for deg, us in loops.items():
        for u, v in zip(us, loops[-deg]):
            perm[u] = v
    return perm, sign


def _direct(pa, shifts):
    """The direct hom-lie solve over ``shifts``: every block compiled by ``_solve_block``."""
    return direct_router(pa, HOM_LIE, shifts, nullspace_of_rows)


@pytest.fixture
def direct_solves(monkeypatch):
    """The shifts of the blocks ``_solve_shift_blocks`` compiles, in order."""
    shifts = []

    def recording(alg, kind, shift, kernel):
        shifts.append(shift)
        return _solve_block(alg, kind, shift, kernel)

    monkeypatch.setattr(solver, "_solve_block", recording)
    return shifts


@pytest.mark.parametrize("name", MODELS)
def test_the_grading_finds_the_loop_mirror(name):
    """On every loop window sigma, signs included, is the one the basis
    names give."""
    pa = MODELS[name]()
    assert solver._sigma(pa) == _name_sigma(pa)
    assert _mirror(pa) == _name_sigma(pa)


DIFFERENTIAL = [(name, kind) for name in [*MODELS, *ORDER3, *WITT] for kind in HOM_KINDS] + \
    [(name, kind) for name in [*PRINCIPAL, *MIRRORED] for kind in HOM_KINDS + DELTA_KINDS] + \
    [(name, kind) for name in BLOCK_GRADED for kind in [HOM_LIE, DELTA_KINDS[0]]]
FACTORIES = {**MODELS, **ORDER3, **WITT, **PRINCIPAL, **MIRRORED, **BLOCK_GRADED}
IDS = [name if name in MODELS and kind == HOM_LIE else f"{name}-{kind}" for name, kind in DIFFERENTIAL]


@pytest.mark.parametrize("name, kind", DIFFERENTIAL, ids=IDS)
def test_mirrored_blocks_are_the_direct_blocks(name, kind, direct_solves, monkeypatch):
    """Over all shifts in ascending order, the shifts s <= 0 are compiled
    and the others conjugated from their kept mirror blocks (all compiled
    where the table has no mirror); every kept block equals ``_solve_block``
    on a fresh model.  On a window, hom-lie through ``solve_window`` shift
    by shift, after which ``solve_structures`` reads no kernel row and
    equals the all-shift ``solve_window``."""
    pa, fresh = FACTORIES[name](), FACTORIES[name]()
    shifts = grading_shifts(pa)
    mirrored = name not in BLOCK_GRADED
    assert (_mirror(pa) is not None) == mirrored
    if name in WINDOWS and kind == HOM_LIE:
        for s in shifts:
            solve_window(pa, s)
    else:
        _solve_shift_blocks(pa, kind, shifts, nullspace_of_rows)
    assert direct_solves == [s for s in shifts if s <= 0 or not mirrored]
    kept = _kept(pa, "blocks", dict)
    for s in shifts:
        assert kept[kind, s] == _solve_block(fresh, kind, s, nullspace_of_rows), s
    if name in WINDOWS and kind == HOM_LIE:
        kernel = Counting()
        monkeypatch.setattr(solver, "nullspace_of_rows", kernel)
        assert solve_structures(pa, HOM_LIE).space == solve_window(pa).full.space == _direct(fresh, shifts)
        assert kernel.rows == 0


def test_some_mirrored_block_carries_two_signs():
    """The differential test above can see a sign: on the random mirrored
    tables, some conjugated hom-lie and delta blocks have a basis map whose
    entries carry different signs s_q s_c under the mirror."""
    kinds = set()
    for make in MIRRORED.values():
        pa = make()
        (perm, sign), n = _mirror(pa), pa.dim
        for kind in HOM_KINDS + DELTA_KINDS:
            space = _solve_shift_blocks(pa, kind, [s for s in grading_shifts(pa) if s], nullspace_of_rows)
            if any(len({sign[j // n] * sign[j % n] for j in row}) > 1 for _, row in space.rows):
                kinds.add(str(kind))
    assert {"hom-lie", "delta:1"} <= kinds


@pytest.mark.parametrize("name", ["sl2-3", "sl2-twisted-3", "sl3-2", "a22-2"])
def test_the_order_of_a_mirror_pair_does_not_matter(name, direct_solves):
    """s before -s and -s before s give the same blocks and reports, each
    block the direct one; the second of each pair is conjugated."""
    for s in (s for s in grading_shifts(MODELS[name]()) if s > 0):
        forward, backward = MODELS[name](), MODELS[name]()
        direct_solves.clear()
        plus, minus = solve_window(forward, s), solve_window(forward, -s)
        minus_first, plus_second = solve_window(backward, -s), solve_window(backward, s)
        assert direct_solves == [s, -s]
        assert (plus.inner, minus.inner) == (plus_second.inner, minus_first.inner)
        assert (plus.full.space, minus.full.space) == (plus_second.full.space, minus_first.full.space)
        assert (plus.full.space, minus.full.space) == (_direct(forward, [s]), _direct(forward, [-s])), s


SIGMA = solver._sigma  # the candidate, kept from before a test patches it


def _mutant_z(pa):
    perm, sign = SIGMA(pa)
    sign[pa.basis_names.index("z")] = 1
    return perm, sign


def _swapped(degrees):
    """sigma with the images of the first loop vectors of two degrees swapped
    (the first two of one degree when both degrees are the same)."""

    def mutant(pa):
        perm, sign = SIGMA(pa)
        u, v = [u for u, d in enumerate(pa.grading) if d == degrees[0]][:2] if degrees[0] == degrees[1] else \
            [pa.grading.index(d) for d in degrees]
        perm[u], perm[v] = perm[v], perm[u]
        return perm, sign

    return mutant


MUTANTS = {"z-to-plus-z": _mutant_z, "two-loop-vectors-swapped": _swapped((1, 1)),
           "degrees-1-and-2-swapped": _swapped((1, 2))}


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("name", ["sl2-3", "sl2-twisted-3", "sl3-2"])
def test_a_mutated_mirror_fails_the_check_and_the_window_is_solved_directly(name, mutant, monkeypatch, direct_solves):
    """Every block and the whole space are the direct ones, and every block
    was solved directly: the check refused the mutant."""
    pa = MODELS[name]()
    monkeypatch.setattr(solver, "_sigma", MUTANTS[mutant])
    shifts = grading_shifts(pa)
    space = solve_window(pa).full.space
    for s in shifts:
        assert _kept(pa, "blocks", dict)[HOM_LIE, s] == _direct(pa, [s]), s
    assert space == _direct(pa, shifts)
    assert solver._is_mirror(pa, *SIGMA(pa)) and not solver._is_mirror(pa, *MUTANTS[mutant](pa))
    assert _mirror(pa) is None and direct_solves == shifts


@pytest.mark.parametrize("n", [2, 3])
def test_an_order_3_twist_gets_the_direct_answer(n):
    """Its mirror passes the check, and every block and the whole space
    are the direct ones, in either order of a mirror pair."""
    pa = _order3(n)
    sigma = solver._sigma(pa)
    assert sigma != _name_sigma(pa) and _mirror(pa) == sigma
    shifts = grading_shifts(pa)
    for s in shifts[::-1]:
        assert solve_window(pa, s).full.space == _direct(pa, [s]), s
    assert solve_window(_order3(n)).full.space == _direct(pa, shifts) == solve_structures(pa, HOM_LIE).space


def test_window_solutions_are_kept_with_their_report(monkeypatch):
    """A repeated ``solve_window`` call returns the same solution, and the
    inner-window report is built once per window and shift."""
    from homlie import window

    calls = []
    report = window._inner_report
    monkeypatch.setattr(window, "_inner_report", lambda *args: calls.append(args[2]) or report(*args))
    pa = _untwisted(3)
    for shift in (None, 1, -1, None, 1):
        first = solve_window(pa, shift)
        assert solve_window(pa, shift) is first
    assert calls == [None, 1, -1]

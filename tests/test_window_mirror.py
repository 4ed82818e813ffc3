"""The window's mirror sigma: x (x) t^i -> x (x) t^-i, d -> -d, z -> -z.

``window._block`` conjugates block -s from a kept block s (the mirror lemma
in its docstring).  Checked against the direct solve of every block, over
the untwisted, order-2 twisted and A2(2) windows; a sigma that is not an
automorphism fails ``window._is_mirror``, and the window is then solved
block by block as before, with the same answers."""

import pytest

from homlie import window
from homlie.algebra import builtin, killing_form
from homlie.constructions import km_window
from homlie.linalg import Subspace, nullspace_of_rows
from homlie.solver import HOM_LIE, _solve_shift_blocks, grading_shifts, solve_structures
from homlie.window import solve_window
from test_window import _sl3, _sl3_twisted, _twisted, _untwisted


def _affine(name, rank, n):
    g = builtin(name, rank)
    return km_window(g, killing_form(g), n)


def _order3(n):
    """sl2 twisted by the Z/3-grading g0 = <h>, g1 = <e+>, g2 = <e->: the
    k-th loop vector of degree i and of degree -i lie in different
    components, so the candidate sigma is not an automorphism."""
    g = builtin("sl", 2)
    parts = [Subspace.from_spanning([v], 3) for v in ([0, 1, 0], [0, 0, 1], [1, 0, 0])]
    return km_window(g, killing_form(g), n, twist=(parts, 3))


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


def _direct(pa, shifts):
    return _solve_shift_blocks(pa, HOM_LIE, shifts, nullspace_of_rows)


@pytest.fixture
def direct_solves(monkeypatch):
    """The shifts ``window`` hands to ``_solve_shift_blocks``, in order."""
    shifts = []

    def recording(pa, kind, block_shifts, kernel):
        shifts.extend(block_shifts)
        return _solve_shift_blocks(pa, kind, block_shifts, kernel)

    monkeypatch.setattr(window, "_solve_shift_blocks", recording)
    return shifts


@pytest.mark.parametrize("name", MODELS)
def test_mirrored_blocks_are_the_direct_blocks(name, direct_solves):
    """The all-shift solve solves the shifts s <= 0 and conjugates the
    others from them; every block equals its direct solve, and the whole
    space is ``solve_structures``'s."""
    pa = MODELS[name]()
    shifts = grading_shifts(pa)
    assert window._mirror(pa) is not None
    space = solve_window(pa).full.space
    assert direct_solves == [s for s in shifts if s <= 0]
    for s in shifts:
        assert window._block(pa, s) == _direct(pa, [s]), s
    assert space == solve_structures(pa, HOM_LIE).space


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


SIGMA = window._sigma  # the candidate, kept from before a test patches it


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
    monkeypatch.setattr(window, "_sigma", MUTANTS[mutant])
    shifts = grading_shifts(pa)
    space = solve_window(pa).full.space
    for s in shifts:
        assert window._block(pa, s) == _direct(pa, [s]), s
    assert space == _direct(pa, shifts)
    assert window._is_mirror(pa, *SIGMA(pa)) and not window._is_mirror(pa, *MUTANTS[mutant](pa))
    assert window._mirror(pa) is None and direct_solves == shifts


@pytest.mark.parametrize("n", [2, 3])
def test_an_order_3_twist_gets_the_direct_answer(n):
    """Whichever way its check goes, every block and the whole space are the
    direct ones, in either order of a mirror pair."""
    pa = _order3(n)
    assert window._sigma(pa) is not None  # a candidate exists, so the check decides
    shifts = grading_shifts(pa)
    for s in shifts[::-1]:
        assert solve_window(pa, s).full.space == _direct(pa, [s]), s
    assert solve_window(_order3(n)).full.space == _direct(pa, shifts) == solve_structures(pa, HOM_LIE).space

"""Differential test of the one copy of a subspace's rows.

The kernel writes a solved subspace's entries as ints when integral and as
Fractions otherwise.  Every subspace the solvers return is compared with
the same subspace rebuilt from Fraction rows: the two must be equal, hash
equal, and agree on ``contains``, ``coords``, ``is_subspace_of`` and
``combine``, and no stored entry may be an integral Fraction or a float.
"""

from fractions import Fraction

import pytest

from homlie.algebra import parse_builtin
from homlie.battery import builtin_battery, random_lie_battery
from homlie.linalg import Subspace
from homlie.solver import BILINEAR_KINDS, parse_kind, seq_uv, solve_bilinear, solve_qder, solve_structures
from homlie.window import solve_window, window_shifts
from test_window import WINDOW_MODELS

F = Fraction
KINDS = ("hom-lie", "hom-cyclic", "hom-2nilp", "delta:1", "delta:1/2", "delta:2")
# The rows a check reads, spread over the space, and the scales its probes use.
PROBE_ROWS = 8
SCALES = (1, -2, F(1, 3), F(-5, 2))


def is_exact_entry(x):
    """Whether x is an entry as the kernel stores it: an int when integral, else a Fraction."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def _fraction_copy(s: Subspace) -> Subspace:
    return Subspace(s.ambient, [(p, {j: F(x) for j, x in r.items()}) for p, r in s.rows])


def _check(s: Subspace) -> None:
    assert all(is_exact_entry(x) for _, r in s.rows for x in r.values())
    copy = _fraction_copy(s)
    assert all(type(x) is Fraction for _, r in copy.rows for x in r.values())
    assert copy == s and hash(copy) == hash(s)

    rows = [r for _, r in s.rows[::-(-s.dim // PROBE_ROWS) or 1]]
    pivots = set(s.pivot_cols())
    free = [f for f in range(s.ambient) if f not in pivots][:2]
    probes = rows + [{f: 1} for f in free]
    mixed: dict = {}
    for c, r in zip(SCALES * len(rows), rows):
        for j, x in r.items():
            mixed[j] = mixed.get(j, 0) + c * x
    probes.append({j: x for j, x in mixed.items() if x})
    if rows and free:
        probes.append({**rows[0], free[0]: F(7, 4)})
    for v in probes:
        assert s.contains(v) == copy.contains(v)
        coords = s.coords(v)
        assert coords == copy.coords(v)
        assert coords is None or all(type(c) is Fraction for c in coords)

    other = Subspace.from_spanning(rows[::2] + [{f: 1} for f in free], s.ambient)
    other_copy = _fraction_copy(other)
    for a, b in ((s, other), (other, s)):
        assert a.is_subspace_of(b) == _fraction_copy(a).is_subspace_of(_fraction_copy(b))
    assert s.is_subspace_of(copy) and copy.is_subspace_of(s)
    combined = s.combine(other)
    assert combined == copy.combine(other_copy) == copy.combine(other)
    assert all(is_exact_entry(x) for t in combined for _, r in t.rows for x in r.values())


def _lie_spaces(alg):
    yield from (solve_bilinear(alg, kind) for kind in BILINEAR_KINDS)
    yield from (solve_qder(alg, module).space for module in ("adjoint", "coadjoint"))
    report = seq_uv(alg)
    yield from (report.u_image, report.v_kernel)


BATTERY = [pytest.param(alg, id=name) for name, alg in builtin_battery() + random_lie_battery()]


@pytest.mark.parametrize("alg", BATTERY)
def test_battery_spaces_store_one_exact_copy(alg):
    for kind in KINDS:
        _check(solve_structures(alg, parse_kind(kind)).space)
    if alg.flavor == "lie":
        for space in _lie_spaces(alg):
            _check(space)


@pytest.mark.parametrize("name", ["sl5", "sl6", "sl7", "so7", "sp6"])
def test_ladder_spaces_store_one_exact_copy(name):
    alg = parse_builtin(name)
    for kind in KINDS:
        _check(solve_structures(alg, parse_kind(kind)).space)


@pytest.mark.parametrize("model, n_window", WINDOW_MODELS)
def test_window_spaces_store_one_exact_copy(model, n_window):
    pa = model(n_window)
    for shift in [None, *window_shifts(pa)]:
        _check(solve_window(pa, shift).full.space)


def test_a_fraction_row_copy_is_told_apart_only_by_its_entries_types():
    """The check above can fail: a space with a non-integral entry keeps it
    a Fraction, and an integral Fraction entry is caught."""
    s = Subspace.from_spanning([{0: 2, 1: 1}, {2: 3, 3: 2}], 4)
    assert s.rows == ((0, {0: 1, 1: F(1, 2)}), (2, {2: 1, 3: F(2, 3)}))
    assert [type(x) for _, r in s.rows for x in r.values()] == [int, Fraction, int, Fraction]
    copy = _fraction_copy(s)
    assert copy == s and not all(is_exact_entry(x) for _, r in copy.rows for x in r.values())
    with pytest.raises(AssertionError):
        _check(copy)

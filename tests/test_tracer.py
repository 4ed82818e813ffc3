"""The benchmark's span tracer patches names inside the package; a refactor
that drops one of them must fail here, not in a later traced benchmark run."""

import importlib.util
from pathlib import Path

import homlie
from homlie import algebra, builtin, killing_form, km_window, linalg, serialize, solver, window

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_uninstalls():
    originals = (window.nullspace_of_rows, window._inner_report, algebra.AlgebraSpec.multiply,
                 serialize.partial_to_json, solver.solve_structures)
    tracer = _tracer()
    tracer.install()
    try:
        assert window.nullspace_of_rows is not linalg.nullspace_of_rows
        assert solver.nullspace_of_rows is not linalg.nullspace_of_rows
        g = builtin("sl", 2)
        window.solve_window(km_window(g, killing_form(g), 2), 0)
    finally:
        tracer.uninstall()
    assert (window.nullspace_of_rows, window._inner_report, algebra.AlgebraSpec.multiply,
            serialize.partial_to_json, solver.solve_structures) == originals
    # the shift block's rows are charged to the window's compiler
    assert tracer.counts["window.blocks"] == 1
    assert tracer.counts["linalg.rows_in"] > 0
    assert tracer.agg["window.compile"][0] > 0 and "solver.compile" not in tracer.agg


def test_package_names_follow_the_patched_modules():
    """``homlie.<name>`` is read from its module on each use, so the tracer's
    wrapper shows through the package while installed and is gone after."""
    original = homlie.solve_structures
    tracer = _tracer()
    tracer.install()
    try:
        assert homlie.solve_structures is solver.solve_structures is not original
    finally:
        tracer.uninstall()
    assert homlie.solve_structures is solver.solve_structures is original
    assert "solve_structures" not in vars(homlie)


def test_an_all_shift_window_solve_charges_each_block_to_the_window():
    """Over all shifts, each block K does not fill and whose mirror block
    is not already kept is one system, and every row its kernel reads is
    charged to the window's compiler; the blocks conjugated from their
    mirrors compile nothing."""
    g = builtin("sl", 2)
    pa = km_window(g, killing_form(g), 3)
    deg, shifts = pa.grading, solver.grading_shifts(pa)
    assert solver._mirror(pa) is not None
    kept, open_blocks = set(), 0
    for s in shifts:  # solve_window solves the shifts in this order
        size = sum(deg[q] == deg[c] + s for q in range(pa.dim) for c in range(pa.dim))  # the block's columns
        if solver._known_block(pa, solver.HOM_LIE, s).dim < size:
            open_blocks += -s not in kept
        kept.add(s)
    tracer = _tracer()
    tracer.install()
    try:
        window.solve_window(pa)
    finally:
        tracer.uninstall()
    assert tracer.counts["window.blocks"] == tracer.counts["linalg.systems"] == open_blocks > 1
    assert "solver.compile" not in tracer.agg
    assert tracer.agg["window.compile"][0] >= tracer.counts["linalg.rows_in"] > 0

"""Workload inputs, job lists and the correctness oracle.

A job is a name, a call into ``homlie`` and a summary of its result that
is compared with the answer pinned in ``pinned.json``.  Calls go through
module attributes looked up at call time (``homlie.solve_structures``), so
the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

LADDER = (
    [(alg, "hom-lie") for alg in ("sl3", "sl4", "sl5", "sl6", "so5", "so7", "sp4", "sp6")]
    + [(alg, kind) for alg in ("sl4", "sl5", "so7", "sp6") for kind in ("hom-cyclic", "hom-2nilp", "delta:2")]
)

# `reproduce --all` exits 1 at the seed commit: lemma-2.5-sl2 reports `fail`
# (a false claim on sl2, documented in the README).  The pinned digest and
# exit code keep that status; any other status change fails the job.
CLI_COMMANDS = [
    "reproduce --all --json",
    "solve --algebra sl5 --json",
    "bilinear --algebra sl4",
    "qder --algebra sl4 --module coadjoint",
    "decompose --algebra sl2 --triple 0,1,2 --json",
    "jordan --counterexample --json",
    "window --algebra sl2 --window 3 --json",
    "validate --algebra perfbench/data/sl3.json",
]
KNOWN_RED = {"lemma-2.5-sl2": "fail"}

BATTERY_MAX_DIM = 8
# 25 random algebras in all, as many as random_lie_battery's default.
RANDOM_PER_DIM = {3: 7, 4: 11, 5: 7}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], object]


def digest(space) -> str:
    """sha256 of a canonical RREF basis, entries written as p/q."""
    text = "\n".join(",".join(f"{x.numerator}/{x.denominator}" for x in row) for row in space.basis.data)
    return hashlib.sha256(f"{space.ambient}:{text}".encode()).hexdigest()


def order(jobs: list, seed: int, pass_index: int) -> list:
    """The seed permutes job order; each pass gets its own permutation."""
    out = list(jobs)
    random.Random(f"{seed}/{pass_index}").shuffle(out)
    return out


def _ladder_jobs(seed: int) -> list[Job]:
    import homlie
    from homlie.solver import parse_kind

    algebras = {name: homlie.parse_builtin(name) for name in dict.fromkeys(a for a, _ in LADDER)}

    def job(alg_name: str, kind_text: str) -> Job:
        alg, kind = algebras[alg_name], parse_kind(kind_text)
        return Job(
            f"{alg_name} {kind_text}",
            lambda: homlie.solve_structures(alg, kind),
            lambda sol: {"dim": sol.dim, "basis_sha256": digest(sol.space)},
        )

    return [job(a, k) for a, k in LADDER]


def _window_models() -> dict:
    import homlie

    g = homlie.builtin("sl", 2)
    form = homlie.killing_form(g)
    models = {f"N={n}": homlie.km_window(g, form, n) for n in range(2, 7)}
    g0 = homlie.Subspace.from_spanning([[0, 1, 0]], 3)
    g1 = homlie.Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    models["twisted N=3"] = homlie.km_window(g, form, 3, twist=([g0, g1], 2))
    return models


def _window_summary(pa, sol) -> dict:
    import homlie

    space = sol.full.space
    return {
        "dim": space.dim,
        "basis_sha256": digest(space),
        "identity_member": space.contains(homlie.Matrix.identity(pa.dim).flatten()),
        "central_members": "".join("1" if space.contains(c.flatten()) else "0" for c in homlie.central_maps(pa)),
        "inner_report": sol.inner.to_json(),
    }


def _window_jobs(seed: int) -> list[Job]:
    import homlie
    from homlie.window import window_shifts

    jobs = []
    for model, pa in _window_models().items():
        for shift in window_shifts(pa):
            jobs.append(
                Job(
                    f"{model} shift={shift}",
                    lambda pa=pa, shift=shift: homlie.solve_window(pa, shift),
                    lambda sol, pa=pa: _window_summary(pa, sol),
                )
            )
    return jobs


def _random_algebras(seed: int) -> list:
    """The first algebras of each dimension that ``random_lie_battery(seed)``
    generates, RANDOM_PER_DIM[d] of dimension d.

    A check's cost is set mostly by the dimension (dim 5 costs about seven
    times dim 3), and a plain ``random_lie_battery(count=25)`` has from 3 to
    12 algebras of a given dimension depending on the seed.  Fixing the
    count per dimension makes every seed do about the same work while the
    seed still chooses the algebras."""
    from homlie import battery

    count = 4 * sum(RANDOM_PER_DIM.values())
    while True:
        picked: dict[int, list] = {d: [] for d in RANDOM_PER_DIM}
        for name, alg in battery.random_lie_battery(count=count, seed=seed):
            if len(picked.get(alg.dim, ())) < RANDOM_PER_DIM.get(alg.dim, 0):
                picked[alg.dim].append((name, alg))
        if all(len(picked[d]) == n for d, n in RANDOM_PER_DIM.items()):
            return [pair for d in sorted(picked) for pair in picked[d]]
        count *= 2


def _battery_jobs(seed: int) -> list[Job]:
    """One job per (algebra, property check), in ``run_property_suite``'s
    order and with its per-check rng, so that a pass computes exactly the
    rows ``run_property_suite(algebras, seed)`` returns."""
    from homlie import battery

    algebras = battery.lie_battery(max_dim=BATTERY_MAX_DIM) + _random_algebras(seed)

    def job(name: str, alg, index: int, prop: str) -> Job:
        def run():
            rng = random.Random((seed, name, prop).__repr__())
            return battery.PROPERTY_CHECKS[index][1](alg, rng)

        return Job(f"{name} {prop}", run, lambda failure: BATTERY_EXPECTED if failure is None else failure)

    return [job(name, alg, i, prop) for name, alg in algebras for i, (prop, _) in enumerate(battery.PROPERTY_CHECKS)]


SETUP = {"ladder": _ladder_jobs, "window": _window_jobs, "battery": _battery_jobs}


# The battery's algebras depend on the seed, so its answer is not pinned
# per job: every property check must hold (return None).
BATTERY_EXPECTED = "all checks hold"


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def expected(pinned: dict, workload: str, name: str):
    return BATTERY_EXPECTED if workload == "battery" else pinned[workload].get(name)

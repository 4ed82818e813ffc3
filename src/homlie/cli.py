"""Command-line front end.

Exit codes: 0 on success or pass, 1 when a computed result misses a stated
expectation, 2 on usage errors (unknown flags, unknown algebra, bad files).
`--json` switches every subcommand to machine-readable output with sorted
keys; two runs over the same inputs produce byte-identical documents.
Each command imports the modules it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .algebra import AlgebraSpec
    from .linalg import Subspace

USAGE_ERROR = 2
EXPECTATION_FAILURE = 1


class UsageError(Exception):
    pass


def _read_json(path: str, flag: str):
    """The JSON document in the file ``path``, given with ``flag``; a file
    that cannot be read or parsed is a usage error."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise UsageError(f"{flag}: cannot read JSON file {path}: {e}")


def _resolve_algebra(spec: str) -> AlgebraSpec:
    from .algebra import parse_builtin
    from .serialize import algebra_from_json

    if spec.endswith(".json") or Path(spec).is_file():
        doc = _read_json(spec, "--algebra")
        try:
            return algebra_from_json(doc)
        except (KeyError, TypeError, ValueError) as e:
            raise UsageError(f"cannot read algebra file {spec}: {e}")
    try:
        return parse_builtin(spec)
    except ValueError as e:
        raise UsageError(str(e))


def _resolve_lie(spec: str, command: str) -> AlgebraSpec:
    alg = _resolve_algebra(spec)
    if alg.flavor != "lie":
        raise UsageError(f"--algebra: {command} needs a lie algebra, and {spec} has flavor {alg.flavor!r}")
    return alg


def _emit(doc, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(human)


def _parse_kind(text: str):
    from .solver import parse_kind

    try:
        return parse_kind(text)
    except ValueError as e:
        raise UsageError(f"--kind: {e}")


def _cmd_solve(args) -> int:
    from .serialize import algebra_to_json, solution_to_json
    from .solver import solve_structures

    alg = _resolve_algebra(args.algebra)
    kind = _parse_kind(args.kind)
    sol = solve_structures(alg, kind)
    doc = solution_to_json(str(kind), algebra_to_json(alg), sol.space)
    _emit(doc, args.json, f"{args.kind} on {args.algebra}: solution space of dim {sol.dim}")
    return 0


def _cmd_bilinear(args) -> int:
    from .algebra import BILINEAR_KINDS
    from .serialize import algebra_to_json, solution_to_json
    from .solver import solve_bilinear

    alg = _resolve_lie(args.algebra, "bilinear")
    if args.kind not in BILINEAR_KINDS:
        raise UsageError(f"unknown bilinear kind {args.kind!r}; choose from {', '.join(BILINEAR_KINDS)}")
    space = solve_bilinear(alg, args.kind)
    doc = solution_to_json(args.kind, algebra_to_json(alg), space)
    _emit(doc, args.json, f"{args.kind} forms on {args.algebra}: dim {space.dim}")
    return 0


def _cmd_qder(args) -> int:
    from .serialize import algebra_to_json, subspace_to_json
    from .solver import solve_qder

    alg = _resolve_lie(args.algebra, "qder")
    sol = solve_qder(alg, args.module)
    d_dim = sol.d_component().dim
    doc = {
        "algebra": algebra_to_json(alg),
        "module": args.module,
        "pairs_dim": sol.dim,
        "d_component_dim": d_dim,
        "pairs_basis": subspace_to_json(sol.space)["basis"],
    }
    _emit(doc, args.json, f"quasiderivation pairs on {args.algebra} ({args.module}): dim {sol.dim}, "
                          f"D-component dim {d_dim}")
    return 0


def _parse_indices(flag: str, text: str, dim: int) -> list[int]:
    try:
        idx = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated indices, got {text!r}")
    bad = [i for i in idx if not 0 <= i < dim]
    if bad:
        raise UsageError(f"{flag}: basis index {bad[0]} out of range for dim {dim}")
    return idx


def _cmd_decompose(args) -> int:
    from .actions import is_sl2_triple, noncommuting_pair, sl2_decompose, weight_decompose
    from .serialize import algebra_to_json, format_scalar
    from .solver import solve_structures

    alg = _resolve_lie(args.algebra, "decompose")
    kind = _parse_kind(args.kind)
    torus_idx = None if args.torus is None else _parse_indices("--torus", args.torus, alg.dim)
    if torus_idx == [] or (torus_idx is None and args.triple is None):
        raise UsageError("decompose needs a nonempty --torus and/or --triple")
    if torus_idx is not None:
        torus = [alg.basis_vector(i) for i in torus_idx]
        pair = noncommuting_pair(alg, torus)
        if pair:
            i, j = (torus_idx[k] for k in pair)
            raise UsageError(f"--torus: basis vectors {i} and {j} do not commute")
    if args.triple is not None:
        idx = _parse_indices("--triple", args.triple, alg.dim)
        if len(idx) != 3:
            raise UsageError("--triple needs exactly three indices")
        triple = tuple(alg.basis_vector(i) for i in idx)
        if not is_sl2_triple(alg, *triple):
            raise UsageError(
                f"--triple: basis vectors {args.triple} are not a triple (lower, h, raiser) with "
                "[lower, h] = -lower, [raiser, h] = raiser, [lower, raiser] = h"
            )
    sol = solve_structures(alg, kind)
    doc: dict = {"algebra": algebra_to_json(alg), "kind": args.kind, "space_dim": sol.dim}
    lines = [f"{args.kind} space on {args.algebra}: dim {sol.dim}"]
    if torus_idx is not None:
        comps = weight_decompose(alg, torus, sol.space)
        doc["weights"] = [
            {"weight": [format_scalar(w) for w in c.weight], "dim": c.component.dim} for c in comps
        ]
        lines += [f"  weight {tuple(str(w) for w in c.weight)}: dim {c.component.dim}" for c in comps]
    if args.triple is not None:
        dims = sl2_decompose(alg, triple, sol.space)  # type: ignore[arg-type]
        doc["irreducible_dims"] = dims
        lines.append(f"  irreducible dims: {dims}")
    _emit(doc, args.json, "\n".join(lines))
    return 0


def _cmd_jordan(args) -> int:
    from .jordan import closure_check, counterexample_suite, jordan_identity_defect, jordan_structure_constants
    from .serialize import algebra_to_json, format_scalar
    from .solver import HOM_LIE, solve_structures

    if args.counterexample:
        rep = counterexample_suite()
        ok = rep.phi_member and rep.psi_member and not rep.product_member
        _emit(
            {"counterexample": rep.to_json(), "verified": ok},
            args.json,
            f"non-closure witness at truncation order {rep.truncation_order}, "
            f"triple {rep.violating_triple}: verified={ok}",
        )
        return 0 if ok else EXPECTATION_FAILURE
    if args.algebra is None:
        raise UsageError("jordan needs --algebra or --counterexample")
    alg = _resolve_algebra(args.algebra)
    sol = solve_structures(alg, HOM_LIE)
    verdict = closure_check(sol)
    doc: dict = {"algebra": algebra_to_json(alg), "space_dim": sol.dim, "closed": verdict.closed}
    if verdict.closed and sol.dim:
        jalg = jordan_structure_constants(sol, verdict)
        defect = jordan_identity_defect(jalg)
        doc["jordan_identity_holds"] = defect is None
        doc["structure_constants"] = algebra_to_json(jalg)["table"]
        human = (f"structure space on {args.algebra} (dim {sol.dim}) is closed; "
                 f"jordan identity holds: {defect is None}")
    elif verdict.closed:
        human = f"structure space on {args.algebra} is zero; trivially closed"
    else:
        w = verdict.witness
        doc["witness"] = {
            "pair": [w.phi_index, w.psi_index],
            "violating_triple": list(w.violating_triple),
            "residual": [format_scalar(x) for x in w.residual],
        }
        human = (f"structure space on {args.algebra} is NOT closed: product of basis maps "
                 f"{w.phi_index},{w.psi_index} fails at triple {w.violating_triple}")
    _emit(doc, args.json, human)
    return 0


def _load_twist(path: str, dim: int):
    from .linalg import Subspace
    from .serialize import parse_scalar

    doc = _read_json(path, "--twist")
    n = doc.get("n") if isinstance(doc, dict) else None
    if type(n) is not int or n < 1:  # bool is a subclass of int
        raise UsageError(f"--twist: field 'n' of {path} must be an integer >= 1, got {n!r}")
    try:
        comps = []
        for vectors in doc["components"]:
            comps.append(
                Subspace.from_spanning(
                    [tuple(parse_scalar(x) for x in v) for v in vectors], dim
                )
            )
        return comps, n
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"--twist: cannot read twist file {path}: {e}")


def _window_dim(dim: int, n_window: int, twist: tuple[list[Subspace], int] | None) -> int:
    """The dim of ``km_window``'s window, without building it: d and z, plus
    for each degree i in -N..N the twist component of degree i mod n (all
    of g untwisted), of which -N..N holds (N - r) // n - (-N - 1 - r) // n
    copies of residue r."""
    dims = [c.dim for c in twist[0]] if twist else [dim]
    n = len(dims)
    return 2 + sum(d * ((n_window - r) // n - (-n_window - 1 - r) // n) for r, d in enumerate(dims))


def _cmd_window(args) -> int:
    from .algebra import MAX_DIM, killing_form
    from .constructions import km_window
    from .linalg import Matrix
    from .serialize import partial_to_json
    from .window import solve_window

    if args.window < 2:
        raise UsageError(f"--window must be at least 2, got {args.window}")
    alg = _resolve_lie(args.algebra, "window")
    twist = _load_twist(args.twist, alg.dim) if args.twist else None
    dim = _window_dim(alg.dim, args.window, twist)
    if dim > MAX_DIM:
        raise UsageError(f"--window: the window has dim {dim}, above the bound of {MAX_DIM}")
    try:
        pa = km_window(alg, killing_form(alg), args.window, twist=twist)
    except ValueError as e:
        raise UsageError(f"{'--twist' if twist else '--algebra'}: {e}")
    try:
        sol = solve_window(pa, args.shift)
    except ValueError as e:
        raise UsageError(f"--shift: {e}")
    ident_in = sol.full.space.contains(Matrix.identity(pa.dim).sparse_flatten())
    doc = {
        "window_algebra": partial_to_json(pa),
        "shift": args.shift,
        "solution_dim": sol.full.dim,
        "identity_member": ident_in,
        "inner_report": sol.inner.to_json(),
    }
    _emit(
        doc,
        args.json,
        f"window N={args.window} on {args.algebra}: ambient dim {pa.dim}, solution dim {sol.full.dim}, "
        f"identity member: {ident_in}\ninner report: {sol.inner.to_json()}",
    )
    return 0


def _cmd_reproduce(args) -> int:
    from .scenarios import run_all

    if args.all == (args.id is not None):
        raise UsageError("give exactly one of a scenario id or --all")
    results = run_all() if args.all else [run_scenario_checked(args.id)]
    doc = {"results": [r.to_json() for r in results]}
    _emit(doc, args.json, "\n".join(f"[{r.status.upper():11}] {r.id}: {r.description}" for r in results))
    return 0 if all(r.status != "fail" for r in results) else EXPECTATION_FAILURE


def run_scenario_checked(scenario_id: str):
    from .scenarios import run_scenario

    try:
        return run_scenario(scenario_id)
    except KeyError:
        raise UsageError(f"unknown scenario {scenario_id!r}; see `homlie list`")


def _cmd_validate(args) -> int:
    from .algebra import LawViolation
    from .serialize import algebra_from_json, format_scalar

    doc = _read_json(args.algebra, "--algebra")
    try:
        alg = algebra_from_json(doc)
    except LawViolation as e:
        _emit(
            {"valid": False, "law": e.law, "witness": list(e.witness),
             "residual": [format_scalar(x) for x in e.residual]},
            args.json,
            f"INVALID: {e.law} fails on basis tuple {e.witness}",
        )
        return EXPECTATION_FAILURE
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"malformed algebra description: {e}")
    _emit(
        {"valid": True, "dim": alg.dim, "flavor": alg.flavor},
        args.json,
        f"valid {alg.flavor} algebra of dim {alg.dim}",
    )
    return 0


def _cmd_list(args) -> int:
    from .algebra import BILINEAR_KINDS, builtin_names
    from .scenarios import scenario_ids

    doc = {
        "builtins": builtin_names(),
        "structure_kinds": ["hom-lie", "hom-cyclic", "hom-2nilp", "delta:<p/q>"],
        "bilinear_kinds": list(BILINEAR_KINDS),
        "scenarios": scenario_ids(),
    }
    human = [
        f"builtin algebras: {', '.join(doc['builtins'])}",
        f"structure kinds:  {', '.join(doc['structure_kinds'])}",
        f"bilinear kinds:   {', '.join(doc['bilinear_kinds'])}",
        "scenarios:",
        *(f"  {sid}" for sid in doc["scenarios"]),
    ]
    _emit(doc, args.json, "\n".join(human))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .algebra import BILINEAR_KINDS

    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact computation of twisted-structure spaces on structure-constant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("--algebra", required=True, help="builtin name (sl2, trunc_poly:3, ...) or JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", help="solve a structure-kind identity")
    common(p)
    p.add_argument("--kind", default="hom-lie", help="hom-lie | hom-cyclic | hom-2nilp | delta:<p/q>")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bilinear", help="solve a bilinear-form identity")
    common(p)
    p.add_argument("--kind", default="asym-cocycle", help=" | ".join(BILINEAR_KINDS))
    p.set_defaults(fn=_cmd_bilinear)

    p = sub.add_parser("qder", help="quasiderivation pairs")
    common(p)
    p.add_argument("--module", default="adjoint", choices=["adjoint", "coadjoint"])
    p.set_defaults(fn=_cmd_qder)

    p = sub.add_parser("decompose", help="weight/irreducible decomposition of a solved space")
    common(p)
    p.add_argument("--kind", default="hom-lie")
    p.add_argument("--torus", help="comma-separated basis indices acting as a torus")
    p.add_argument("--triple", help="three basis indices forming a 3-dim simple triple")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("jordan", help="closure under the symmetrized product")
    p.add_argument("--algebra", help="builtin name or JSON file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--counterexample", action="store_true", help="run the non-closure construction")
    p.set_defaults(fn=_cmd_jordan)

    p = sub.add_parser("window", help="solve over a degree-truncated loop model")
    common(p)
    p.add_argument("--window", type=int, required=True, help="degree bound N >= 2")
    p.add_argument("--shift", type=int, help="restrict to one degree shift")
    p.add_argument("--twist", help="JSON file with a cyclic grading {n, components}")
    p.set_defaults(fn=_cmd_window)

    p = sub.add_parser("reproduce", help="run registered verification scenarios")
    p.add_argument("id", nargs="?", help="scenario id")
    p.add_argument("--all", action="store_true", help="run every scenario")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("validate", help="validate an algebra JSON file")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("list", help="list builtins, kinds and scenarios")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    from .algebra import LawViolation

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (LawViolation, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXPECTATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import homlie
from homlie import builtin, constructions, killing_form, km_window, serialize
from homlie.cli import _window_dim, main
from homlie.linalg import Subspace
from homlie.algebra import FLAVORS
from homlie.serialize import MAX_DIM
from homlie.solver import BILINEAR_KINDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_solve_json_contract(capsys):
    code, doc = run_json(capsys, "solve", "--algebra", "sl2", "--kind", "hom-lie")
    assert code == 0
    assert doc["dim"] == 6
    assert doc["kind"] == "hom-lie"
    assert len(doc["basis_maps"]) == 6


def test_solve_unknown_algebra_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--algebra", "does-not-exist")
    assert code == 2
    assert "does-not-exist" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_solve_delta_kind(capsys):
    code, doc = run_json(capsys, "solve", "--algebra", "sl2", "--kind", "delta:1")
    assert code == 0 and doc["dim"] == 3


def test_bilinear(capsys):
    code, doc = run_json(capsys, "bilinear", "--algebra", "sl3", "--kind", "asym-cocycle")
    assert code == 0 and doc["dim"] == 8
    code, _, err = run_cli(capsys, "bilinear", "--algebra", "sl2", "--kind", "nope")
    assert code == 2


def test_qder(capsys):
    code, doc = run_json(capsys, "qder", "--algebra", "sl2")
    assert code == 0
    assert doc["pairs_dim"] == 9 and doc["d_component_dim"] == 9


def test_decompose(capsys):
    code, doc = run_json(capsys, "decompose", "--algebra", "sl2", "--torus", "1", "--triple", "0,1,2")
    assert code == 0
    assert doc["irreducible_dims"] == [5, 1]
    weights = {tuple(w["weight"]): w["dim"] for w in doc["weights"]}
    assert weights[("0/1",)] == 2
    code, out, err = run_cli(capsys, "decompose", "--algebra", "sl2")
    assert code == 2  # needs --torus or --triple


def test_jordan_closed(capsys):
    code, doc = run_json(capsys, "jordan", "--algebra", "sl2")
    assert code == 0
    assert doc["closed"] is True and doc["jordan_identity_holds"] is True


def test_jordan_counterexample(capsys):
    code, doc = run_json(capsys, "jordan", "--counterexample")
    assert code == 0
    assert doc["verified"] is True
    assert doc["counterexample"]["truncation_order"] <= 8


def test_jordan_on_a_commutative_table(capsys, tmp_path):
    # the witness triple repeats an index, which an alternating form never would
    f = tmp_path / "comm.json"
    f.write_text(json.dumps({"dim": 3, "flavor": "generic-commutative", "table": [
        [0, 2, [[1, "1"]]], [2, 0, [[1, "1"]]], [1, 2, [[2, "-1"]]], [2, 1, [[2, "-1"]]]]}))
    code, doc = run_json(capsys, "jordan", "--algebra", str(f))
    assert code == 0
    assert doc["space_dim"] == 1 and doc["closed"] is False
    assert doc["witness"] == {"pair": [0, 0], "violating_triple": [0, 0, 2], "residual": ["0/1", "0/1", "-2/1"]}


def test_window(capsys, tmp_path):
    code, doc = run_json(capsys, "window", "--algebra", "sl2", "--window", "2")
    assert code == 0
    assert doc["solution_dim"] == 18
    assert doc["identity_member"] is True
    assert doc["inner_report"]["excess_dim"] == 0
    twist = {"n": 2, "components": [[["0", "1", "0"]], [["1", "0", "0"], ["0", "0", "1"]]]}
    tw_file = tmp_path / "twist.json"
    tw_file.write_text(json.dumps(twist))
    code, doc = run_json(capsys, "window", "--algebra", "sl2", "--window", "2", "--twist", str(tw_file))
    assert code == 0
    assert doc["window_algebra"]["partial"] is True


def test_validate(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "dim": 2, "flavor": "lie", "basis": ["x", "y"],
        "table": [[0, 1, [[0, "1/1"]]], [1, 0, [[0, "-1/1"]]]],
    }))
    code, doc = run_json(capsys, "validate", "--algebra", str(good))
    assert code == 0 and doc["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "flavor": "lie", "table": [[0, 0, [[0, "1/1"]]]]}))
    code, doc = run_json(capsys, "validate", "--algebra", str(bad))
    assert code == 1 and doc["valid"] is False and doc["law"] == "anticommutativity"

    code, out, err = run_cli(capsys, "validate", "--algebra", str(tmp_path / "missing.json"))
    assert code == 2


def test_solve_from_file(capsys, tmp_path):
    f = tmp_path / "alg.json"
    f.write_text(json.dumps({
        "dim": 2, "flavor": "lie", "basis": ["x", "y"],
        "table": [[0, 1, [[0, "1/1"]]], [1, 0, [[0, "-1/1"]]]],
    }))
    code, doc = run_json(capsys, "solve", "--algebra", str(f), "--kind", "hom-lie")
    assert code == 0 and doc["dim"] == 4


def _algebra_file(tmp_path, table):
    f = tmp_path / "alg.json"
    f.write_text(json.dumps({"dim": 2, "flavor": "lie", "table": table}))
    return str(f)


def test_validate_zero_denominator_is_usage_error(capsys, tmp_path):
    path = _algebra_file(tmp_path, [[0, 1, [[0, "1/0"]]], [1, 0, [[0, "-1/1"]]]])
    code, out, err = run_cli(capsys, "validate", "--algebra", path)
    assert code == 2
    assert err.startswith("error:") and "'1/0'" in err


def test_solve_zero_denominator_is_usage_error(capsys, tmp_path):
    path = _algebra_file(tmp_path, [[0, 1, [[0, "1/0"]]], [1, 0, [[0, "-1/1"]]]])
    code, out, err = run_cli(capsys, "solve", "--algebra", path)
    assert code == 2
    assert err.startswith("error:") and "'1/0'" in err


def test_validate_duplicate_table_entry_is_usage_error(capsys, tmp_path):
    path = _algebra_file(tmp_path, [[0, 1, [[0, "1"]]], [0, 1, [[1, "1"]]], [1, 0, [[0, "-1"]]]])
    code, out, err = run_cli(capsys, "validate", "--algebra", path)
    assert code == 2
    assert err.startswith("error:") and "(0, 1)" in err


def test_solve_on_law_violating_file_is_usage_error(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"dim": 1, "flavor": "lie", "table": [[0, 0, [[0, "1/1"]]]]}))
    code, out, err = run_cli(capsys, "solve", "--algebra", str(f))
    assert code == 2
    assert err.startswith("error:")
    assert "anticommutativity fails on basis tuple (0, 0): residual (2/1)" in err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize(
    "doc,field",
    [({"dim": "2", "flavor": "lie", "table": []}, "'dim'"), ({"dim": 2, "table": []}, "'flavor'")],
)
def test_bad_dim_or_missing_flavor_is_usage_error(capsys, tmp_path, command, doc, field):
    f = tmp_path / "alg.json"
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--algebra", str(f))
    assert code == 2
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize(
    "field,value",
    [
        ("basis", [1, 2]),
        ("basis", 5),
        ("basis", ["only-one"]),
        ("grading", "ab"),
        ("grading", [0, True]),
        ("grading", [0]),
        ("table", {}),
        ("table", [[0, 1]]),
        ("table", [["0", 1, [[0, "1"]]]]),
        ("table", [[0, 1, [[0]]]]),
        ("table", [[0, 1, [[0, 0.5]]]]),
    ],
)
def test_malformed_field_is_usage_error(capsys, tmp_path, command, field, value):
    f = tmp_path / "alg.json"
    f.write_text(json.dumps({"dim": 2, "flavor": "lie", "table": [], field: value}))
    code, out, err = run_cli(capsys, command, "--algebra", str(f))
    assert code == 2
    assert err.startswith("error:") and f"'{field}'" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["solve", "--algebra", "sl2", "--kind", "bogus"], "--kind"),
        (["solve", "--algebra", "sl2", "--kind", "delta:1/0"], "--kind"),
        (["decompose", "--algebra", "sl2", "--torus", "7"], "--torus"),
        (["decompose", "--algebra", "sl2", "--triple", "0,1,9"], "--triple"),
        (["window", "--algebra", "sl2", "--window", "1"], "--window"),
        (["solve", "--algebra", "sl2", "--kind", "multiplicative-check-only"], "--kind"),
        (["decompose", "--algebra", "sl2", "--kind", "multiplicative-check-only", "--torus", "1"], "--kind"),
        (["decompose", "--algebra", "sl2", "--triple", "1,0,2"], "--triple"),
        (["window", "--algebra", "sl2", "--window", "2", "--shift", "100"], "--shift"),
        (["window", "--algebra", "sl2", "--window", "2", "--shift", "-5"], "--shift"),
        (["bilinear", "--algebra", "trunc_poly:3"], "--algebra"),
        (["qder", "--algebra", "trunc_poly:3"], "--algebra"),
        (["decompose", "--algebra", "trunc_poly:3", "--torus", "0"], "--algebra"),
        (["window", "--algebra", "trunc_poly:3", "--window", "2"], "--algebra"),
        (["decompose", "--algebra", "sl2", "--torus", ""], "--torus"),
        (["decompose", "--algebra", "sl2", "--torus", ","], "--torus"),
        (["decompose", "--algebra", "gl2", "--torus", "0,1"], "--torus: basis vectors 0 and 1 do not commute"),
    ],
)
def test_bad_argument_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and flag in err


def _must_not_build(*args, **kwargs):
    raise AssertionError("an oversized input reached the builder")


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 3000])
def test_oversized_algebra_is_rejected_before_it_is_built(capsys, monkeypatch, tmp_path, command, dim):
    monkeypatch.setattr(serialize, "make_algebra", _must_not_build)
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"dim": dim, "flavor": "lie", "table": []}))
    code, out, err = run_cli(capsys, command, "--algebra", str(f))
    assert code == 2
    assert err.startswith("error:") and "'dim'" in err and f"bound of {MAX_DIM}" in err


@pytest.mark.parametrize("n_window", [42, 100])  # sl2 windows of dim 257 and 605
def test_oversized_window_is_rejected_before_it_is_built(capsys, monkeypatch, n_window):
    monkeypatch.setattr(constructions, "km_window", _must_not_build)
    code, out, err = run_cli(capsys, "window", "--algebra", "sl2", "--window", str(n_window))
    assert code == 2
    assert err.startswith("error: --window:") and f"dim {3 * (2 * n_window + 1) + 2}" in err
    assert f"bound of {MAX_DIM}" in err


@pytest.mark.parametrize(
    "twist",
    [
        {"n": 2, "components": [[[0, 1, 0]], [[1, 0, 0]]]},  # not a direct sum
        {"n": 2, "components": [[[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]]},  # not compatible with the bracket
        {"n": 3, "components": [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},  # n disagrees with the components
        {"n": 2, "components": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], []]},  # degrees -3 and 3 empty
        {"n": 2.9, "components": [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},  # the order is not an integer
        {"n": "2", "components": [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},
        {"n": True, "components": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]},
        {"n": 0, "components": []},
        {"n": -2, "components": [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},
        {"components": [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},
        [2, [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]],
    ],
    ids=["direct-sum", "compatibility", "order", "empty-ends", "float-order", "string-order", "bool-order",
         "zero-order", "negative-order", "missing-order", "not-an-object"],
)
def test_invalid_twist_is_a_usage_error(capsys, tmp_path, twist):
    tw_file = tmp_path / "twist.json"
    tw_file.write_text(json.dumps(twist))
    code, out, err = run_cli(capsys, "window", "--algebra", "sl2", "--window", "3", "--twist", str(tw_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: --twist:") and "--shift" not in err


def test_window_over_a_zero_algebra_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "window", "--algebra", "abelian0", "--window", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: --algebra:") and "--shift" not in err and "twist" not in err


@pytest.mark.parametrize(
    "spec, dim",
    [("sl300", 89999), ("sl17", 288), ("gl17", 289), ("so24", 276), ("sp:24", 300), ("abelian257", 257),
     ("trunc_poly:257", 257), ("cyclic_group_alg:1000", 1000)],
)
def test_oversized_builtin_is_rejected_before_it_is_built(capsys, monkeypatch, spec, dim):
    from homlie import algebra

    for name, (_, arity, dim_of) in list(algebra._BUILTINS.items()):
        monkeypatch.setitem(algebra._BUILTINS, name, (_must_not_build, arity, dim_of))
    code, out, err = run_cli(capsys, "solve", "--algebra", spec)
    assert code == 2
    assert err.startswith("error:") and f"dim {dim}" in err and f"bound of {MAX_DIM}" in err


def test_largest_builtins_within_the_bound_are_built(monkeypatch):
    from homlie import algebra

    for name, (_, arity, dim_of) in list(algebra._BUILTINS.items()):
        monkeypatch.setitem(algebra._BUILTINS, name, (lambda *params, name=name: (name, params), arity, dim_of))
    for spec, built in (("sl16", ("sl", (16,))), ("gl16", ("gl", (16,))), ("so23", ("so", (23,))),
                        ("sp22", ("sp", (22,))), ("abelian256", ("abelian", (256,)))):
        assert algebra.parse_builtin(spec) == built


@pytest.mark.parametrize("spec", ["sl\uff13", "sl:\u0663", "sl: 3", "sl:", "sl:x", "sl:3:4", "sl 3", "sl\u00b2", "sl:-3",
                                  "sl:+3"])
def test_a_builtin_parameter_is_ascii_digits(capsys, spec):
    """A parameter is [0-9]+: other scripts' digits, spaces, signs and a
    missing or second parameter are refused by name, in the library and by
    the cli (exit 2), never by Python's own int() message."""
    message = f"cannot parse algebra name {spec!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        homlie.parse_builtin(spec)
    code, out, err = run_cli(capsys, "solve", "--algebra", spec)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_window_dim_is_the_built_dim():
    sl2, sl3 = builtin("sl", 2), builtin("sl", 3)
    twist = ([Subspace.from_spanning([[0, 1, 0]], 3), Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)], 2)
    for g, n_window, tw in ((sl2, 2, None), (sl2, 5, None), (sl3, 2, None), (sl2, 2, twist), (sl2, 3, twist)):
        assert _window_dim(g.dim, n_window, tw) == km_window(g, killing_form(g), n_window, twist=tw).dim


def test_decompose_and_reproduce_do_not_import_sympy():
    script = (
        "import sys\n"
        "from homlie.cli import main\n"
        "assert main(['decompose', '--algebra', 'sl2', '--triple', '0,1,2']) == 0\n"
        "assert main(['reproduce', 'prop-2.1']) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    result = _python(script)
    assert result.returncode == 0, result.stderr
    assert "irreducible dims: [5, 1]" in result.stdout


def _python(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Runs ``script`` in a fresh interpreter that imports this homlie."""
    src = str(Path(homlie.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)


def _loaded(*argv: str) -> tuple[int | None, set[str]]:
    """The exit code of ``homlie *argv`` (None with no argv: import only) and
    the homlie modules its fresh process loaded."""
    script = (
        "import json, sys\n"
        "from homlie.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else None\n"
        "loaded = sorted(m for m in sys.modules if m == 'homlie' or m.startswith('homlie.'))\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    result = _python(script, *argv)
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stderr.splitlines()[-1])
    return code, set(loaded)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    assert _loaded() == (None, {"homlie", "homlie.cli"})
    alg_file = tmp_path / "sl2.json"
    alg_file.write_text(json.dumps(serialize.algebra_to_json(builtin("sl", 2))))
    unused = {f"homlie.{m}" for m in ("actions", "constructions", "jordan", "scenarios", "battery")}
    for argv in (["solve", "--algebra", "sl3"], ["bilinear", "--algebra", "sl3"],
                 ["qder", "--algebra", "sl3", "--module", "coadjoint"], ["validate", "--algebra", str(alg_file)]):
        code, loaded = _loaded(*argv)
        assert code == 0 and not loaded & unused, (argv, code, loaded & unused)
    code, loaded = _loaded("window", "--algebra", "sl2", "--window", "2")
    assert code == 0 and not loaded & {"homlie.scenarios", "homlie.battery"}, (code, loaded)
    assert _loaded("reproduce", "--all", "--json")[0] == 1  # the known red, lemma-2.5-sl2


def test_validate_and_usage_errors_do_not_load_the_solver(tmp_path):
    alg_file = tmp_path / "sl2.json"
    alg_file.write_text(json.dumps(serialize.algebra_to_json(builtin("sl", 2))))
    for argv in (["validate", "--algebra", str(alg_file)], ["solve"], ["bilinear", "--algebra"], ["no-such-command"]):
        code, loaded = _loaded(*argv)
        assert code == (0 if argv[0] == "validate" else 2) and "homlie.solver" not in loaded, (argv, code, loaded)
    script = (
        "import os, sys\n"
        "os.environ['COLUMNS'] = '200'\n"
        "from homlie.cli import main\n"
        "assert main(['bilinear', '--help']) == 0\n"
        "assert 'homlie.solver' not in sys.modules\n"
    )
    result = _python(script)
    assert result.returncode == 0, result.stderr
    assert " | ".join(BILINEAR_KINDS) in result.stdout


def test_reproduce_single(capsys):
    code, doc = run_json(capsys, "reproduce", "prop-2.1")
    assert code == 0
    assert doc["results"][0]["status"] == "pass"
    assert doc["results"][0]["details"]["irreducible_dims"] == [5, 1]


def test_reproduce_unknown_id(capsys):
    code, out, err = run_cli(capsys, "reproduce", "nope")
    assert code == 2


def test_reproduce_requires_exactly_one_target(capsys):
    assert run_cli(capsys, "reproduce")[0] == 2
    assert run_cli(capsys, "reproduce", "prop-2.1", "--all")[0] == 2


def test_list(capsys):
    code, doc = run_json(capsys, "list")
    assert code == 0
    assert "sl" in doc["builtins"]
    assert "prop-2.1" in doc["scenarios"]


def test_listed_structure_kinds_solve(capsys):
    _, doc = run_json(capsys, "list")
    for kind in doc["structure_kinds"]:
        kind = kind.replace("<p/q>", "1/2")
        assert run_cli(capsys, "solve", "--algebra", "sl2", "--kind", kind)[0] == 0, kind


def test_window_shift_flag(capsys):
    code, doc = run_json(capsys, "window", "--algebra", "sl2", "--window", "2", "--shift", "1")
    assert code == 0
    assert doc["shift"] == 1
    assert doc["solution_dim"] == 3  # the three maps from degree -1 into the center


@pytest.mark.slow
def test_reproduce_all_is_deterministic_and_flags_the_known_failure(capsys):
    code1 = main(["reproduce", "--all", "--json"])
    raw1 = capsys.readouterr().out
    code2 = main(["reproduce", "--all", "--json"])
    raw2 = capsys.readouterr().out
    assert raw1 == raw2  # byte-identical
    doc = json.loads(raw1)
    # the only failing scenario is the out-of-scope sl2 cocycle expectation
    failing = [r["id"] for r in doc["results"] if r["status"] == "fail"]
    assert failing == ["lemma-2.5-sl2"]
    assert code1 == code2 == 1


def _json_file_cases(tmp_path):
    """(name, path) of files no command can read as JSON."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    directory = tmp_path / "x.json"
    directory.mkdir()
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(range(256)) * 4)
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"dim": 2,')
    return {"nested": nested, "directory": directory, "binary": binary, "truncated": truncated,
            "missing": tmp_path / "missing.json"}


@pytest.mark.parametrize("case", ["nested", "directory", "binary", "truncated", "missing"])
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["validate", "--algebra"], "--algebra"),
        (["solve", "--algebra"], "--algebra"),
        (["window", "--algebra", "sl2", "--window", "2", "--twist"], "--twist"),
    ],
    ids=["validate", "solve", "window"],
)
def test_unreadable_json_file_is_a_usage_error(capsys, tmp_path, case, argv, flag):
    path = str(_json_file_cases(tmp_path)[case])
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}:") and path in err and "Traceback" not in err


@pytest.mark.parametrize("scalar", ["1e999999999", "1.5", True, " 2", "+3", "1/-2"])
def test_scalar_outside_the_grammar_is_a_usage_error(capsys, tmp_path, scalar):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"dim": 2, "flavor": "lie", "table": [[0, 1, [[0, scalar]]], [1, 0, [[0, "-1"]]]]}))
    twist = tmp_path / "twist.json"
    twist.write_text(json.dumps({"n": 2, "components": [[[0, scalar, 0]], [[1, 0, 0], [0, 0, 1]]]}))
    for argv in (["validate", "--algebra", str(alg)], ["solve", "--algebra", str(alg)],
                 ["window", "--algebra", "sl2", "--window", "2", "--twist", str(twist)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and repr(scalar) in err, argv
    code, out, err = run_cli(capsys, "solve", "--algebra", "sl2", "--kind", f"delta:{scalar}")
    assert code == 2 and err.startswith("error: --kind:")


@pytest.mark.parametrize("scalar,negated", [("-3/7", "3/7"), ("5", "-5"), (4, -4)])
def test_scalar_in_the_grammar_is_read(capsys, tmp_path, scalar, negated):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"dim": 2, "flavor": "lie", "table": [[0, 1, [[0, scalar]]], [1, 0, [[0, negated]]]]}))
    code, doc = run_json(capsys, "validate", "--algebra", str(alg))
    assert code == 0 and doc == {"valid": True, "dim": 2, "flavor": "lie"}


# Small JSON documents (dim <= 6, a few table entries): mostly well formed,
# with a field of the wrong type now and then, or any JSON value, or text
# that is not JSON.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 7) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _sometimes(good, bad=_ANY_JSON):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda k: good if k else bad)


def _algebra_doc(dim):
    index = st.integers(0, max(dim - 1, 0))
    scalar = _sometimes(st.integers(-2, 2) | st.sampled_from(["1", "-1", "1/2", "-3/4"]),
                        st.sampled_from(["2/0", "1.5", "1e3", "", True]) | _ANY_JSON)
    terms = st.lists(st.tuples(_sometimes(index), scalar).map(list), max_size=3)
    table = st.dictionaries(st.tuples(index, index), terms, max_size=6)
    return st.fixed_dictionaries(
        {"dim": _sometimes(st.just(dim)), "flavor": _sometimes(st.sampled_from(FLAVORS))},
        optional={
            "basis": _sometimes(st.lists(st.text(max_size=3), min_size=dim, max_size=dim)),
            "grading": _sometimes(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)),
            "table": _sometimes(table.map(lambda t: [[i, j, ts] for (i, j), ts in t.items()])),
        },
    )


_FILE_TEXT = st.one_of(
    st.integers(0, 6).flatmap(_algebra_doc).map(json.dumps),
    st.integers(0, 6).flatmap(_algebra_doc).map(json.dumps),
    _ANY_JSON.map(json.dumps),
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_FILE_TEXT, kind=st.sampled_from(["hom-lie", "hom-cyclic", "hom-2nilp", "delta:2"]))
def test_validate_and_solve_exit_0_1_or_2_on_any_document(capsys, tmp_path, text, kind):
    path = tmp_path / "doc.json"
    path.write_text(text)
    for argv in (["validate", "--algebra", str(path)], ["solve", "--algebra", str(path), "--kind", kind]):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        event(f"{argv[0]} exit {code}")


# Inputs for the commands that read a twist file, basis indices or an
# algebra of dim <= 4: the valid sl2 twists of orders 1, 2 and 3, generated
# twist documents, index lists and algebra documents.
_SL2_TWISTS = [
    {"n": 1, "components": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    {"n": 2, "components": [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},
    {"n": 3, "components": [[[0, 1, 0]], [[1, 0, 0]], [[0, 0, 1]]]},
]
_VECTOR = st.lists(_sometimes(st.integers(-1, 1) | st.just("1/2")), min_size=3, max_size=3)
_TWIST_DOC = st.one_of(
    st.sampled_from(_SL2_TWISTS),
    st.fixed_dictionaries({
        "n": _sometimes(st.integers(0, 4)),
        "components": _sometimes(st.lists(st.lists(_sometimes(_VECTOR), max_size=3), max_size=4)),
    }),
    _ANY_JSON,
)
_INDICES = st.lists(st.integers(-1, 4), max_size=4).map(lambda xs: ",".join(map(str, xs))) | st.text(max_size=6)
_SMALL_ALGEBRA = st.one_of(
    st.sampled_from(["sl2", "gl2", "heisenberg", "nonabelian2", "abelian2"]).map(
        lambda name: serialize.algebra_to_json(homlie.parse_builtin(name))),
    st.integers(0, 4).flatmap(_algebra_doc),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(twist=_TWIST_DOC, shift=st.sampled_from([None, 0, 1, 5]), algebra=st.sampled_from(["sl2", "gl2", "heisenberg"]),
       torus=_INDICES, triple=_INDICES, doc=_SMALL_ALGEBRA)
def test_window_decompose_bilinear_qder_exit_0_1_or_2_on_any_input(capsys, tmp_path, twist, shift, algebra, torus,
                                                                    triple, doc):
    twist_path, alg_path = tmp_path / "twist.json", tmp_path / "alg.json"
    twist_path.write_text(json.dumps(twist))
    alg_path.write_text(json.dumps(doc))
    shift_args = [] if shift is None else ["--shift", str(shift)]
    for argv in (["window", "--algebra", "sl2", "--window", "2", "--twist", str(twist_path), *shift_args],
                 ["decompose", "--algebra", algebra, "--torus", torus],
                 ["decompose", "--algebra", algebra, "--triple", triple],
                 ["bilinear", "--algebra", str(alg_path)],
                 ["qder", "--algebra", str(alg_path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        event(f"{argv[0]} exit {code}")


# The flag values the properties above leave fixed: structure kinds for
# decompose, bilinear kinds and the qder module, mostly valid, else
# near-valid or any text, on algebra documents of dim <= 4 (builtin Lie
# algebras three times in four, else generated).
_KIND_TEXT = _sometimes(
    st.sampled_from(["hom-lie", "hom-cyclic", "hom-2nilp", "delta:2", "delta:-1", "delta:1/2", "delta:0"]),
    st.sampled_from(["delta:", "delta:x", "delta:1/0", "delta:1.5", "hom-lie ", "multiplicative-check-only"])
    | st.text(max_size=8),
)
_BILINEAR_KIND = _sometimes(st.sampled_from(BILINEAR_KINDS), st.sampled_from(["cocycle", "skew", ""]) | st.text(max_size=8))
_MODULE = _sometimes(st.just("coadjoint"), st.sampled_from(["adjoint", "co-adjoint", ""]) | st.text(max_size=8))
_TORUS = _sometimes(st.lists(st.integers(0, 2), min_size=1, max_size=2).map(lambda xs: ",".join(map(str, xs))), _INDICES)
_LIE_DOC = st.sampled_from(["sl2", "gl2", "heisenberg", "nonabelian2", "abelian2"]).map(
    lambda name: serialize.algebra_to_json(homlie.parse_builtin(name)))
_MOSTLY_LIE_DOC = st.one_of(_LIE_DOC, _LIE_DOC, _LIE_DOC, st.integers(0, 4).flatmap(_algebra_doc))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_MOSTLY_LIE_DOC, kind=_KIND_TEXT, bilinear=_BILINEAR_KIND, module=_MODULE, torus=_TORUS)
def test_decompose_bilinear_qder_flags_exit_0_1_or_2_on_any_document(capsys, tmp_path, doc, kind, bilinear, module,
                                                                     torus):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(doc))
    for argv in (["decompose", "--algebra", str(alg_path), "--kind", kind, "--torus", torus],
                 ["bilinear", "--algebra", str(alg_path), "--kind", bilinear],
                 ["qder", "--algebra", str(alg_path), "--module", module]):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code:
            assert err.strip(), argv  # a refusal says why
        event(f"{argv[0]} exit {code}")

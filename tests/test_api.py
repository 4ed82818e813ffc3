"""The package's public names, and where dense matrix rows may be read."""

import ast
from dataclasses import fields
from pathlib import Path

import homlie

PUBLIC = [
    "AlgebraSpec", "BILINEAR_KINDS", "BilinearForm", "ClosureVerdict", "Cocycle2", "HOM_2NILP", "HOM_CYCLIC",
    "HOM_LIE", "HomSolution", "LawViolation", "Matrix", "NonSplitAction", "NotSubmodule", "Scalar", "StructureKind",
    "Subspace", "WeightComponent", "WindowSolution", "act", "adjoin_map", "beta_map", "builtin",
    "builtin_names", "central_ext_homlie_decomposed", "central_extension", "central_maps", "closure_check",
    "coboundary_space", "cocycle2", "conjugate", "counterexample_suite", "current_formula_span",
    "delta_derivation", "f_t", "is_multiplicative", "is_submodule", "jordan_product",
    "jordan_structure_constants", "killing_form", "km_window", "make_algebra", "nullspace", "parse_builtin",
    "rref", "semidirect_derivation", "seq_uv", "sl2_decompose", "solve_bilinear", "solve_qder",
    "solve_structures", "solve_window", "structural_subspaces", "subspace_combine", "tensor_formula_span",
    "tensor_lie", "twisted_cyclic", "weight_decompose",
]


def test_public_names_are_pinned():
    assert homlie.__all__ == PUBLIC
    assert all(hasattr(homlie, name) for name in PUBLIC)
    assert set(PUBLIC) <= set(dir(homlie))
    assert not hasattr(homlie, "no_such_name")


# linalg owns the matrix storage; serialize writes the dense rows as JSON.
DENSE_READERS = {"linalg.py", "serialize.py"}


def test_dense_rows_are_read_only_at_the_boundary():
    """A map travels as a Matrix (or a Subspace row) between modules; only
    the modules above read its dense ``data`` rows."""
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(homlie.__file__).parent.glob("*.py"))
        if path.name not in DENSE_READERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "data"
    ]
    assert reads == []


def test_no_module_level_caches():
    """State a solve keeps lives on the algebra (``AlgebraSpec._solved``) and
    goes with it; a ``functools`` cache would outlive it."""
    cached = []
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        cached.append(f"{path.name}:{node.name}")
    assert cached == []


def test_elimination_runs_only_through_linalg():
    """Every module outside ``linalg`` eliminates through its front-ends
    (``nullspace_of_rows``, ``Subspace``, ``SpanSolver``), never through
    the private ``_reduced_rows`` of a ``RowAccumulator``, and never reads
    or writes an accumulator's ``pivots`` or ``_seen``: rows are reduced in
    place, so a dict that was a pivot may be changed later.  The one
    accumulator made outside ``linalg`` is ``solver._solve_modulo``'s,
    which it hands to ``nullspace_of_rows`` and reads through ``rank`` and
    ``free_col`` while the rows are compiled; only ``solver`` names the
    class, for that and for its kernels' signature."""
    made, named, private = [], set(), []
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RowAccumulator":
                made.append((path.name, owner))
            if isinstance(node, ast.Name) and node.id == "RowAccumulator" \
                    or isinstance(node, ast.alias) and node.name == "RowAccumulator" \
                    or isinstance(node, ast.Attribute) and node.attr == "RowAccumulator":
                named.add(path.name)
            if isinstance(node, ast.Attribute) and node.attr in ("_reduced_rows", "pivots", "_seen"):
                private.append(f"{path.name}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert made == [("solver.py", "_solve_modulo")]
    assert named == {"solver.py"}
    assert private == []


# The one integer elimination step: ``_clear`` and the content division it
# leaves to ``_normalize_content``, which ``_insert`` and ``_reduced_rows`` call.
GCD_CALLERS = {"_clear", "_normalize_content"}


def test_linalg_states_the_integer_step_once():
    """In ``linalg`` a gcd is taken only in ``_clear`` and
    ``_normalize_content``, so an inlined second copy of the elimination
    step (in ``_insert``, say) fails here."""
    callers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "gcd":
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((Path(homlie.__file__).parent / "linalg.py").read_text()), None)
    assert callers == GCD_CALLERS


# The one walk order: the places of ``_Plan.basis`` (degree 0 first, then
# index order) for all three arguments of a triple.  The names a second
# order would come back under: places in the degree components' order, and
# the kept c of a pair split by component (found by ``bisect``).
SECOND_ORDER = {("_Plan", "order"), ("_Orbits", "thirds")}


def test_the_walk_has_one_order():
    """``_Plan`` keeps no ``order`` and ``_Orbits`` no ``thirds``, as an
    attribute, a class name or a method, and ``solver`` imports no
    ``bisect``."""
    tree = ast.parse((Path(homlie.__file__).parent / "solver.py").read_text())
    names = set()
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add((cls.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {(cls.name, t.id) for t in targets if isinstance(t, ast.Name)}
        names |= {(cls.name, node.attr) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"}
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert {("_Plan", "basis"), ("_Plan", "pos"), ("_Orbits", "holding")} <= names
    assert names & SECOND_ORDER == set()
    assert "bisect" not in {m.split(".")[0] for m in modules}


def test_a_triple_is_evaluated_in_one_place():
    """``solver._hom_rows`` calls ``_hom_terms`` once and catches
    ``UndefinedProduct`` once, and ``_directed``, which orders the walk and
    the picks, does neither: every triple of the stream is evaluated at one
    site."""
    tree = ast.parse((Path(homlie.__file__).parent / "solver.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def sites(name):
        nodes = list(ast.walk(functions[name]))
        calls = [n for n in nodes if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_hom_terms"]
        catches = [n for n in nodes if isinstance(n, ast.ExceptHandler) and getattr(n.type, "id", None) == "UndefinedProduct"]
        return len(calls), len(catches)

    assert sites("_hom_rows") == (1, 1)
    assert sites("_directed") == (0, 0)


# The builds that may make an AlgebraSpec: make_algebra scans the laws, and
# the others prove them in their docstrings.
ALGEBRA_BUILDERS = {("algebra.py", "make_algebra"), ("algebra.py", "_lie_by_theorem"), ("constructions.py", "km_window")}
# The builds certified through _lie_by_theorem, each with a docstring proof.
CERTIFIED_BUILDS = {("algebra.py", "_from_matrices"), ("constructions.py", "adjoin_map"),
                    ("constructions.py", "central_extension"), ("constructions.py", "semidirect_derivation"),
                    ("constructions.py", "tensor_lie"), ("constructions.py", "twisted_cyclic")}


def test_only_the_law_scan_and_certified_builds_make_algebras():
    """Every ``AlgebraSpec(...)`` in the package is made inside
    ``make_algebra`` or a certified build, and every call of
    ``_lie_by_theorem`` comes from a build whose docstring gives the proof,
    so the set of builds that skip the law scan stays closed and reviewable."""
    calls: dict[str, set] = {"AlgebraSpec": set(), "_lie_by_theorem": set()}
    proofs = set()
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
                if "Proof." in (ast.get_docstring(node) or ""):
                    proofs.add((path.name, owner))
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in calls:
                    calls[name].add((path.name, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert calls["AlgebraSpec"] == ALGEBRA_BUILDERS
    assert calls["_lie_by_theorem"] == CERTIFIED_BUILDS
    assert CERTIFIED_BUILDS <= proofs


# The identities' term builders: every identity the package compiles or
# evaluates is one of these.
IDENTITIES = {"_hom_terms", "_leibniz_terms", "_invariance_terms"}
# The term builders, their pair and triple domains and the evaluator.
TERM_BUILDERS = IDENTITIES | {"_leibniz_pairs", "_jacobi_triples", "_evaluate"}
# The validators, each stated as "every term row vanishes at this map or form".
VALIDATORS = {("constructions.py", "derivation_defect"), ("constructions.py", "Cocycle2.__post_init__"),
              ("algebra.py", "BilinearForm.is_invariant"), ("solver.py", "structure_residual"),
              ("battery.py", "_jacobiator"), ("algebra.py", "_check_laws")}
# The Hom identity (and Jacobi, its case phi = id) is compiled by the row
# compiler and evaluated by these validators, nowhere else.
# The form solves (``solve_bilinear``, ``central_ext_homlie_decomposed``)
# reach it through ``_hom_rows``.
HOM_TERMS_CALLERS = {("solver.py", "_hom_rows"), ("solver.py", "structure_residual"), ("battery.py", "_jacobiator"),
                     ("algebra.py", "_check_laws"), ("constructions.py", "Cocycle2.__post_init__")}


def test_each_identity_is_stated_once():
    """The term builders are defined only in ``algebra`` (the solver's row
    compilers import them), and each validator calls ``_evaluate`` on their
    terms instead of restating the identity; nothing else evaluates them.
    ``_hom_terms`` is called only by the row compiler and its validators."""
    defined, evaluating, hom_callers = set(), set(), set()
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in TERM_BUILDERS:
                    defined.add((path.name, node.name))
                owner = f"{owner}.{node.name}" if owner else node.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None)
                if name == "_evaluate":
                    evaluating.add((path.name, owner))
                elif name == "_hom_terms":
                    hom_callers.add((path.name, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert defined == {("algebra.py", name) for name in TERM_BUILDERS}
    assert evaluating == VALIDATORS
    assert hom_callers == HOM_TERMS_CALLERS


# Where an undefined product is raised, and the consumers that skip an
# equation whose evaluation raises it: the rule "a window imposes an
# equation exactly when evaluating it reads no undefined product".
UNDEFINED_RAISERS = {("algebra.py", "_undefined")}
UNDEFINED_CATCHERS = {("solver.py", "_hom_rows"), ("solver.py", "structure_residual"),
                      ("solver.py", "is_multiplicative")}


def test_undefined_products_have_one_rule():
    """Only ``algebra._undefined`` makes an ``UndefinedProduct``, and only
    the consumers above catch it by name, so a compiler that starts
    skipping equations on a window has to be named here."""
    made, caught = set(), set()
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "UndefinedProduct":
                made.add((path.name, owner))
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {getattr(t, "id", getattr(t, "attr", None)) for t in ast.walk(node.type)}
                if "UndefinedProduct" in names:
                    caught.add((path.name, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert made == UNDEFINED_RAISERS
    assert caught == UNDEFINED_CATCHERS
    assert "UndefinedProduct" not in homlie.__all__


# The term builders that read products from a product index (``AlgebraSpec.rows``).
INDEX_READERS = IDENTITIES


def test_term_builders_read_products_only_through_the_index():
    """The term builders read products only from the index ``rows`` they
    are given: they read no ``table`` and call no ``product_on_basis`` or
    ``sparse_product``, so a lookup of every product of a row, zeros
    included, cannot come back unnoticed."""
    reads = {}
    for node in ast.walk(ast.parse((Path(homlie.__file__).parent / "algebra.py").read_text())):
        if isinstance(node, ast.FunctionDef) and node.name in INDEX_READERS:
            reads[node.name] = sorted(
                {getattr(sub, "attr", getattr(sub, "id", None)) for sub in ast.walk(node)}
                & {"rows", "table", "product_on_basis", "sparse_product"}
            )
    assert reads == dict.fromkeys(INDEX_READERS, ["rows"])


def test_the_package_reads_products_only_through_the_index():
    """``AlgebraSpec.rows`` is an algebra's one store of products, and
    ``table`` is a property, its pair-keyed view for readers outside the
    package, not a field: no module of the package reads ``.table``."""
    reads = []
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "table":
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
    assert "rows" in {f.name for f in fields(homlie.AlgebraSpec)}
    assert "table" not in {f.name for f in fields(homlie.AlgebraSpec)}
    assert isinstance(homlie.AlgebraSpec.__dict__["table"], property)


def _built_by_a_term_builder(node, assigned) -> bool:
    """Whether the expression is a call of a term builder, or a list,
    generator, conditional or local name made only of such calls."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) in IDENTITIES
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(_built_by_a_term_builder(elt, assigned) for elt in node.elts)
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return _built_by_a_term_builder(node.elt, assigned)
    if isinstance(node, ast.IfExp):
        return all(_built_by_a_term_builder(branch, assigned) for branch in (node.body, node.orelse))
    if isinstance(node, ast.Name):
        values = assigned.get(node.id, [])
        return bool(values) and all(_built_by_a_term_builder(value, assigned) for value in values)
    return False


# The functions that hand terms to ``_sparse_rows`` or ``_evaluate``: the
# validators and the row compilers.
TERMS_CONSUMERS = VALIDATORS | {("solver.py", "_hom_rows"), ("solver.py", "_delta_rows"), ("solver.py", "_qder_rows")}


def _assignments(func) -> dict[str, list]:
    """The values assigned to each plain name anywhere in ``func``."""
    assigned: dict[str, list] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(node.value)
    return assigned


def test_no_identity_is_written_outside_the_term_builders():
    """Every terms argument handed to ``_sparse_rows`` or ``_evaluate`` is
    built by a call of a term builder in ``algebra``, so an identity
    written as a closure or a loop beside its compiler fails here, and only
    the validators and the row compilers hand any."""
    handing, stray = set(), []
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        def visit(node, owner, assigned):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{owner}.{node.name}" if owner else node.name
                if not isinstance(node, ast.ClassDef):
                    assigned = _assignments(node)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_sparse_rows", "_evaluate"):
                handing.add((path.name, owner))
                if not _built_by_a_term_builder(node.args[0], assigned):
                    stray.append(f"{path.name}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner, assigned)

        visit(ast.parse(path.read_text()), None, {})
    assert stray == [] and handing == TERMS_CONSUMERS


# The module action's public calls; with the battery's check functions they
# form h . phi, exp(ad x) and conjugates through the sparse kernel in ``actions``.
ACTION_CALLS = {"act", "action_matrix", "is_submodule", "conjugate"}


def test_the_module_action_has_one_route():
    """No ``@`` product and no ``right_mul_matrix`` or ``left_mul_matrix``
    call appears in the action calls, the battery's check functions, or any
    function of ``actions`` or ``battery`` they call, so a Matrix round trip
    cannot come back beside the sparse kernel."""
    funcs = {}
    for name in ("actions.py", "battery.py"):
        for node in ast.parse((Path(homlie.__file__).parent / name).read_text()).body:
            if isinstance(node, ast.FunctionDef):
                funcs[node.name] = (name, node)
    todo = [f for f, (name, _) in funcs.items() if f in ACTION_CALLS or name == "battery.py" and f.startswith("check_")]
    seen, stray = set(todo), []
    while todo:
        name, node = funcs[todo.pop()]
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                stray.append(f"{name}:{node.name}:{sub.lineno}")
            if isinstance(sub, ast.Call):
                called = getattr(sub.func, "attr", getattr(sub.func, "id", None))
                if called in ("right_mul_matrix", "left_mul_matrix"):
                    stray.append(f"{name}:{node.name}:{sub.lineno}")
                elif called in funcs and called not in seen:
                    seen.add(called)
                    todo.append(called)
    assert ACTION_CALLS | {"_right", "_act", "_sandwich", "_exp_ad", "_jacobiator"} <= seen
    assert stray == []


# The one solve path: ``_solve_modulo`` is the only place where ``solver``
# hands a compiled identity to a kernel, and these are its callers.  The one
# bare kernel call left is the s-space system of the decomposed
# central-extension solve (the cocycle's rows on the derived subalgebra,
# compiled through no column map).
SOLVE_MODULO_CALLERS = {"_solve_block", "solve_bilinear.solve", "solve_qder", "seq_uv",
                        "central_ext_homlie_decomposed"}
KERNEL_CALLERS = {"central_ext_homlie_decomposed"}


def test_every_compiled_identity_reaches_the_kernel_through_solve_modulo():
    """Pins the callers of ``_solve_modulo`` and of ``nullspace_of_rows`` in
    ``solver``, so that a bare kernel call beside the retire step cannot
    come back as a second solve path."""
    calls: dict[str, list] = {"_solve_modulo": [], "nullspace_of_rows": []}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in calls:
            calls[node.func.id].append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((Path(homlie.__file__).parent / "solver.py").read_text()), None)
    assert set(calls["_solve_modulo"]) == SOLVE_MODULO_CALLERS
    assert calls["nullspace_of_rows"] == sorted(KERNEL_CALLERS)


# The names through which ``window`` could reach a kernel: the solve path's
# entries and the elimination front-ends that solve a system.
WINDOW_KERNEL_NAMES = {"_solve_shift_blocks", "_solve_modulo", "solve_structures", "nullspace_of_rows", "nullspace",
                       "_hom_rows", "_sparse_rows"}


def test_the_window_reaches_the_kernel_only_through_solve_shift_blocks():
    """In ``window`` each of those names is the ``_solve_shift_blocks`` call
    in ``solve_window`` or the ``nullspace_of_rows`` it passes as the
    kernel: the blocks are kept and mirrored inside the solver, so no second
    solve path or store of blocks sits beside the shift-block one."""
    uses, allowed, callers = [], set(), []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_solve_shift_blocks":
            callers.append(owner)
            allowed.add(id(node.func))
            if isinstance(node.args[-1], ast.Name) and node.args[-1].id == "nullspace_of_rows":
                allowed.add(id(node.args[-1]))
        if isinstance(node, ast.Name) and node.id in WINDOW_KERNEL_NAMES or \
                isinstance(node, ast.Attribute) and node.attr in WINDOW_KERNEL_NAMES:
            uses.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((Path(homlie.__file__).parent / "window.py").read_text()), None)
    assert callers == ["solve_window"]
    assert [f"window.py:{node.lineno}" for node in uses if id(node) not in allowed] == []


# A shift block is solved in End's own columns, phi(e_c) -> e_q at q*n + c
# (``solver._Plan.col_of``).  The block numbering it replaced: ``_Plan.block``
# numbered a block's columns from 0, ``_by_source`` built the column maps
# from that, and ``_solve_block`` converted K into the block and the
# answer back into End.
BLOCK_NUMBERING = {"block", "_by_source"}
COLUMN_CONVERSIONS = {"Subspace", "divmod"}


def test_no_module_numbers_a_blocks_columns():
    """Package-wide: no module defines or names ``_by_source``, or reads an
    attribute ``block``; ``solver._Plan`` defines no ``block``; and
    ``solver._solve_block`` converts no columns: it builds no ``Subspace``
    and calls no ``divmod``, returning K or ``_solve_modulo``'s End
    subspace as they are."""
    uses, members, conversions = [], [], []
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_by_source" \
                    or isinstance(node, ast.Name) and node.id == "_by_source" \
                    or isinstance(node, ast.alias) and node.name == "_by_source" \
                    or isinstance(node, ast.Attribute) and node.attr in BLOCK_NUMBERING:
                uses.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name == "_Plan":
                members.extend(child.name for child in node.body
                               if isinstance(child, ast.FunctionDef) and child.name in BLOCK_NUMBERING)
            if isinstance(node, ast.FunctionDef) and node.name == "_solve_block":
                conversions.extend(
                    f"{path.name}:{call.lineno}" for call in ast.walk(node) if isinstance(call, ast.Call)
                    and {getattr(call.func, "id", None), getattr(call.func, "attr", None)} & COLUMN_CONVERSIONS)
    assert uses == [] and members == [] and conversions == []


# Where a scalar from outside the kernel enters a store that keeps integral
# entries as ints: the builder's table, the vectors the module action takes,
# a grading's coordinates, km_window's central term and the delta of a
# delta-derivation.  Everything the kernel writes is already an int when
# integral, so no other Fraction -> int round trip is needed.
INT_DOORS = {("algebra.py", "_clean_table"), ("actions.py", "_right"), ("actions.py", "_exp_ad"),
             ("constructions.py", "check_cyclic_grading"), ("constructions.py", "km_window"),
             ("solver.py", "_delta_rows")}


def test_integral_scalars_become_ints_only_at_the_doors():
    """Pins the callers of ``int_if_integral`` in the package, so that a new
    Fraction -> int round trip has to be named here."""
    callers = set()
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if isinstance(node, ast.Call) and "int_if_integral" in (getattr(node.func, "id", None),
                                                                    getattr(node.func, "attr", None)):
                callers.add((path.name, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert callers == INT_DOORS

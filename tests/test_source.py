"""The package holds no function or class that only the tests call, its
modules keep their private names to themselves, only the solver catches
`SolveError`, only the Newton driver sets a Morse index, only its linear
step calls the step kernels and builds the 2D preconditioner, every Morse
count is the one inertia routine, and only `domain` walks the stencil
faces.

A top-level function, class or method of `src/logbump` must be referenced
somewhere else in the package, by the benchmark tracer's `TARGETS` or by
the console entry point.  Re-exports in `__init__.py` do not count as a
use, and there is no exception: what only the tests call lives in
`tests/oracles.py`.  Every name `logbump` exports is one a package module
defines, and a star import brings in each of them.  No module imports an
underscore name from another package module, except the few that
`SHARED_PRIVATE` names with their reason.
"""

import ast
import tomllib
from pathlib import Path

import logbump

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logbump"

# module.name -> why another package module imports this private name
SHARED_PRIVATE: dict[str, str] = {}


def _definitions(tree):
    """(name, line) of the top-level functions and classes and of the
    methods of top-level classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno


def _uses(tree):
    """Names loaded and attributes read anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _external_uses():
    """Names the tracer binds and the entry point calls."""
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(
        node.value for node in tracer.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    for node in ast.walk(targets):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
            yield node.value.rsplit(".", 1)[-1]
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    for entry in scripts.values():
        yield entry.rsplit(":", 1)[-1]


def test_no_test_only_definitions_in_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set(_external_uses())
    for tree in trees.values():
        used.update(_uses(tree))
    unused = [
        f"{name}:{line} {qualname}"
        for name, tree in trees.items()
        for qualname, line in _definitions(tree)
        if qualname.rsplit(".", 1)[-1] not in used
    ]
    assert unused == [], "referenced nowhere in the package: " + ", ".join(unused)


def test_every_export_is_a_package_definition_that_star_import_brings():
    defined = {
        name
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for name, _ in _definitions(ast.parse(path.read_text()))
    }
    assert sorted(set(logbump.__all__) - defined) == []
    namespace = {}
    exec("from logbump import *", namespace)
    assert sorted(set(logbump.__all__) - set(namespace)) == []


def test_no_module_imports_a_private_name_of_another():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module.startswith("logbump"):
                owner = module.rpartition(".")[2]
                imported.update(f"{owner}.{alias.name}" for alias in node.names
                                if alias.name.startswith("_"))
    assert sorted(imported - set(SHARED_PRIVATE)) == []
    # an entry no module imports any more is stale
    assert sorted(set(SHARED_PRIVATE) - imported) == []


def test_only_the_solver_catches_solve_errors():
    # `solver._newton` turns a solve's SolveError into its stop, so every
    # solve returns a record and no caller handles the error
    handlers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any("SolveError" in (getattr(c, "id", None), getattr(c, "attr", None))
                   for c in caught):
                handlers.append((path.name, node.lineno))
    assert [h for h in handlers if h[0] != "solver.py"] == []
    assert handlers, "the solver's own handlers are not found"


def _outermost_functions(tree):
    """Each node of the tree inside a function, mapped to the name of the
    outermost function that holds it."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                owner.setdefault(node, func.name)
    return owner


def test_only_the_newton_driver_sets_a_morse_index():
    # `solver._newton` counts each solve's Morse index once, at the field it
    # returns; no other package code builds a record with `morse_index=` or
    # assigns `.morse_index`
    setters = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _outermost_functions(tree)
        for node in ast.walk(tree):
            keyword = isinstance(node, ast.keyword) and node.arg == "morse_index"
            stored = (isinstance(node, ast.Attribute) and node.attr == "morse_index"
                      and isinstance(node.ctx, ast.Store))
            if keyword or stored:
                setters.append((path.name, owner.get(node)))
    assert setters == [("solver.py", "_newton")]


def test_only_the_linear_step_calls_the_step_kernels():
    # `solver._linear_step` is the one place a Newton step is solved: by
    # `TridiagonalLDL.solve_once` in 1D and `minres` in 2D, whose count it
    # returns with the step.  No other package code calls either kernel,
    # so the tally `_newton` keeps covers every inner iteration.  It is
    # also the one place that builds the 2D well-box preconditioner: the
    # sine solves of `_dirichlet_inverse` once per solve, and each step's
    # `_block_preconditioner` from them
    kernels = ("minres", "solve_once", "_dirichlet_inverse", "_block_preconditioner")
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _outermost_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in kernels:
                    callers.append((path.name, name, owner.get(node)))
    assert sorted(callers) == sorted(("solver.py", name, "_linear_step") for name in kernels)


def test_every_morse_count_is_the_one_inertia_routine():
    # `solver.negative_eigenvalues` is the one Morse count, with one
    # breakdown rule in 1D and 2D: only it factors a dense block
    # (`np.linalg.cholesky`, `eigvalsh` or `inv`), and the counts of the
    # local solves, the penalized solve and the 2D enclosure all call it
    dense = ("cholesky", "eigvalsh", "inv")
    factors, counts = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _outermost_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in dense and "linalg" in {
                    getattr(func.value, "id", None), getattr(func.value, "attr", None)}:
                factors.append((path.name, owner.get(node)))
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "negative_eigenvalues":
                counts.add((path.name, owner.get(node)))
    assert factors and set(factors) == {("solver.py", "negative_eigenvalues")}
    assert counts == {("solver.py", owner) for owner in
                      ("_ground_state_newton", "solve_auxiliary", "_morse_enclosure")}


def test_only_the_domain_walks_the_stencil_faces():
    # `domain.five_point_apply` is the one stencil kernel: every other
    # module applies its five-point operators through it, and none imports
    # the face layout `domain.faces` to walk the stencil itself
    walkers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "domain.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "faces" in names:
                walkers.append(path.name)
    assert walkers == []
    assert "faces" in dict(_definitions(ast.parse((PACKAGE / "domain.py").read_text())))

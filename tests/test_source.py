"""The package holds no function or class that only the tests call, and
its modules keep their private names to themselves.

A top-level function, class or method of `src/logbump` must be referenced
somewhere else in the package, by the benchmark tracer's `TARGETS` or by
the console entry point.  Re-exports in `__init__.py` do not count as a
use.  The allowlist names the few that exist for the tests on purpose.
No module imports an underscore name from another package module, except
the few that `SHARED_PRIVATE` names with their reason.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logbump"

# name -> why the package keeps it although only the tests call it
ALLOWLIST = {
    "gausson_order_study": "acceptance criterion 3's discretization study",
    "eval_potential": "the pointwise reference for `potential_on_grid`",
    "NehariCheck.identity_gap": "the Nehari identity residual that "
                                "criterion 4 bounds",
}

# module.name -> why another package module imports this private name
SHARED_PRIVATE = {
    "functional._log_mass_density": "the floored u^2 log u^2 that the local "
                                    "wells' energy and Nehari scale share "
                                    "with the penalized functional",
}


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
    unused = {
        qualname: f"{name}:{line}"
        for name, tree in trees.items()
        for qualname, line in _definitions(tree)
        if qualname.rsplit(".", 1)[-1] not in used
    }
    extra = [f"{unused[q]} {q}" for q in unused if q not in ALLOWLIST]
    assert extra == [], "referenced nowhere in the package: " + ", ".join(extra)
    # an entry the package now uses, or no longer defines, is stale
    assert sorted(set(ALLOWLIST) - set(unused)) == []


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

"""The library's surface stays the size its callers need, and no smaller.

Two AST checks over the sources:

* every public top-level function and class in src/rssdgeom, and every
  public method of a top-level class, is referenced (as a name, an attribute
  or an import) somewhere in src/, perfbench/*.py or tests/test_acceptance.py,
  or is named in README.md: a name only the other tests call is dead code;
* no module in src/ or tests/ imports a name it never uses.

A third check keeps every name the benchmark's span recorder wraps
(perfbench/spans.py) present in the module it wraps it in.
"""

import ast
import importlib
import importlib.util
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "rssdgeom"
# the criteria tests are frozen, so their imports are not checked either
ACCEPTANCE = REPO / "tests" / "test_acceptance.py"

# cli.main is the console-script entry point (pyproject.toml)
ENTRY_POINTS = {("cli", "main")}

# experiments and admm keep these importable under their own names only
# because perfbench/spans.py wraps them there (they carry a noqa: F401)
UNUSED_IMPORTS_ALLOWED = {
    ("src/rssdgeom/admm.py", "fim_full"),
    ("src/rssdgeom/experiments.py", "mle_estimate"),
    ("src/rssdgeom/experiments.py", "simulate_measurements"),
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(module, qualified name, bare name) of every public definition in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((path.stem, f"{node.name}.{item.name}", item.name))
    return found


def referenced_names(paths):
    """Every name, attribute and imported name that appears in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller():
    callers = [
        *sorted((REPO / "src").rglob("*.py")),
        *sorted((REPO / "perfbench").glob("*.py")),
        ACCEPTANCE,
    ]
    used = referenced_names(callers)
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    missing = [
        f"{module}.{qualified}"
        for module, qualified, bare in public_definitions()
        if (module, qualified) not in ENTRY_POINTS
        and bare not in used
        and not re.search(rf"\b{re.escape(bare)}\b", readme)
    ]
    assert not missing, f"public names that only tests call: {missing}"


def unused_imports(path):
    """Names a module imports but never uses (__all__ entries count as uses)."""
    tree = parse(path)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    modules = [*sorted(PACKAGE.glob("*.py")), *sorted((REPO / "tests").glob("*.py"))]
    unused = [
        (rel, name)
        for path in modules
        if path != ACCEPTANCE
        for rel in [path.relative_to(REPO).as_posix()]
        for name in unused_imports(path)
        if (rel, name) not in UNUSED_IMPORTS_ALLOWED
    ]
    assert not unused, f"imported but never used: {unused}"


def test_every_span_target_exists(monkeypatch):
    # a missing target fails only inside the traced benchmark run otherwise
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spans._TARGETS
        if not hasattr(importlib.import_module(f"rssdgeom.{module}"), attr)
    ]
    assert spans._TARGETS and not missing, f"span targets missing: {missing}"

"""Every name that keplerlab exports, and every public name a module of the
package defines, is used by the program: read in a module of the package, a
script, the benchmark or the acceptance criteria, which measure the paper's
claims through the library.  A helper that only its own unit tests reach
belongs in tests/reference.py, not in the package.  The package namespace
itself holds only what a script, the benchmark or a criterion imports from
it, and the exception classes that callers catch."""

import ast
import types
from pathlib import Path

import keplerlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "keplerlab"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
PROGRAM = (sorted((ROOT / "scripts").rglob("*.py"))
           + sorted((ROOT / "perfbench").rglob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
CALLERS = MODULES + PROGRAM


def exported() -> list[str]:
    """The names that keplerlab/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def defined(path: Path) -> list[str]:
    """The public names a module binds at its top level, by def, class or
    assignment."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def read_names(tree: ast.AST) -> set[str]:
    """Names read in tree, as a name or an attribute, each counted only
    outside the def, class or assignment that binds that same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            owners = owners | {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in owners:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in owners:
                found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_the_parsed_surface_is_the_package_surface():
    public = {name for name, value in vars(keplerlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported()) == public


def read_by_callers() -> set[str]:
    return set().union(*(read_names(ast.parse(path.read_text())) for path in CALLERS))


def test_every_exported_name_has_a_caller_outside_the_unit_tests():
    read = read_by_callers()
    unused = [name for name in exported() if name not in read]
    assert not unused, f"exported, but read only by unit tests: {unused}"


def imported_from_package(tree: ast.AST) -> set[str]:
    """The names that tree imports with `from keplerlab import ...`."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "keplerlab"
            and node.level == 0 for alias in node.names}


def test_every_export_is_imported_by_the_program_or_is_an_exception():
    imported = set().union(*(imported_from_package(ast.parse(path.read_text()))
                             for path in PROGRAM))
    errors = {name for name, value in vars(keplerlab.errors).items()
              if isinstance(value, type) and issubclass(value, Exception)}
    unused = [name for name in exported() if name not in imported | errors]
    assert not unused, ("exported, but imported from keplerlab by no script, benchmark "
                        f"module or acceptance criterion: {unused}")


def test_every_public_module_name_has_a_caller_outside_the_unit_tests():
    read = read_by_callers()
    unused = [f"{path.stem}.{name}" for path in MODULES for name in defined(path)
              if name not in read]
    assert not unused, f"defined, but read only by unit tests: {unused}"

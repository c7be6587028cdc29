"""Module boundaries inside the package."""

import ast
from pathlib import Path

import invkern

PACKAGE = Path(invkern.__file__).parent


def private_imports(path: Path) -> list:
    """Underscore names a module imports from its sibling modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "invkern":
            continue
        found.extend(
            f"{path.name}:{node.lineno} imports {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        )
    return found


def test_no_module_imports_private_names_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [line for path in modules for line in private_imports(path)]
    assert offenders == []

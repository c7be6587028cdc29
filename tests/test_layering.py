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


def functions_naming(name: str) -> set:
    """``module.function`` of every place in the package that names ``name``.

    A use outside any function counts as ``module.<module>``; a nested
    function counts as itself, not as its enclosing one.
    """
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.add(where)
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return found


def test_one_function_rewrites_triples():
    # Every kernel value, Gram tile or pair, goes through the one rewrite
    # step; a second caller would be a second triple path.
    assert functions_naming("transform_triples") == {
        "invariance.transform_triples",
        "invariance._rewrite",
    }


def definitions_of(names: set) -> list:
    """``module: name`` of every def, class, assignment or import of ``names``."""
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                found = [node.id]
            elif isinstance(node, ast.alias):
                found = [node.asname or node.name]
            defined.extend(f"{path.name}: {n}" for n in found if n in names)
    return defined


def test_no_scalar_triple_copies_in_the_package():
    # The scalar one-pair formulas live in tests/oracles.py as references.
    assert definitions_of({"inner_product", "make_triple", "eval_base"}) == []


def test_no_group_element_algebra_in_the_package():
    # A group element is its scalar factor: identity 1.0, composition the product.
    assert definitions_of({"GroupElement", "compose", "identity_element"}) == []

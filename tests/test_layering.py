"""Module boundaries inside the package."""

import ast
from pathlib import Path

import invkern
from invkern.kernels import FAMILIES

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


def functions_where(test) -> set:
    """``module.function`` of every place in the package with a node passing ``test``.

    A node outside any function counts as ``module.<module>``; a nested
    function counts as itself, not as its enclosing one.
    """
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if test(child):
                found.add(where)
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return found


def functions_naming(name: str) -> set:
    """``module.function`` of every place in the package that names ``name``."""
    return functions_where(
        lambda node: (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    )


def test_one_function_rewrites_triples():
    # Every kernel value, Gram tile or pair, goes through the one rewrite
    # step; a second caller would be a second triple path.
    assert functions_naming("transform_triples") == {
        "invariance.transform_triples",
        "invariance._rewrite",
    }


def test_one_function_makes_base_values():
    # Gram tiles and pairs alike reach the base kernel through the checked
    # step; a second caller could be an unchecked or in-place copy of it.
    assert functions_naming("base_values") == {"invariance._checked_values"}


def test_one_function_multiplies_points():
    # Every norm is the diagonal of the product that gives <x,y>, Gram tile or
    # pair: a second product, or norms written over a product's diagonal from
    # elsewhere, would round a point apart from its own transforms.
    source = (PACKAGE / "invariance.py").read_text(encoding="utf-8")
    products = set()
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)) or (
                    getattr(node, "id", None) or getattr(node, "attr", None)
                ) in ("matmul", "dot"):
                    products.add(function.name)
    assert products == {"_tile_triple"}
    assert functions_naming("fill_diagonal") == set()


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


def test_no_explicit_feature_oracles_in_the_package():
    # The brute-force quotient features are test references, in tests/oracles.py.
    assert definitions_of({"quotient_map_oracle", "frobenius_inner", "OracleSizeError"}) == []


def test_the_gram_is_a_plain_array():
    assert definitions_of({"GramMatrix", "_gram_values"}) == []


def test_no_function_takes_a_metric_parameter():
    # k-means is angular only; a metric switch would bring back a second path.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = args.posonlyargs + args.args + args.kwonlyargs
                names += [a for a in (args.vararg, args.kwarg) if a is not None]
                if any(a.arg == "metric" for a in names):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def family_groups(path: Path) -> list:
    """Tuple, list, set and dict literals holding two or more family names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = node.keys + node.values
        else:
            continue
        names = [i.value for i in items if isinstance(i, ast.Constant) and i.value in FAMILIES]
        if len(names) >= 2:
            found.append(f"{path.name}:{node.lineno} {names}")
    return found


def test_only_kernels_groups_family_names():
    # Which family reads which parameter is decided once, in kernels.FAMILIES.
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "kernels.py"]
    assert [line for path in modules for line in family_groups(path)] == []


def test_cli_has_no_sigma_fallback_by_or():
    # `args.sigma or default` turns --sigma 0 into the default; the CLI
    # tests `is None` instead, so 0 reaches BaseKernel and exits 2.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
        and any(ast.unparse(v) == "args.sigma" for v in node.values)
    ]
    assert offenders == []


def test_the_package_raises_only_its_own_errors():
    # Every failure is an errors.py class, so errors.py alone maps it to an
    # exit code.  argparse.ArgumentTypeError is argparse's protocol for a bad
    # flag value, and only cli._seed uses it.
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    own = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in own:
                    foreign.append(f"{path.name}: {ast.unparse(exc)}")
    assert foreign == ["cli.py: argparse.ArgumentTypeError"]
    assert functions_naming("ArgumentTypeError") == {"cli._seed"}


def test_only_errors_assigns_exit_codes():
    # One owner of the non-zero exit codes: no EXIT_* constant or exit_code
    # attribute outside errors.py.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", "")
            if name.startswith("EXIT_") or name == "exit_code":
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_one_invariance_model():
    # A chain is the flat tuple of its stages: no compatibility warning and
    # no programmatic nesting depth.
    names = {"ChainCompatibilityWarning", "_VALIDATED_PAIRS", "_warn_if_unvalidated", "_depth"}
    assert definitions_of(names) == []
    assert not hasattr(invkern, "ChainCompatibilityWarning")
    assert functions_naming("warn") == set()


def test_the_package_imports_no_scipy():
    # Every BLAS call goes through numpy's one OpenBLAS: scipy ships its own,
    # and two thread pools in one process take cores from each other.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            offenders.extend(
                f"{path.name}:{node.lineno} imports {module}"
                for module in modules
                if module.split(".")[0] == "scipy"
            )
    assert offenders == []



def test_one_gram_form():
    # The spectral layer reads every Gram as row blocks: _blocks wraps an N x N
    # array as one block, and nothing after it asks which form it got.
    places = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and any(getattr(n, "id", None) == "tuple" for n in ast.walk(child.args[-1]))
            ):
                places.add(where)
            visit(child, where)

    visit(ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8")), "<module>")
    assert places <= {"_blocks"}
    assert definitions_of({"_as_gram"}) == []


def test_one_reader_per_input():
    # data.points_of, labels_of and count_of alone decide what a point set, a
    # label array and a count are; spectral._blocks alone reads a Gram's dtype.
    assert definitions_of({"_point_array", "_gram_points"}) == []
    assert functions_naming("Integral") <= {"data.count_of"}
    assert functions_where(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
        and any(isinstance(a, ast.Constant) and a.value == "points" for a in node.args)
    ) == set()
    kind_tests = functions_where(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "kind"
        and getattr(node.value, "attr", None) == "dtype"
    )
    assert kind_tests <= {"data.points_of", "data.labels_of", "spectral._blocks"}


def test_one_float_text_writer():
    # data.write_float_rows alone turns arrays of floats into text; a
    # map(repr, ...) or a comprehension of repr() over cells elsewhere would be
    # a second, slower writer of the same bytes.
    def repr_of_cells(node):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "map":
            return bool(node.args) and ast.unparse(node.args[0]) == "repr"
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return any(
                isinstance(call, ast.Call) and ast.unparse(call.func) == "repr"
                for call in ast.walk(node)
            )
        return False

    assert functions_where(repr_of_cells) == set()


def test_one_digit_rule():
    # A cell's digits come from data.write_float_rows' vectorized pick or
    # from repr itself; a second exact digit routine, or a table of powers
    # of two built through one, would be a fork of repr.
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert defined & {"_exact_digits", "_powers_of_two"} == set()

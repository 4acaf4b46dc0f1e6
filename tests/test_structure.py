"""Source-structure rules for the package, checked on the syntax tree.

Modules share helpers only through public names, import only at module level
and only what they use, call every private function they define, and choose a
construction through the table in params_io rather than by testing parameter
types. The decoder helpers in scan.py exist for the constructions, so each
public one is used by another module. Two rules are checked on the imported
modules instead: none builds a large table at import, and every name the
benchmark in perfbench/ imports from the package exists.
"""
import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crisscross"
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"
PARAMS_TYPES = {"C1Params", "C2Params", "C3Params"}
TABLE_MODULE = "params_io.py"
DERIVED_ARRAY_USERS = {"core_array.py", "scan.py", "code_c1.py", "code_c2.py", "code_c3.py"}


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in paths} >= {"cli.py", TABLE_MODULE, "scan.py", "verify.py"}
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "crisscross"


def test_no_private_names_imported_from_sibling_modules():
    bad = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_package_import(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad


def test_no_imports_inside_functions():
    bad = [
        f"{name}:{inner.lineno} in {func.name}"
        for name, tree in _trees()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not bad


def test_no_isinstance_on_params_types_outside_the_table():
    bad = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name != TABLE_MODULE
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and PARAMS_TYPES & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    ]
    assert not bad


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_imports_outside_the_package_root():
    bad = []
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        used = _loaded_names(tree)
        bad += [
            f"{name}:{lineno} {imported}"
            for lineno, imported in _imported_names(tree)
            if imported not in used
        ]
    assert not bad


def test_every_private_function_is_used_in_its_own_module():
    bad = []
    for name, tree in _trees():
        used = _loaded_names(tree)
        bad += [
            f"{name}:{node.lineno} {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
            and node.name not in used
        ]
    assert not bad


def test_every_public_scan_function_is_used_by_another_module():
    trees = dict(_trees())
    used_elsewhere = set().union(*(_loaded_names(tree) for name, tree in trees.items()
                                   if name != "scan.py"))
    bad = [
        f"scan.py:{node.lineno} {node.name}"
        for node in trees["scan.py"].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used_elsewhere
    ]
    assert not bad


def test_only_core_array_and_the_decoders_build_arrays_without_validation():
    # core_array.derived_array skips Array2D's checks, which holds only for
    # cells derived from a validated array; no other module may reach it,
    # and the package root does not export it
    bad = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name not in DERIVED_ARRAY_USERS
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "derived_array"
        or isinstance(node, ast.Attribute) and node.attr == "derived_array"
        or isinstance(node, ast.alias) and node.name == "derived_array"
    ]
    assert not bad
    assert not hasattr(importlib.import_module("crisscross"), "derived_array")


def test_no_module_builds_a_large_container_at_import():
    # every run of the library pays for its import; a lookup table is built
    # lazily where it is used, never as a module global
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"crisscross.{path.stem}".removesuffix(".__init__"))
        bad += [
            f"{path.name} {name}: {len(value)} entries"
            for name, value in vars(module).items()
            if not name.startswith("__")
            and isinstance(value, (list, tuple, dict, set, frozenset, bytes, bytearray))
            and len(value) > 64
        ]
    assert not bad


def test_every_name_the_benchmark_imports_from_the_package_exists():
    # the suite does not run the benchmark's own tests, so a renamed function
    # that the benchmark imports would pass here and fail every benchmark run
    wanted = [
        (path.name, node.module, alias.name)
        for path in sorted(BENCHMARK.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "crisscross"
        for alias in node.names
    ]
    assert {module for _, module, _ in wanted} >= {"crisscross", "crisscross.core_array"}
    missing = [
        f"{name}: from {module} import {imported}"
        for name, module, imported in wanted
        if not hasattr(importlib.import_module(module), imported)
    ]
    assert not missing

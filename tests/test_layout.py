"""Source layout: no module imports a name it never uses, no function has
a parameter it never reads, and the library imports no third-party module
besides the ones it runs on: numpy, and the bare scipy package, imported
once, inside solver.lapack(), to load scipy's LAPACK module for the LU solve
of small systems, its only use of scipy.

The environment has no linter; these are the lint rules the package keeps,
so that deleting code also deletes the imports only it needed.
"""

import ast
import fnmatch
import sys
from pathlib import Path

import pytest

from nlcolloc import collocation

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "nlcolloc").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = sorted([*LIBRARY, *SCRIPTS, ROOT / "tests" / "reference.py"])
# what the library runs on, as fnmatch patterns: numpy and its submodules,
# and the bare scipy package; scipy.linalg, scipy.integrate and the rest
# serve only tests
THIRD_PARTY = ("numpy", "numpy.*", "scipy")


def imported_names(tree):
    """Name bound by each import statement -> line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    # a package re-exports what it lists in __all__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused


def unread_parameters(tree):
    """(line, function, parameter) for each parameter, self and cls aside,
    that its function's body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((node.lineno, getattr(node, "name", "<lambda>"), p)
                        for p in params
                        if p not in read and p not in ("self", "cls"))


@pytest.mark.parametrize("path", [*LIBRARY, *SCRIPTS], ids=lambda p: p.name)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [f"{path.name}:{line} {function}({param})"
              for line, function, param in unread_parameters(tree)]
    assert not unread


def imported_modules(tree):
    """Every absolute module an import statement names, function-local ones
    included: `from scipy import linalg` names scipy.linalg."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "scipy":
                yield from (f"scipy.{alias.name}" for alias in node.names)
            else:
                yield node.module


def test_library_imports_only_its_runtime_dependencies():
    foreign = [f"{path.name}: {module}" for path in LIBRARY
               for module in imported_modules(ast.parse(path.read_text()))
               if module.split(".")[0] not in sys.stdlib_module_names
               and not any(fnmatch.fnmatchcase(module, pattern)
                           for pattern in THIRD_PARTY)]
    assert not foreign


def module_level_imports(tree):
    """Every absolute module imported when the module itself is: the import
    statements outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from imported_modules(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_library_imports_scipy_only_inside_functions():
    # loading scipy and its LAPACK module costs about 12 ms; only the call
    # that uses LAPACK (an LU solve) may pay for it
    eager = [f"{path.name}: {module}" for path in LIBRARY
             for module in module_level_imports(ast.parse(path.read_text()))
             if module.split(".")[0] == "scipy"]
    assert not eager


def scipy_import_sites(tree):
    """The innermost function around each import statement that names a
    scipy module, None for one outside every function."""
    def visit(node, function):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(module.split(".")[0] == "scipy"
                        for module in imported_modules(node))):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
    return list(visit(tree, None))


def test_library_imports_scipy_once_in_solver_lapack():
    # the scipy.linalg package takes about 0.17 s to import, mostly for
    # modules the library never calls; solver.lapack() loads the one LAPACK
    # module it needs without that package, for the LU solve, its one
    # caller (the oracle's seeds come from numpy)
    sites = [(path.name, function) for path in LIBRARY
             for function in scipy_import_sites(ast.parse(path.read_text()))]
    assert sites == [("solver.py", "lapack")]


def test_schemes_define_none_of_the_shared_functions():
    # collocation writes these once for both schemes; a scheme module
    # defines only what differs, so a copy in one of them cannot come back
    shared = {function.__name__ for function in collocation.SHARED}
    copies = [f"{name}: {node.name}" for name in ("plc.py", "pqc.py")
              for node in ast.walk(ast.parse(
                  (ROOT / "src" / "nlcolloc" / name).read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name in shared]
    assert shared and not copies

import ast
import sys
from pathlib import Path

import prodvc


def test_runtime_imports_only_stdlib():
    src = Path(prodvc.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "prodvc" or top in sys.stdlib_module_names, (path.name, name)


# Public top-level functions and classes that no module of the package uses,
# so only tests (or the benchmark) call them, each with the reason it stays.
# A new one fails `test_every_helper_only_tests_call_is_listed` until it is
# listed here, or used, or removed.
ONLY_TESTS_CALL = {
    "arboricity_bruteforce": "named oracle",
    "densest_subgraph_bruteforce": "named oracle",
    "is_chordal_bruteforce": "named oracle",
    "is_dismantlable_bruteforce": "named oracle",
    "vcd_set_system": "named oracle",
    "shatters_subproduct": "named oracle",
    "to_edgelist": "file format: writes what from_edgelist reads",
    "check_hypercube_bound": "acceptance criterion (Thm1); no verify suite runs it",
    "connected_partitions": "read by the benchmark",
    "fiber": "open debt",
    "projection": "open debt",
    "hamming": "open debt",
    "hypercube": "open debt",
    "hypercube_recursion_bound": "open debt",
}


def _named(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_helper_only_tests_call_is_listed():
    src = Path(prodvc.__file__).parent
    defined, used = set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add(node.name)
                # a definition that names itself (recursion) does not use itself
                used.update(name for name in _named(node) if name != node.name)
            else:
                used.update(_named(node))
    unused = defined - used
    assert unused - ONLY_TESTS_CALL.keys() == set(), "no module uses these: use, delete or list"
    assert ONLY_TESTS_CALL.keys() - unused == set(), "listed, but used or gone: unlist"

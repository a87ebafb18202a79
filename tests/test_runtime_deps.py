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

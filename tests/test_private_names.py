"""No fermatq module imports an underscore name from another: a name two
modules share is public in the module that defines it."""

import ast
from pathlib import Path

import fermatq

SRC = Path(fermatq.__file__).resolve().parent


def private_imports(src: Path) -> list[str]:
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fermatq")):
                names = [alias.name for alias in node.names]
                found += [f"{path.name}: {name}" for name in names if name.startswith("_") and not name.endswith("__")]
    return found


def test_no_module_imports_another_modules_private_name():
    assert private_imports(SRC) == []

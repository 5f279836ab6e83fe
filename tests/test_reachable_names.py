"""Every public top-level function and class of fermatq is reachable: some
other code of the package refers to it, the benchmark's traced runner
wraps it, or README documents it.  Code that only tests reach belongs in
the tests."""

import ast
import importlib.util
import re
from pathlib import Path

import fermatq

SRC = Path(fermatq.__file__).resolve().parent
ROOT = SRC.parent.parent
INPROC = ROOT / "perfbench" / "inproc.py"


def _names_used(node: ast.AST) -> set[str]:
    """The names and attribute names that node reads, at any depth."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
    return used


def unreachable_names(src: Path, traced: set[str], readme: str) -> list[str]:
    """module.name of each public top-level def or class that nothing in src
    but its own definition refers to, that traced lacks and that readme
    does not name."""
    definitions, statements = [], []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((stmt, _names_used(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    definitions.append((f"{path.stem}.{stmt.name}", stmt))
    found = []
    for qualified, definition in definitions:
        name = qualified.split(".")[1]
        if any(name in used for stmt, used in statements if stmt is not definition):
            continue
        if qualified in traced or re.search(rf"\b{name}\b", readme):
            continue
        found.append(qualified)
    return found


def test_every_public_name_is_reachable():
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    traced = {f"{module}.{name}" for module, names in inproc.TRACED.items() for name in names}
    readme = (ROOT / "README.md").read_text()
    assert unreachable_names(SRC, traced, readme) == []

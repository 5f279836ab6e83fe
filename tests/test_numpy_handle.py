"""numpy loads in one place: the lazy handle `fermatq.np`.  No other
fermatq module imports numpy, and no module-level statement reads an
attribute of the handle, which would load numpy at import."""

import ast
from pathlib import Path

import fermatq

SRC = Path(fermatq.__file__).resolve().parent


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def numpy_imports(src: Path) -> list[str]:
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "numpy"]
    return found


def import_time_reads(tree: ast.Module) -> list[int]:
    """Lines where code run at import reads an attribute of np: anything
    outside a function body, including decorators, default arguments and
    class bodies.  Annotations count unless the module postpones them."""
    postponed = any(
        isinstance(node, ast.ImportFrom) and node.module == "__future__" and "annotations" in [a.name for a in node.names]
        for node in tree.body
    )
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            evaluated = [*getattr(node, "decorator_list", []), *args.defaults, *filter(None, args.kw_defaults)]
            if not postponed and not isinstance(node, ast.Lambda):
                every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                evaluated += [a.annotation for a in every if a is not None and a.annotation] + [node.returns]
            for child in filter(None, evaluated):
                visit(child)
            return  # the body runs only when the function is called
        if isinstance(node, ast.AnnAssign) and postponed:
            for child in filter(None, (node.target, node.value)):
                visit(child)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_numpy_is_imported_only_by_the_handle():
    imports = numpy_imports(SRC)
    assert len(imports) == 1 and imports[0].startswith("__init__.py:"), imports


def test_no_module_reads_np_at_import():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in import_time_reads(parse(path))]
    assert found == []


def test_import_time_reads_are_caught():
    code = (
        "import functools\n"
        "from . import np\n"
        "ZERO = np.zeros(1)\n"
        "@functools.lru_cache(maxsize=np.int64(4))\n"
        "def f(x=np.pi, *, y: np.ndarray = None):\n"
        "    return np.exp(x)\n"
        "class C:\n"
        "    dtype = np.int64\n"
        "    def g(self):\n"
        "        return np.ones(2)\n"
    )
    assert import_time_reads(ast.parse(code)) == [3, 4, 5, 5, 8]
    assert import_time_reads(ast.parse("from __future__ import annotations\n" + code)) == [4, 5, 6, 9]

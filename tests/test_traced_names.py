"""The benchmark's traced runner wraps fermatq functions by name; every
name it lists must still resolve, or a traced run fails on lookup."""

import importlib
import importlib.util
from pathlib import Path

INPROC = Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    missing = [
        f"fermatq.{mod}.{name}"
        for mod, names in inproc.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fermatq.{mod}"), name, None))
    ]
    assert inproc.TRACED and not missing

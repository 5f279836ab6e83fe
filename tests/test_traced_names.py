"""The benchmark's traced runner wraps fermatq functions by name; every
name it lists must still resolve, or a traced run fails on lookup."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import fermatq

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


def test_traced_modules_loaded_by_cli_import():
    # the tracer rebinds names only in modules loaded when it installs,
    # which is right after `import fermatq.cli`; a module imported lazily
    # later would run without its spans
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    code = "import json, sys, fermatq.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatq.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert not [mod for mod in inproc.TRACED if f"fermatq.{mod}" not in loaded]

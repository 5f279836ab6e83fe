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
    # the tracer rebinds names only in modules registered when it installs,
    # which is right after `import fermatq.cli`; a module imported later
    # would run without its spans
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    code = "import json, sys, fermatq.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatq.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert not [mod for mod in inproc.TRACED if f"fermatq.{mod}" not in loaded]


def test_spans_reach_lazily_executed_modules():
    # cli registers these modules lazily; the tracer's reads execute them
    # before it rebinds, so their functions are counted
    argvs = [
        ["avg", "--P", "64", "--N-rule", "10"],
        ["scan", "--pmin", "3", "--pmax", "300"],
        ["ratios", "--p", "11", "--Z", "50"],
        ["sieve", "--R", "3", "--K", "8"],
        ["maxsum", "--p", "7", "--n", "49"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatq.__file__)))
    done = subprocess.run(
        [sys.executable, str(INPROC), "--traced", "1"],
        input=json.dumps(argvs),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert [call["rc"] for call in result["calls"]] == [0] * len(argvs)
    names = (
        "sieve.theorem1_average",
        "primroots.theorem4_exponent_scan",
        "subgroups.count_ratios",
        "sieve.large_sieve_lhs",
        "charsums.max_exp_sum",
    )
    assert not [name for name in names if not result["layers"][name]["calls"]]

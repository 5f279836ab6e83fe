"""--memcap and --budget are checked in one place, RunConfig.charge, which
cli's main calls on every plan's charges before its run; the library takes
no caps."""

import ast
import importlib
import inspect
import os
import tracemalloc
from pathlib import Path

import pytest

import fermatq
from fermatq.cli import COMMANDS, main

SRC = Path(fermatq.__file__).resolve().parent

# the functions that may refuse work themselves: the charge, and a walk
# whose length is known only by walking it
REFUSERS = {"config.py": {"charge"}, "subgroups.py": {"generated_within"}}

# subcommands whose work no flag-sized argument can make large
COST_FREE = {"quotient", "primroot", "nonres", "selftest"}

# a small valid call of each subcommand with a cost
MINIMAL = {
    "table": ("--p", "5", "--n", "10"),
    "image": ("--p", "5", "--n", "10"),
    "expsum": ("--p", "5", "--a", "1", "--n", "10"),
    "maxsum": ("--p", "5", "--n", "10"),
    "avg": ("--P", "8", "--N-rule", "3"),
    "sieve": ("--R", "2", "--K", "4"),
    "rho": ("--M", "12", "--b", "5", "--nu", "3", "--k", "6"),
    "ratios": ("--p", "7", "--Z", "3"),
    "doublesum": ("--p", "7", "--order", "2", "--ucap", "5", "--vcap", "5"),
    "scan": ("--pmin", "3", "--pmax", "10"),
}


def _raising_functions(path: Path) -> set[str]:
    """Names of the functions in a module whose own body raises BudgetError."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                exc = node.exc.func if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) else None
                if isinstance(exc, ast.Name) and exc.id == "BudgetError":
                    found.add(fn.name)
    return found


def test_budget_errors_are_raised_only_by_the_charge_and_one_guard():
    raised = {path.name: _raising_functions(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: fns for name, fns in raised.items() if fns} == REFUSERS
    text = "\n".join(path.read_text() for path in SRC.glob("*.py"))
    assert text.count("raise BudgetError") == 3


def test_no_public_function_takes_a_cap():
    takers = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "config"):  # config resolves the caps themselves
            continue
        module = importlib.import_module(f"fermatq.{path.stem}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                caps = {"max_entries", "budget_ops"} & set(inspect.signature(fn).parameters)
                takers += [f"{module.__name__}.{name}({cap})" for cap in sorted(caps)]
    assert takers == ["fermatq.sieve.theorem1_average(max_entries)"]


def test_every_subcommand_is_charged_or_cost_free():
    assert set(COMMANDS) == COST_FREE | set(MINIMAL)


def _calls_by_function(path: Path, name: str) -> list[str]:
    """The functions of a module, nested ones as outer.inner, that call name
    or a method of that name, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func.attr if isinstance(child.func, ast.Attribute) else getattr(child.func, "id", None)
                if callee == name:
                    found.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_main_charges_every_plan_then_runs_it():
    # a plan is a generator that main alone resumes: for each list of its
    # charges, which main charges, and then for its work; avg yields a list
    # for each window once its charged segment has listed the primes
    assert all(inspect.isgeneratorfunction(command.plan) for command in COMMANDS.values())
    assert _calls_by_function(SRC / "cli.py", "next") == ["main", "main"]
    charges = {path.name: _calls_by_function(path, "charge") for path in SRC.glob("*.py")}
    assert {name: fns for name, fns in charges.items() if fns} == {"cli.py": ["main"]}


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_charged_subcommand_refuses_at_the_smallest_caps(capsys, tmp_path, command):
    out_path = tmp_path / "report.csv"
    assert main([command, *MINIMAL[command]]) == 0  # the call is valid
    capsys.readouterr()
    rc = main([command, *MINIMAL[command], "--memcap", "24", "--budget", "1", "--out", str(out_path)])
    assert rc == 3 and capsys.readouterr().err.startswith("budget:")
    assert not os.listdir(tmp_path)


# a call of each subcommand whose working set a flag makes large, at a size
# its config.PEAK_BYTES were traced at; rho's rows at half the rows of the
# first call traced, where the chunk being rendered weighs twice as much a row
TRACED = {
    "expsum": ("expsum", "--p", "1000003", "--a", "1", "--n", "250000"),
    "sieve-K": ("sieve", "--R", "2", "--K", "100000"),
    # the least-prime-factor sieve of R, with the divisor lists of each r
    "sieve-R": ("sieve", "--R", "20000", "--K", "4"),
    # coefficients, transforms and sieve together, as one charge
    "sieve-RK": ("sieve", "--R", "3000", "--K", "400000"),
    "doublesum": ("doublesum", "--p", "65521", "--ucap", "10", "--vcap", "10"),  # n = 2^17, about 2p
    "maxsum": ("maxsum", "--p", "1000003", "--n", "10"),
    # the histogram and the tail's table, live at once, as one charge
    "image": ("image", "--p", "1000003", "--n", "1000000"),
    # the table of Z entries and its sorted defined values, nearly all distinct
    "ratios": ("ratios", "--p", "1000003", "--Z", "1000000"),
    "rho-csv": ("rho", "--M", "1", "--b", "0", "--nu", "1", "--kmax", "100000"),
    "rho-json": ("rho", "--M", "1", "--b", "0", "--nu", "1", "--kmax", "100000", "--format", "json"),
    # two segments, the rows of the first held through the second
    "scan": ("scan", "--pmin", "3", "--pmax", "400000"),
    "scan-json": ("scan", "--pmin", "3", "--pmax", "400000", "--format", "json"),
    # one row, one chunk: a round's pairs, p - 1 with 9 distinct primes
    "scan-one": ("scan", "--pmin", "892371481", "--pmax", "892371481", "--format", "json"),
}


@pytest.mark.parametrize("argv", TRACED.values(), ids=TRACED)
def test_traced_peak_within_its_charge(capsys, tmp_path, argv):
    # the charges cover the traced peak exactly when a cap one byte below it refuses the call
    out = ("--out", str(tmp_path / "report.out"))
    for format in ("csv", "json"):  # the modules and both writers load outside the trace
        assert main([argv[0], *MINIMAL[argv[0]], "--format", format, *out]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, *out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert main([*argv, *out, "--memcap", str(peak - 1)]) == 3
    assert capsys.readouterr().err.startswith("budget:")

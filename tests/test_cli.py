import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fermatq
from fermatq import charsums, selftest
from fermatq.arith import is_prime, primes_up_to
from fermatq.cli import COMMANDS, main, parse_n_rule
from fermatq.config import PEAK_BYTES, charged_entries
from fermatq.quotients import quotient_table
from fermatq.sieve import transform_length


def parse_csv(text):
    """(header, rows) of a csv report: the header a tuple, each row a list."""
    header, *rows = csv.reader(io.StringIO(text))
    return tuple(header), rows


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_quotient_golden_row(capsys):
    rc, out, _ = run(capsys, "quotient", "--p", "5", "--u", "2")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ("p", "u", "q", "version", "seed", "wall_seconds")
    assert rows[0][:3] == ["5", "2", "3"]


def test_quotient_undefined_is_blank(capsys):
    rc, out, _ = run(capsys, "quotient", "--p", "5", "--u", "10")
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0][:3] == ["5", "10", ""]


def test_image_golden_row(capsys):
    rc, out, err = run(capsys, "image", "--p", "5", "--n", "4")
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0][:3] == ["5", "4", "3"]
    # the Cauchy-floor comparison goes to the diagnostic stream only
    assert "cauchy" in err and "cauchy" not in out


def test_primroot_golden_row(capsys):
    rc, out, _ = run(capsys, "primroot", "--p", "7", "--cap", "100")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:4] == ("p", "n_min", "exponent", "verified")
    p, n_min, exponent, verified = rows[0][:4]
    assert (p, n_min, verified) == ("7", "9", "1")
    assert abs(float(exponent) - math.log(9) / math.log(7)) < 1e-11
    assert exponent.startswith("1.129")


def test_expsum_schema_and_values(capsys):
    rc, out, _ = run(capsys, "expsum", "--p", "7", "--a", "1", "--n", "49")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:7] == ("p", "a", "N", "re", "im", "abs", "rhs_eq1_nu2")
    row = rows[0]
    # the full period of a nontrivial character sums to zero
    assert abs(float(row[3])) < 1e-9
    assert abs(float(row[4])) < 1e-9


def test_maxsum_matches_expsum_at_argmax(capsys):
    rc, out, _ = run(capsys, "maxsum", "--p", "11", "--n", "60")
    assert rc == 0
    _, rows = parse_csv(out)
    a_star = rows[0][1]
    rc2, out2, _ = run(capsys, "expsum", "--p", "11", "--a", a_star, "--n", "60")
    assert rc2 == 0
    _, rows2 = parse_csv(out2)
    # histogram-grouped and direct summation round differently in the last bits
    for got, want in zip(rows[0][3:6], rows2[0][3:6]):
        assert abs(float(got) - float(want)) < 1e-9


def test_missing_argument_exits_2(capsys):
    assert run(capsys, "quotient", "--p", "5")[0] == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "nope")[0] == 2


def test_domain_error_exits_2(capsys):
    rc, _, err = run(capsys, "quotient", "--p", "8", "--u", "2")
    assert rc == 2
    assert "odd prime" in err


def test_budget_refusal_exits_3_without_partial_file(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    rc, _, err = run(capsys, "table", "--p", "5", "--n", "100000", "--memcap", "1000", "--out", str(out_path))
    assert rc == 3
    assert "budget" in err
    assert not out_path.exists()


_REFUSED = [
    # a scan's rows and lanes, and avg's segment of P entries; a scan's
    # pmax stays below 2^31, or the range itself is bad input
    ("scan", "--pmin", "3", "--pmax", "2000000000"),
    ("scan", "--pmin", "3", "--pmax", "100000000", "--memcap", "1000"),
    ("avg", "--P", "1000000000000", "--N-rule", "1"),
    # a window of one N is priced from a lower bound on its primes before
    # its segment lists them: 2.6 s to list 3.3 * 10^6 primes and refuse
    ("avg", "--P", "60000000", "--N-rule", "1"),
    # the convolution is charged before the character's discrete-log table
    ("doublesum", "--p", "1000003", "--order", "2", "--ucap", "10", "--vcap", "10", "--memcap", "1000"),
    # and so is its one quotient table, of max(ucap, vcap) entries
    ("doublesum", "--p", "1000003", "--order", "2", "--ucap", "10000000000", "--vcap", "10"),
    # --p's table of Z entries is charged before it is built, and builds no
    # G_p; a --gen walk stops at the budget
    ("ratios", "--p", "2147483647", "--Z", "1000000", "--memcap", "1000000"),
    ("ratios", "--m", "4611686018427388039", "--gen", "3", "--Z", "10", "--budget", "1"),
    # the scan's lanes are charged before its segments
    ("scan", "--pmin", "3", "--pmax", "5000000", "--budget", "1"),
    # the divisor terms of every r <= R, bounded in closed form, not counted
    # by a loop over r, and every R before the first
    ("sieve", "--R", "30000000", "--K", "4"),
    ("sieve", "--R", "400", "30000000", "--K", "4"),
    # each (r, d) term weighs 23 steps more than its elements: 8.5 * 10^9
    # steps, where one a term admitted it at 7.1 * 10^8 for minutes of work
    ("sieve", "--R", "20000000", "--K", "4"),
    # every scale's segment and cost are charged before the first window
    ("avg", "--pmin", "256", "--pmax", "100000000", "--N-rule", "100", "--memcap", "2400000"),
    # k rows against --memcap and their steps against --budget, before the k list
    ("rho", "--M", "12", "--b", "5", "--nu", "3", "--kmax", "100000000"),
    ("rho", "--M", "12", "--b", "5", "--nu", "3", "--kmax", "3000000", "--budget", "1000", "--memcap", "3000000000"),
    # rows at their traced size: 3000 rows at 24 bytes fit 10^5 bytes, at about 900 they do not
    ("rho", "--M", "12", "--b", "5", "--nu", "3", "--kmax", "3000", "--memcap", "100000"),
    # the length-p histogram is charged before the table
    ("image", "--p", "2147483647", "--n", "10"),
    ("maxsum", "--p", "2147483647", "--n", "10", "--memcap", "1000000"),
    # maxsum charges all n entries although it folds them into one period
    ("maxsum", "--p", "7", "--n", "100000000"),
    # the largest N_p against the table cap, before the window's segment
    ("avg", "--P", "1024", "--N-rule", "P^2", "--memcap", "100000"),
    # the states of a highly composite k: tau(735134400) = 1344 cofactors a level
    ("rho", "--M", "100000", "--b", "1", "--nu", "6", "--k", "735134400"),
    # 2Z = p^2 - 1 is a valid Z, whose table is charged; the float p^2 / 2 refused it
    ("ratios", "--p", "2147483647", "--Z", "2305843007066210304"),
    # working sets charged at their traced bytes, PEAK_BYTES, past the default cap or the one given
    ("expsum", "--p", "7", "--a", "1", "--n", "80000000"),
    # K coefficients and their transforms of 2^27 points: 3.9 * 10^9 bytes
    ("sieve", "--R", "2", "--K", "40000000"),
    ("doublesum", "--p", "16777259", "--order", "2", "--ucap", "10", "--vcap", "10"),  # n = 2^26
    ("maxsum", "--p", "50000017", "--n", "10"),
    ("ratios", "--p", "2147483647", "--Z", "50000000"),  # 2.4 * 10^9 bytes
    # each of its two parts fits the cap of 1,020,833 entries, their sum does not
    ("image", "--p", "1000003", "--n", "1000000", "--memcap", "24500000"),
]


@pytest.mark.parametrize("argv", _REFUSED)
def test_refusal_comes_before_the_work(capsys, monkeypatch, tmp_path, argv):
    out_path = tmp_path / "report.csv"
    dlog_builds, build = [], charsums.discrete_log_table
    monkeypatch.setattr(charsums, "discrete_log_table", lambda p: dlog_builds.append(p) or build(p))
    started = time.monotonic()
    rc, _, err = run(capsys, *argv, "--out", str(out_path))
    assert rc == 3 and err.startswith("budget:"), err
    assert time.monotonic() - started < 1.0
    assert dlog_builds == []
    assert not os.listdir(tmp_path)


_BAD_INPUT = [
    ("ratios", "--p", "1000003", "--Z", "0"),
    # Z = m is invalid whatever the group's order, which a walk would take 5.5 * 10^6 steps to learn
    ("ratios", "--m", "4611686018427388039", "--gen", "3", "--Z", "4611686018427388039"),
    # a range past 2^31, whose rows and lanes the default caps refuse
    ("scan", "--pmin", "3", "--pmax", "4000000000"),
    # the trivial character, whose convolution --memcap refuses
    ("doublesum", "--p", "1000003", "--order", "1", "--ucap", "10", "--vcap", "10", "--memcap", "1000"),
    # a bad later item, before the earlier ones are summed or factored
    ("sieve", "--R", "300", "0", "--K", "4096"),
    ("rho", "--M", "1000", "--b", "1", "--nu", "6", "--k", "735134400", "0"),
    # each exited 3 at a small cap, whose charge came before the check
    ("image", "--p", "1000003", "--n", "0"),
    ("maxsum", "--p", "7", "--n", "0"),
    ("avg", "--P", "256", "--N-rule", "0"),
    ("ratios", "--p", "1000003", "--Z", "10", "--nu", "0"),
    ("doublesum", "--p", "1000003", "--order", "2", "--ucap", "0", "--vcap", "10"),
    # 2Z > m by 200 and by 1, which the float m / 2 admitted
    ("ratios", "--m", "4611686018427388504", "--gen", "4611686018427388503", "--Z", "2305843009213694352"),
    ("ratios", "--p", "2147483629", "--Z", "2305842968411504821"),
    # n past the int64 counts, before the histogram's charge and maxsum's charge of n
    ("image", "--p", "7", "--n", "9223372036854775808"),
    ("maxsum", "--p", "7", "--n", "9223372036854775808"),
    # M past int64, whose roots of unity took M as an int64 (exit 1)
    ("rho", "--M", "9223372036854775808", "--b", "1", "--nu", "2", "--k", "3"),
    # n below 1, which a table's charge of n entries let through to the work
    ("table", "--p", "7", "--n", "0"),
    ("expsum", "--p", "7", "--a", "1", "--n", "0"),
    # trivial bounds sum N_p^(2 nu) past int's str digit limit, of 60,207
    # digits and of about 9.5 * 10^8, whose moments exited 1 past the float range
    ("avg", "--P", "4", "--N-rule", "2", "--nu", "100000"),
    ("avg", "--P", "4", "--N-rule", "3", "--nu", "1000000000"),
    # N > P^2 at the first scale, before the segments' charges, which the last scale's passes
    ("avg", "--pmin", "3", "--pmax", "100000000", "--N-rule", "10"),
    # an exponent past 2, before P^(10^9) is computed
    ("avg", "--P", "4", "--N-rule", "P^1000000000"),
    ("avg", "--pmin", "3", "--pmax", "100000000", "--N-rule", "P^3"),
]


@pytest.mark.parametrize("argv", _BAD_INPUT)
def test_bad_input_exits_2_before_the_work(capsys, tmp_path, argv):
    _exits_2_before_the_work(capsys, tmp_path, argv)


def test_n_table_row_below_1_exits_2_before_the_work(capsys, tmp_path):
    # the table covers every prime of (64, 128], one at N_p = 0, which is
    # refused as the file is read, before the charge of the window's segment
    primes = [p for p in primes_up_to(128) if p > 64]
    table = tmp_path / "np.csv"
    table.write_text("p,N\n" + "".join(f"{p},{0 if p == primes[5] else 10}\n" for p in primes))
    (tmp_path / "out").mkdir()
    _exits_2_before_the_work(capsys, tmp_path / "out", ("avg", "--P", "64", "--N-rule", f"@{table}"))


def _exits_2_before_the_work(capsys, out_dir, argv):
    # bad input exits 2 whatever the caps: it is checked before any charge
    for caps in ((), ("--memcap", "24", "--budget", "1")):
        started = time.monotonic()
        rc, _, err = run(capsys, *argv, *caps, "--out", str(out_dir / "report.csv"))
        assert rc == 2 and err.startswith("error:"), err
        assert time.monotonic() - started < 1.0
        assert not os.listdir(out_dir)


# refused after the plan is resumed past its first charges, by design: the
# --gen walk, the one refusal inside the library, learns the group's order
# by walking (and an N table's window, test_n_table_window_is_charged_after_its_segment)
_STAGED = [
    ("ratios", "--m", "4611686018427388039", "--gen", "3", "--Z", "10", "--budget", "1"),
]


def _planned(monkeypatch, argv):
    """main(argv) with its plan watched: the exit code, and "planned" once
    the plan yielded its first charges, then "ran" once main resumed it past
    them, which fails the test unless argv is one of _STAGED.  Every later
    yield, a list of charges or the outcome, is passed on to main."""
    command, seen = COMMANDS[argv[0]], []

    def plan(args, config):
        steps = command.plan(args, config)
        charges = next(steps)
        seen.append("planned")
        yield charges
        seen.append("ran")
        if argv not in _STAGED:
            pytest.fail(f"{argv} ran past its charges")
        yield from steps

    monkeypatch.setitem(COMMANDS, argv[0], command._replace(plan=plan))
    return main(list(argv)), seen


@pytest.mark.parametrize("argv", _BAD_INPUT)
def test_plan_itself_refuses_bad_input(capsys, monkeypatch, argv):
    for caps in ((), ("--memcap", "24", "--budget", "1")):
        assert _planned(monkeypatch, (*argv, *caps)) == (2, [])
        assert capsys.readouterr().err.startswith("error:")


def test_plan_itself_refuses_an_n_table_row_below_1(capsys, monkeypatch, tmp_path):
    table = tmp_path / "np.csv"
    table.write_text("p,N\n" + "".join(f"{p},{0 if p == 83 else 10}\n" for p in primes_up_to(128) if p > 64))
    assert _planned(monkeypatch, ("avg", "--P", "64", "--N-rule", f"@{table}", "--memcap", "24")) == (2, [])
    assert "N_p must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _REFUSED)
def test_plan_charges_refuse_before_run(capsys, monkeypatch, argv):
    assert set(_STAGED) <= set(_REFUSED)
    rc, seen = _planned(monkeypatch, argv)
    assert rc == 3 and capsys.readouterr().err.startswith("budget:")
    assert seen == (["planned", "ran"] if argv in _STAGED else ["planned"])


def test_n_table_window_is_charged_after_its_segment(capsys, monkeypatch, tmp_path):
    # an N table's largest N_p is known once the window's charged segment lists its primes
    table = tmp_path / "np.csv"
    table.write_text("".join(f"{p},{1024 * 1024}\n" for p in primes_up_to(2048) if p > 1024))
    argv = ("avg", "--P", "1024", "--N-rule", f"@{table}", "--memcap", "100000")
    monkeypatch.setitem(globals(), "_STAGED", [argv])
    assert _planned(monkeypatch, argv) == (3, ["planned", "ran"])
    assert capsys.readouterr().err.startswith("budget: window:")


def test_avg_trivial_bound_past_the_digit_limit_writes_nothing(capsys, tmp_path):
    # an N table's rows are known after the window's segment, and are checked
    # with the window's charge, before any work; the csv header went to
    # stdout before the bound failed to print
    table = tmp_path / "np.csv"
    table.write_text("".join(f"{p},2\n" for p in primes_up_to(128) if p > 64))
    for rule in ("2", f"@{table}"):
        rc, out, err = run(capsys, "avg", "--P", "64", "--N-rule", rule, "--nu", "100000")
        assert (rc, out) == (2, "") and "digits" in err, err


def test_help_lists_every_subcommand(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert len(COMMANDS) == 14 and "{" + ",".join(COMMANDS) + "}" in out
    for name in COMMANDS:
        rc, out, _ = run(capsys, name, "--help")
        assert rc == 0 and out.startswith(f"usage: fermatq {name}")


def test_table_rule_window_bytes_do_not_depend_on_threads(monkeypatch, tmp_path):
    # N_p from 65 to 128 over p in (64, 128]: the blocks differ with the worker
    # count, once a worker is given for every step of the window's cost
    monkeypatch.setattr(fermatq.sieve, "_WORKER_STEPS", 1)
    table = tmp_path / "np.csv"
    table.write_text("p,N\n" + "".join(f"{p},{65 + 9 * p % 64}\n" for p in primes_up_to(128) if p > 64))
    blobs = set()
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}.csv"
        argv = ["avg", "--P", "64", "--nu", "2", "--N-rule", f"@{table}", "--threads", str(threads), "--out", str(out)]
        assert main(argv) == 0
        blobs.add(out.read_bytes())
    assert len(blobs) == 1


def test_memcap_bounds_avg_and_doublesum(capsys, tmp_path):
    # the digests are the benchmark's pinned report bytes for these calls
    pinned = (
        (("avg", "--P", "1024", "--N-rule", "P^1"), "cdd38e75d54a158620482c775d2f88c2dc413d96e4889f239825b7ed328f79d9"),
        (
            ("doublesum", "--p", "10009", "--order", "4", "--ucap", "3000", "--vcap", "3000"),
            "9d6a0599a3dcacd8e80fa78b121853d55cd171c514dc39fe917eabcfe333a2c1",
        ),
    )
    out_path = tmp_path / "report.csv"
    for argv, digest in pinned:
        rc, _, err = run(capsys, *argv, "--memcap", "1000", "--out", str(out_path))
        assert rc == 3 and "budget" in err
        assert not out_path.exists()
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    # 24 * 3000 bytes admit the 3000-entry tables but not the length-2^15 pair-count convolution
    rc, _, err = run(capsys, *pinned[1][0], "--memcap", str(24 * 3000), "--out", str(out_path))
    assert rc == 3 and "convolution" in err
    assert not out_path.exists()
    assert not os.listdir(tmp_path)
    # the table lives through the convolution: one charge of both
    rc, out, _ = run(capsys, *pinned[1][0], "--memcap", str(24 * 3000 + PEAK_BYTES["convolution entry"] * 32768))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned[1][1]


def test_doublesum_builds_only_the_character_it_uses(capsys):
    # all phi(10008) = 3312 characters of order 10008 would take 530 MB
    memcap = 4 << 20
    argv = ("doublesum", "--p", "10009", "--order", "10008", "--ucap", "100", "--vcap", "100")
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, *argv, "--memcap", str(memcap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert parse_csv(out)[1][0][:2] == ["10009", "10008"]
    assert peak < memcap
    assert run(capsys, "doublesum", "--p", "10009", "--order", "7", "--ucap", "100", "--vcap", "100")[0] == 2


def test_modules_import_only_what_they_use():
    # the package root re-exports nothing, so a module loads only its own imports
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    code = (
        "import sys, fermatq; numpy_at_root = 'numpy' in sys.modules; import fermatq.arith; "
        "print(numpy_at_root, sorted(m for m in sys.modules if m.startswith('fermatq')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False ['fermatq', 'fermatq.arith']"


# importing fermatq.cli, and the calls that do integer work only
_INTEGER_CALLS = [
    (),
    ("quotient", "--p", "1000003", "--u", "5"),
    ("primroot", "--p", "1000003"),
    ("nonres", "--p", "1000003", "--d", "2"),
]


@pytest.mark.parametrize("argv", _INTEGER_CALLS)
def test_integer_subcommands_never_load_numpy(argv):
    # numpy is imported only where arrays are built; these calls build none
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    code = (
        "import sys, fermatq.cli; "
        f"rc = fermatq.cli.main({list(argv)!r}) if {bool(argv)} else 0; "
        "print(rc, 'numpy' in sys.modules, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stderr.strip().splitlines()[-1] == "0 False", done.stderr


# stdlib modules that only some calls use: dataclasses pulls in inspect,
# fractions pulls in decimal, and a process pool multiprocessing
_UNUSED_AT_START_UP = (
    "concurrent.futures.process",
    "dataclasses",
    "decimal",
    "fractions",
    "inspect",
    "json",
    "multiprocessing",
)


def _unused_stdlib_loaded(argv, before=""):
    """The exit code of main(argv) in a fresh interpreter, and the modules
    of _UNUSED_AT_START_UP it loaded that neither the interpreter nor the
    `before` statements loaded first."""
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    code = (
        f"import sys; {before}before = set(sys.modules); import fermatq.cli; "
        f"rc = fermatq.cli.main({list(argv)!r}) if {bool(argv)} else 0; "
        f"print(rc, sorted(set({_UNUSED_AT_START_UP!r}) & set(sys.modules) - before), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    return done.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("argv", _INTEGER_CALLS)
def test_integer_subcommands_load_no_unused_stdlib(argv):
    assert _unused_stdlib_loaded(argv) == "0 []"


def test_avg_threads_start_no_process():
    # its window blocks run on two threads of the one process (the window's
    # 795,090 steps of window_cost give it both); numpy, which loads inspect
    # itself, is imported first
    argv = ("avg", "--P", "2048", "--N-rule", "46", "--threads", "2")
    assert _unused_stdlib_loaded(argv, "import os, numpy; os.cpu_count = lambda: 2; ") == "0 []"


_CORE = ("arith", "cli", "config", "quotients", "report")


@pytest.mark.parametrize(
    "argv, executed",
    [
        (("quotient", "--p", "7", "--u", "3"), ()),
        (("table", "--p", "7", "--n", "10"), ()),
        (("image", "--p", "5", "--n", "4"), ()),
        (("expsum", "--p", "7", "--a", "3", "--n", "49"), ("charsums",)),
        (("maxsum", "--p", "7", "--n", "49"), ("charsums",)),
        (("avg", "--P", "64", "--N-rule", "10"), ("charsums", "sieve")),
        (("sieve", "--R", "2", "--K", "4"), ("charsums", "sieve")),
        (("rho", "--M", "12", "--b", "5", "--nu", "3", "--kmax", "3"), ("charsums", "sieve")),
        (("ratios", "--p", "7", "--Z", "3"), ("subgroups",)),
        (("primroot", "--p", "7"), ("primroots",)),
        (("nonres", "--p", "7", "--d", "2"), ("primroots",)),
        (("doublesum", "--p", "13", "--order", "2", "--ucap", "5", "--vcap", "5"), ("charsums", "primroots")),
        (("scan", "--pmin", "3", "--pmax", "30"), ("primroots",)),
        (("selftest", "--seed", "1"), ("charsums", "primroots", "selftest", "sieve", "subgroups")),
    ],
)
def test_subcommands_execute_only_their_modules(argv, executed, tmp_path):
    # the other modules stay lazy: registered, but never compiled or run;
    # type() reads no attribute, so it does not trigger a lazy load
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    code = (
        "import sys, types, fermatq.cli; "
        f"rc = fermatq.cli.main({[*argv, '--out', str(tmp_path / 'report')]!r}); "
        "print(rc, sorted(n[8:] for n, m in sys.modules.items() "
        "if n.startswith('fermatq.') and type(m) is types.ModuleType))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"0 {sorted(_CORE + executed)}"


def test_import_sets_one_blas_thread_unless_set():
    # long dot products round by BLAS thread count; an explicit setting wins
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    code = "import os, fermatq; print(os.environ['OPENBLAS_NUM_THREADS'])"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for extra, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        env = dict(base, PYTHONPATH=src, **extra)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected


# A child process enters through cli.run: main, two flushes, then os._exit,
# or sys.exit where a flush fails or a profiler, tracer or debugger is attached.
_NORMAL_EXIT = "import sys, fermatq.cli; sys.exit(fermatq.cli.main())"


def _child_args(argv, code=None, unbuffered=False):
    """(command, environment) of `python -m fermatq.cli argv`, or of
    `python -c code argv`, with PYTHONUNBUFFERED set or unset."""
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONINSPECT")}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    return [sys.executable, *(["-c", code] if code else ["-m", "fermatq.cli"]), *argv], env


def _child(argv, code=None, unbuffered=False, stdout=subprocess.PIPE, flags=()):
    cmd, env = _child_args(argv, code, unbuffered)
    cmd[1:1] = flags
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("quotient", "--p", "7", "--u", "3"), 0),
        (("quotient", "--p", "8", "--u", "3"), 2),
        (("quotient", "--p", "7"), 2),
        (("avg", "--P", "8", "--nu", "1", "--N-rule", "3", "--budget", "10"), 3),
    ],
)
def test_child_exit_code_and_streams_equal_main(capsys, argv, code):
    done = _child(argv)
    assert run(capsys, *argv) == (code, done.stdout.decode(), done.stderr.decode())
    assert done.returncode == code


def test_child_stdout_through_a_pipe_equals_main(capsys):
    # more than a pipe buffer holds, so the child blocks on the pipe as it writes
    argv = ("scan", "--pmin", "3", "--pmax", "300000")
    done = _child(argv)
    rc, out, _ = run(capsys, *argv)
    assert done.returncode == rc == 0, done.stderr
    assert len(done.stdout) > 1 << 16
    assert done.stdout == out.encode()


def test_child_out_and_dump_files_are_complete(capsys, tmp_path):
    argv = ("table", "--p", "10007", "--n", "250000", "--format", "json")
    paths = {side: (tmp_path / f"{side}.json", tmp_path / f"{side}.fqt") for side in ("child", "main")}
    done = _child([*argv, "--out", str(paths["child"][0]), "--dump", str(paths["child"][1])])
    assert done.returncode == 0 and done.stdout == b"", done.stderr
    assert run(capsys, *argv, "--out", str(paths["main"][0]), "--dump", str(paths["main"][1]))[0] == 0
    for child, in_process in zip(*paths.values()):
        assert child.read_bytes() == in_process.read_bytes()
    assert paths["child"][1].stat().st_size > 250000


def test_profiler_prints_its_stats():
    done = _child(["quotient", "--p", "7", "--u", "3"], flags=["-m", "cProfile"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"p,u,q,") and b"function calls" in done.stdout


def test_inspect_keeps_the_interpreter():
    # -i asks for a prompt after the module has run; it reads stdin
    cmd, env = _child_args(["quotient", "--p", "7", "--u", "3"])
    cmd[1:1] = ["-i"]
    done = subprocess.run(cmd, env=env, input="print('inspected')\n", capture_output=True, text=True, timeout=120)
    assert done.stdout.startswith("p,u,q,") and "inspected" in done.stdout, done.stderr


def _closed_and_full_ends(argv, code, unbuffered):
    """(exit code, first 20 bytes, stderr) with stdout closed after 20 bytes,
    as `| head -c 20` closes it, and (exit code, stderr) with stdout on
    /dev/full, or None where the host has none."""
    cmd, env = _child_args(argv, code, unbuffered)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.read(20)
    proc.stdout.close()
    closed = (proc.wait(timeout=120), first, proc.stderr.read())
    proc.stderr.close()
    if not os.path.exists("/dev/full"):
        return closed, None
    with open("/dev/full", "wb") as sink:
        done = _child(argv, code, unbuffered, stdout=sink)
    return closed, (done.returncode, done.stderr)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_or_full_stdout_ends_as_a_normal_exit(unbuffered):
    # the exit code and stderr are those of sys.exit(main()) in a child, and
    # a failed write is exit 2 whether stdout is buffered or not
    argv = ("scan", "--pmin", "3", "--pmax", "300000")
    closed, full = _closed_and_full_ends(argv, None, unbuffered)
    assert (closed, full) == _closed_and_full_ends(argv, _NORMAL_EXIT, unbuffered)
    assert closed[:2] == (2, b"p,n_min,exponent,ver") and b"error: [Errno 32] Broken pipe" in closed[2]
    if full is not None:
        assert full == (2, b"error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="the host has no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [("quotient", "--p", "7", "--u", "3"), ("selftest",)], ids=["quotient", "selftest"])
def test_full_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # a report smaller than stdout's buffer fails only at main's flush, and
    # what stays buffered is dropped, so no exit-time flush fails on it again
    with open("/dev/full", "wb") as sink:
        done = _child(argv, unbuffered=unbuffered, stdout=sink)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 28] No space left on device\n")


def test_fermatq_script_enters_through_run():
    import tomllib

    root = os.path.dirname(os.path.dirname(os.path.dirname(fermatq.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"fermatq": "fermatq.cli:run"}


def test_unwritable_output_path_exits_2_without_temp_file(capsys, tmp_path):
    missing = tmp_path / "missing"
    for argv in (
        ("quotient", "--p", "5", "--u", "3", "--out", str(missing / "r.csv")),
        ("table", "--p", "5", "--n", "10", "--dump", str(missing / "t.bin")),
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err.startswith("error:")
    assert not missing.exists()
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".report-")]


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_out_and_dump_files_get_the_mode_of_a_plain_open(capsys, tmp_path, umask):
    # the temp file behind each rename is made 0o600; the file it becomes
    # gets 0o666 less the umask, as open() would give it
    out, dump = tmp_path / "o.csv", tmp_path / "d.fqt"
    old = os.umask(umask)
    try:
        assert run(capsys, "quotient", "--p", "5", "--u", "2", "--out", str(out))[0] == 0
        assert run(capsys, "table", "--p", "7", "--n", "10", "--dump", str(dump))[0] == 0
    finally:
        os.umask(old)
    assert [path.stat().st_mode & 0o777 for path in (out, dump)] == [0o666 & ~umask] * 2


def test_memcap_env_respected_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("FERMATQ_MEMCAP", "1000")
    assert run(capsys, "table", "--p", "5", "--n", "100000")[0] == 3
    assert run(capsys, "table", "--p", "5", "--n", "100000", "--memcap", str(1 << 30))[0] == 0


def test_bad_env_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FERMATQ_THREADS", "lots")
    rc, _, err = run(capsys, "quotient", "--p", "5", "--u", "2")
    assert rc == 2
    assert "FERMATQ_THREADS" in err


def test_json_mirrors_csv_columns(capsys):
    rc, out, _ = run(capsys, "maxsum", "--p", "7", "--n", "35", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 1
    row = data[0]
    assert list(row) == ["p", "a", "N", "re", "im", "abs", "rhs_eq1_nu2", "version", "seed", "wall_seconds"]
    assert row["p"] == 7 and isinstance(row["abs"], float)


def test_csv_round_trip_via_out_file(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    rc, stdout, _ = run(capsys, "scan", "--pmin", "3", "--pmax", "30", "--out", str(out_path))
    assert rc == 0
    assert stdout == ""  # report went to the file, not stdout
    header, rows = parse_csv(out_path.read_text())
    assert header == ("p", "n_min", "exponent", "verified", "version", "seed", "wall_seconds")
    assert [r[0] for r in rows] == ["3", "5", "7", "11", "13", "17", "19", "23", "29"]
    assert all(r[3] == "1" for r in rows)


def test_avg_schema_and_trivial_bound(capsys):
    rc, out, _ = run(capsys, "avg", "--P", "16", "32", "--nu", "2", "--N-rule", "P^0.5")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:9] == ("P", "nu", "N", "lhs", "rhs_envelope", "trivial_bound", "ratio", "prime_count", "wall_seconds")
    assert len(rows) == 2
    for row in rows:
        assert float(row[3]) <= float(row[5])  # lhs never beats the trivial bound
        assert row[8] == "0"  # no --timings: wall stays zero for reproducibility


def test_avg_kappa_schema(capsys):
    rc, out, _ = run(capsys, "avg", "--P", "16", "--nu", "1", "--N-rule", "4", "--kappa", "0.1", "0.5")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:6] == ("P", "nu", "N", "kappa", "exceeded", "prime_count")
    assert [r[3] for r in rows] == ["0.1", "0.5"]
    counts = [int(r[4]) for r in rows]
    assert counts[0] <= counts[1] <= int(rows[0][5])


def test_avg_default_budget_admits_window_of_small_tables(capsys):
    # 255 primes with N_p = 10 and one length-p FFT each; charging p^2
    # per prime put this at 2.48e9 and refused it
    rc, out, err = run(capsys, "avg", "--P", "2048", "--N-rule", "10")
    assert rc == 0, err
    _, rows = parse_csv(out)
    assert rows[0][0] == "2048" and rows[0][7] == "255"


def test_avg_requires_a_window(capsys):
    assert run(capsys, "avg", "--nu", "2", "--N-rule", "4")[0] == 2
    assert run(capsys, "avg", "--P", "8", "--pmin", "4", "--pmax", "16", "--nu", "1", "--N-rule", "3")[0] == 2


def test_avg_dyadic_ladder(capsys):
    rc, out, _ = run(capsys, "avg", "--pmin", "8", "--pmax", "32", "--nu", "1", "--N-rule", "P^0.5")
    assert rc == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["8", "16"]


def test_n_rule_parser_forms(tmp_path):
    # each rule gives, for a window scale P, the int N of every p or the table of N_p by p
    assert parse_n_rule("100")(8) == 100
    assert parse_n_rule("P^0.5")(256) == 16
    assert parse_n_rule("P^1/2")(256) == 16
    assert parse_n_rule("P^1/3")(27) == 3  # exact integer ceiling
    table = tmp_path / "n.csv"
    table.write_text("p,N\n11,5\n13,7\n")
    assert parse_n_rule(f"@{table}")(8) == {11: 5, 13: 7}
    with pytest.raises(ValueError):
        parse_n_rule("0")
    with pytest.raises(ValueError):
        parse_n_rule("P^x")
    with pytest.raises(ValueError):
        parse_n_rule("many")
    with pytest.raises(ValueError):
        parse_n_rule(f"@{tmp_path / 'missing.csv'}")


def test_threads_do_not_change_bytes(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(fermatq.sieve, "_WORKER_STEPS", 1)  # the small window on threads too
    paths = [tmp_path / f"avg{t}.csv" for t in (1, 2, 8)]
    for t, path in zip((1, 2, 8), paths):
        rc, _, _ = run(capsys, "avg", "--P", "64", "--nu", "2", "--N-rule", "P^0.5",
                       "--threads", str(t), "--out", str(path))
        assert rc == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_window_bytes_do_not_depend_on_resident_transforms(tmp_path):
    # the allocator warm-up moves the transforms' buffers, never their inputs
    src = os.path.dirname(os.path.dirname(fermatq.__file__))
    code = (
        "import sys, fermatq.charsums\n"
        "if sys.argv[2] == 'off':\n"
        "    fermatq.charsums.resident_transform_memory = lambda n: None\n"
        "import fermatq.cli\n"
        "argv = ['avg', '--P', '1024', '--N-rule', 'P^1/2', '--out', sys.argv[1]]\n"
        "sys.exit(fermatq.cli.main(argv))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    blobs = []
    for mode in ("on", "off"):
        path = tmp_path / f"avg-{mode}.csv"
        done = subprocess.run([sys.executable, "-c", code, str(path), mode], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_scan_threads_do_not_change_bytes(capsys, tmp_path):
    a, b = tmp_path / "s1.csv", tmp_path / "s8.csv"
    assert run(capsys, "scan", "--pmin", "3", "--pmax", "60", "--threads", "1", "--out", str(a))[0] == 0
    assert run(capsys, "scan", "--pmin", "3", "--pmax", "60", "--threads", "8", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sieve_rows_share_one_polynomial(capsys):
    rc, out, _ = run(capsys, "sieve", "--R", "2", "3", "--K", "16", "--seed", "7")
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[0][2] == rows[1][2]  # same energy A
    assert float(rows[0][3]) <= float(rows[1][3])  # lhs grows with R
    for row in rows:
        assert float(row[3]) <= float(row[4]) and float(row[3]) <= float(row[5])


@pytest.mark.parametrize("k", [50, 4000])
def test_sieve_rows_equal_their_single_r_reports(capsys, k):
    # one pass to the largest R adds each row's sum in the order R alone
    # adds it; with K = 50 the terms of m >= K, which read A alone, come in
    r_values = ["7", "1", "10", "3", "3", "9", "2", "8", "5", "4"]
    rc, out, _ = run(capsys, "sieve", "--R", *r_values, "--K", str(k), "--seed", "7")
    assert rc == 0
    header, *rows = out.splitlines()
    for r_max, row in zip(r_values, rows, strict=True):
        single = run(capsys, "sieve", "--R", r_max, "--K", str(k), "--seed", "7")[1]
        assert single.splitlines() == [header, row], r_max


def test_sieve_memcap_charges_coefficients(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    rc, _, err = run(capsys, "sieve", "--R", "2", "--K", "5000", "--memcap", "24000", "--out", str(out_path))
    assert rc == 3 and "coefficients" in err
    assert not os.listdir(tmp_path)

    def held(k):  # the transforms and the R = 2 sieve live with the coefficients: one charge
        transform = charged_entries(transform_length(k), "sieve transform point")
        return charged_entries(k, "sieve coefficient") + transform + 3

    # 1,000 entries hold 256 coefficients and 512 transform points; 257 need 1,024
    admitted = max(k for k in range(1, 5000) if held(k) <= 1000)
    assert admitted == 256
    assert run(capsys, "sieve", "--R", "2", "--K", str(admitted), "--memcap", "24000")[0] == 0
    assert run(capsys, "sieve", "--R", "2", "--K", str(admitted + 1), "--memcap", "24000")[0] == 3


def test_sieve_large_r_runs_under_the_default_caps(capsys):
    # no r^2 grid: R = 3000 exited 3 at 9.0 * 10^9 evaluation points
    started = time.monotonic()
    rc, out, _ = run(capsys, "sieve", "--R", "3000", "--K", "400000", "--seed", "7")
    assert rc == 0 and time.monotonic() - started < 5.0
    _, rows = parse_csv(out)
    assert float(rows[0][3]) <= float(rows[0][4])  # lhs within the Baier-Zhao envelope


def test_sieve_refused_k_draws_no_coefficient(capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: drawn.append(args))
    rc, _, err = run(capsys, "sieve", "--R", "2", "--K", "40000000")
    assert rc == 3 and err.startswith("budget: coefficients and transforms")
    assert drawn == []


def test_sieve_seed_changes_rows(capsys):
    out1 = run(capsys, "sieve", "--R", "2", "--K", "16", "--seed", "1")[1]
    out2 = run(capsys, "sieve", "--R", "2", "--K", "16", "--seed", "2")[1]
    out1b = run(capsys, "sieve", "--R", "2", "--K", "16", "--seed", "1")[1]
    assert out1 == out1b
    assert out1 != out2


def test_image_counts_by_period_beyond_a_table(capsys, tmp_path):
    # 10^12 entries fold into a 16-entry tail; the parent refused a table of n
    started = time.monotonic()
    rc, out, err = run(capsys, "image", "--p", "7", "--n", str(10**12))
    assert rc == 0, err
    assert time.monotonic() - started < 1.0
    assert parse_csv(out)[1][0][:3] == ["7", str(10**12), "7"]
    # int64 counts end at 2^63: a bad input, not an internal fault
    for n in (1 << 63, 10**30):
        out_path = tmp_path / "report.csv"
        rc, _, err = run(capsys, "image", "--p", "7", "--n", str(n), "--out", str(out_path))
        assert rc == 2 and err.startswith("error:"), err
        assert not os.listdir(tmp_path)


def test_maxsum_peak_memory_is_one_period(capsys):
    # 800,000 entries at p = 211 fold into a 43,143-entry tail; a whole
    # table and its copy peaked at 13 MiB
    run(capsys, "maxsum", "--p", "211", "--n", "1000")  # numpy and the FFT module load outside the trace
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "maxsum", "--p", "211", "--n", "800000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and parse_csv(out)[1][0][:3] == ["211", "21", "800000"]
    assert peak < 1 << 20


def test_table_dump_loads_back(capsys, tmp_path):
    dump = tmp_path / "t.bin"
    rc, out, _ = run(capsys, "table", "--p", "7", "--n", "50", "--dump", str(dump))
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0][:3] == ["7", "50", str(50 - 50 // 7)]
    from fermatq.quotients import fermat_quotient, read_table

    table = read_table(str(dump))
    assert table.p.p == 7 and table.n == 50
    assert table[10] == fermat_quotient(7, 10)


def test_nonres_row_verified(capsys):
    rc, out, _ = run(capsys, "nonres", "--p", "7", "--d", "2", "--cap", "100")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:5] == ("p", "d", "n_min", "exponent", "verified")
    assert rows[0][:3] == ["7", "2", "3"] and rows[0][4] == "1"


def test_rho_deep_nu(capsys):
    # k = 6 into 3000 factors: 2 and 3 at distinct places (3000 * 2999
    # ways, factor sum 3003) or 6 at one place (3000 ways, sum 3005)
    rc, out, err = run(capsys, "rho", "--M", "12", "--b", "5", "--nu", "3000", "--k", "6")
    assert rc == 0, err
    _, rows = parse_csv(out)
    expect = 3000 * 2999 * 1j + 3000 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    assert complex(float(rows[0][4]), float(rows[0][5])) == pytest.approx(expect, rel=1e-12)


def test_rho_deep_nu_over_a_range(capsys):
    # the closed-form charge of a --kmax range stays finite at deep nu,
    # and its rows are the --k rows
    rc, out, err = run(capsys, "rho", "--M", "12", "--b", "5", "--nu", "3000", "--kmax", "6")
    assert rc == 0, err
    _, rows = parse_csv(out)
    rc, out, err = run(capsys, "rho", "--M", "12", "--b", "5", "--nu", "3000", "--k", *map(str, range(1, 7)))
    assert rc == 0, err
    assert [r[:7] for r in rows] == [r[:7] for r in parse_csv(out)[1]]
    rc, out, err = run(capsys, "rho", "--M", "12", "--b", "5", "--nu", "200", "--kmax", "1")
    assert rc == 0, err
    assert parse_csv(out)[1][0][3] == "1"


def test_rho_roots_past_int64_products(capsys):
    # k is prime, so its two factorizations (1, k) and (k, 1) both sum to
    # k + 1: rho = 2 e(b (k + 1) / M).  b (k + 1) passes 2^63, and M is not
    # a power of two, so a product wrapped mod 2^64 lands elsewhere mod M
    m, b, k = 10**12, 10**12 - 1, 10000019
    assert is_prime(k) and b * (k + 1) >= 1 << 63
    rc, out, err = run(capsys, "rho", "--M", str(m), "--b", str(b), "--nu", "2", "--k", str(k))
    assert rc == 0, err
    angle = 2 * math.pi * (b * (k + 1) % m) / m
    re_, im_ = map(float, parse_csv(out)[1][0][4:6])
    assert abs(re_ - 2 * math.cos(angle)) < 1e-9 and abs(im_ - 2 * math.sin(angle)) < 1e-9
    assert abs(re_ - 1.99999999605) < 1e-9 and abs(im_ + 0.000125663957389) < 1e-9


@pytest.mark.parametrize(
    "argv, lhs, rhs, ratio",
    [
        # a moment past the float range reads inf, as does the envelope's n^nu
        (("avg", "--P", "4", "--nu", "1009", "--N-rule", "P^1"), "inf", "inf", "nan"),
        (("avg", "--P", "4", "--nu", "1100", "--N-rule", "P^1/2"), "inf", "67", "inf"),
    ],
)
def test_avg_moments_past_the_float_range_read_inf(capsys, argv, lhs, rhs, ratio):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["lhs"], row["rhs_envelope"], row["ratio"]) == (lhs, rhs, ratio)
    n_p = 4 if argv[-1] == "P^1" else 2  # over the primes 5 and 7
    assert int(row["trivial_bound"]) == 2 * n_p ** (2 * int(argv[4]))


def test_avg_kappa_rows_do_not_use_the_moments(capsys):
    # kappa rows count maxima, never their 2 nu-th powers; at kappa = -1000
    # the threshold N_p p^1000 passes the float range, and no maximum exceeds it
    rows = []
    for nu in ("2", "1009"):
        rc, out, err = run(capsys, "avg", "--P", "4", "--nu", nu, "--N-rule", "P^1", "--kappa", "0.1", "-1000")
        assert rc == 0, err
        rows.append([r[:1] + r[2:6] for r in parse_csv(out)[1]])
    assert rows[0] == rows[1] and rows[0][1][2:] == ["-1000", "0", "2"]


def test_ratios_subgroup_modes(capsys):
    rc, out, _ = run(capsys, "ratios", "--p", "5", "--Z", "3")
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:8] == ("m", "t", "Z", "nu", "count", "lemma7_rhs", "ratio", "t_over_sqrt_m")
    assert rows[0][:2] == ["25", "4"]
    rc, out, _ = run(capsys, "ratios", "--m", "20", "--gen", "3", "--Z", "4")
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0][:5] == ["20", "4", "4", "2", "16"]
    assert run(capsys, "ratios", "--p", "5", "--m", "20", "--Z", "3")[0] == 2


def test_ratios_large_cyclic_group(capsys):
    # 2 generates all 100002 units mod the prime 100003; the group is
    # built without the pairwise closure check, so this returns quickly.
    # 11 generates the 12288 units mod 12289.
    for m, gen, z in ((100003, 2, 10), (12289, 11, 16)):
        rc, out, _ = run(capsys, "ratios", "--m", str(m), "--gen", str(gen), "--Z", str(z))
        assert rc == 0
        _, rows = parse_csv(out)
        w = np.array([pow(gen, k, m) for k in range(m - 1)], dtype=np.int64)
        r = np.outer(w, np.arange(1, z + 1, dtype=np.int64)) % m
        direct = 2 * int(np.count_nonzero((r <= z) | (r >= m - z)))
        assert rows[0][1] == str(m - 1)
        assert int(rows[0][4]) == direct == (2 * z) ** 2


def test_ratios_exact_beyond_int64_products(capsys):
    # m is a prime near 2^62 and the group is {1, -1}: each of the 20
    # nonzero x in [-10, 10] pairs with y = x under w = 1 and y = -x under
    # w = -1, so 40 triples; (m - 1) * x passes 2^63
    m = 4611686018427388039
    rc, out, _ = run(capsys, "ratios", "--m", str(m), "--gen", str(m - 1), "--Z", "10")
    assert rc == 0
    _, rows = parse_csv(out)
    assert rows[0][:5] == [str(m), "2", "10", "2", "40"]
    # 2Z = m - 1, which the float m / 2 refused: every nonzero |x| <= Z
    # pairs with y = x and y = -x, so 4Z triples
    m, z = 4611686018427387905, 2305843009213693952
    rc, out, _ = run(capsys, "ratios", "--m", str(m), "--gen", str(m - 1), "--Z", str(z))
    assert rc == 0
    assert parse_csv(out)[1][0][:5] == [str(m), "2", str(z), "2", str(4 * z)]


def test_selftest_clean_run(capsys):
    rc, out, _ = run(capsys, "selftest", "--seed", "42")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith("ok") for line in lines)
    names = [line.split(":")[0] for line in lines]
    assert names == ["core-arith", "fermat-quotient", "char-sums", "sieve-lab", "subgroup-ratios", "prim-root"]


def test_selftest_deterministic_bytes(capsys, tmp_path):
    # a second run with --out writes the same bytes there and none to stdout
    out1 = run(capsys, "selftest", "--seed", "42")[1]
    rc, out2, _ = run(capsys, "selftest", "--seed", "42", "--out", str(tmp_path / "selftest.txt"))
    assert rc == 0 and out2 == ""
    assert (tmp_path / "selftest.txt").read_text() == out1


def test_selftest_fault_injection_names_module(capsys, monkeypatch, tmp_path):
    # a planted flip in the fermat-quotient suite's table at p = 13, n = 77;
    # the exit code survives --out
    def flipped(p, n):
        table = quotient_table(p, n)
        if table.p.p != 13 or n != 1500:
            return table
        values = table.values.copy()
        values[77] = (values[77] + 1) % 13
        return table._replace(values=values)

    monkeypatch.setattr(selftest, "quotient_table", flipped)
    rc, _, _ = run(capsys, "selftest", "--out", str(tmp_path / "selftest.txt"))
    out = (tmp_path / "selftest.txt").read_text()
    assert rc == 1
    assert "fermat-quotient" in out and "FAIL" in out
    assert "first failure: fermat-quotient quotient_table" in out


def test_timings_flag_records_wall(capsys):
    rc, out, _ = run(capsys, "scan", "--pmin", "3", "--pmax", "10", "--timings")
    assert rc == 0
    header, rows = parse_csv(out)
    wall = float(rows[0][header.index("wall_seconds")])
    assert wall > 0.0


def _ints(lo, hi):
    # 0, negatives and, for p, non-primes all belong to the argument space
    return st.integers(lo, hi).map(str)


# selftest takes no integer inputs and runs for about a second, so it is left out
_P = st.one_of(_ints(-3, 1999), st.sampled_from(primes_up_to(1999)).map(str))
_N, _SMALL = _ints(-3, 99_999), _ints(-3, 40)
_BOUNDARY = st.sampled_from((0, 1, -1, 2**31 - 1, 2**31, 2**53 + 1, 2**63 - 1, 2**63)).map(str)


def _calls(drawn):
    """Argv of every subcommand but selftest, where drawn(s) is the strategy
    of an integer argument whose usual values s draws."""
    p, n, small = drawn(_P), drawn(_N), drawn(_SMALL)
    scale, count = drawn(_ints(-3, 300)), drawn(_ints(-3, 9_999))
    rule = st.one_of(drawn(_ints(-3, 2000)), st.tuples(small, small).map(lambda ab: f"P^{ab[0]}/{ab[1]}"))
    return st.one_of(
        st.tuples(st.just("quotient"), st.just("--p"), p, st.just("--u"), n),
        st.tuples(st.sampled_from(("table", "image", "maxsum")), st.just("--p"), p, st.just("--n"), n),
        st.tuples(st.just("expsum"), st.just("--p"), p, st.just("--a"), n, st.just("--n"), n),
        st.tuples(st.just("avg"), st.just("--P"), scale, st.just("--nu"), small, st.just("--N-rule"), rule),
        st.tuples(st.just("sieve"), st.just("--R"), small, st.just("--K"), count),
        st.tuples(st.just("rho"), st.just("--M"), p, st.just("--b"), n, st.just("--nu"), small, st.just("--k"), n),
        st.tuples(st.just("ratios"), st.just("--p"), p, st.just("--Z"), n),
        st.tuples(st.just("ratios"), st.just("--m"), n, st.just("--gen"), n, st.just("--Z"), n),
        st.tuples(st.just("primroot"), st.just("--p"), p, st.just("--cap"), n),
        st.tuples(st.just("nonres"), st.just("--p"), p, st.just("--d"), small, st.just("--cap"), n),
        st.tuples(
            st.just("doublesum"), st.just("--p"), p, st.just("--order"), small, st.just("--ucap"), n, st.just("--vcap"), n
        ),
        st.tuples(st.just("scan"), st.just("--pmin"), p, st.just("--pmax"), p),
    )


_LIMIT = st.sampled_from((None, "1", "1000"))  # None keeps the default
_CALLS = st.one_of(
    st.tuples(_calls(lambda s: s), _LIMIT, _LIMIT),
    # boundary values only under the smallest caps, where no call runs long
    st.tuples(_calls(lambda s: st.one_of(s, _BOUNDARY)), st.just("24"), st.just("1")),
)


# every call drawn under --memcap 24 --budget 1 returns within this bound:
# over 4,500 drawn calls on a 2-core host the slowest took 0.076 s, the
# first call of a process, which loads numpy; the bound is 13 times that
_SMALL_CAPS_SECONDS = 1.0


# each exited 1 at the default caps: three float powers past the range,
# the third in a --kappa call that reads no moment, and an M past int64;
# then three power rules whose P^numerator passed the float range
@example(call=(("avg", "--P", "4", "--nu", "1009", "--N-rule", "P^1"), None, None))
@example(call=(("avg", "--P", "4", "--nu", "1100", "--N-rule", "P^1/2"), None, None))
@example(call=(("avg", "--P", "4", "--nu", "1009", "--N-rule", "P^1", "--kappa", "0.1"), None, None))
@example(call=(("rho", "--M", "9223372036854775808", "--b", "1", "--nu", "2", "--k", "3"), None, None))
@example(call=(("avg", "--P", "4", "--N-rule", "P^1999/1000"), None, None))
@example(call=(("avg", "--P", str(10**200), "--N-rule", "P^3/2"), None, None))
@example(call=(("avg", "--P", "1000", "--N-rule", "P^4001/2001"), None, None))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_CALLS)
def test_cli_exits_0_2_or_3_and_leaves_no_temp_file(capsys, tmp_path, call):
    argv, memcap, budget = call
    limits = [arg for flag, value in (("--memcap", memcap), ("--budget", budget)) if value for arg in (flag, value)]
    with tempfile.TemporaryDirectory(dir=tmp_path) as out_dir:
        out = os.path.join(out_dir, "report.csv")
        started = time.monotonic()
        rc, _, err = run(capsys, *argv, *limits, "--threads", "1", "--out", out)
        assert rc in (0, 2, 3), err
        if (memcap, budget) == ("24", "1"):
            assert time.monotonic() - started < _SMALL_CAPS_SECONDS, argv
        assert not [f for f in os.listdir(out_dir) if f.startswith(".report-")]
        if rc:  # a refusal leaves no file at all
            assert not os.listdir(out_dir)
        else:  # and a success writes the same bytes at two workers
            with open(out, "rb") as fh:
                report = fh.read()
            assert run(capsys, *argv, *limits, "--threads", "2", "--out", out)[0] == 0
            with open(out, "rb") as fh:
                assert fh.read() == report, argv

import json
import math
import os

import numpy as np
import pytest

from fermatq.cli import main, parse_n_rule
from fermatq.report import parse_csv


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
    assert parse_n_rule("100")(8)(11) == 100
    assert parse_n_rule("P^0.5")(256)(601) == 16
    assert parse_n_rule("P^1/2")(256)(601) == 16
    assert parse_n_rule("P^1/3")(27)(31) == 3  # exact integer ceiling
    table = tmp_path / "n.csv"
    table.write_text("p,N\n11,5\n13,7\n")
    rule = parse_n_rule(f"@{table}")(8)
    assert (rule(11), rule(13)) == (5, 7)
    with pytest.raises(ValueError):
        rule(17)
    with pytest.raises(ValueError):
        parse_n_rule("P^x")
    with pytest.raises(ValueError):
        parse_n_rule("many")
    with pytest.raises(ValueError):
        parse_n_rule(f"@{tmp_path / 'missing.csv'}")


def test_threads_do_not_change_bytes(capsys, tmp_path):
    paths = [tmp_path / f"avg{t}.csv" for t in (1, 2, 8)]
    for t, path in zip((1, 2, 8), paths):
        rc, _, _ = run(capsys, "avg", "--P", "64", "--nu", "2", "--N-rule", "P^0.5",
                       "--threads", str(t), "--out", str(path))
        assert rc == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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


def test_sieve_seed_changes_rows(capsys):
    out1 = run(capsys, "sieve", "--R", "2", "--K", "16", "--seed", "1")[1]
    out2 = run(capsys, "sieve", "--R", "2", "--K", "16", "--seed", "2")[1]
    out1b = run(capsys, "sieve", "--R", "2", "--K", "16", "--seed", "1")[1]
    assert out1 == out1b
    assert out1 != out2


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
    # built without the pairwise closure check, so this returns quickly
    m, z = 100003, 10
    rc, out, _ = run(capsys, "ratios", "--m", str(m), "--gen", "2", "--Z", str(z))
    assert rc == 0
    _, rows = parse_csv(out)
    w = np.array([pow(2, k, m) for k in range(m - 1)], dtype=np.int64)
    r = np.outer(w, np.arange(1, z + 1, dtype=np.int64)) % m
    direct = 2 * int(np.count_nonzero((r <= z) | (r >= m - z)))
    assert rows[0][1] == "100002"
    assert int(rows[0][4]) == direct == (2 * z) ** 2


def test_selftest_clean_run(capsys):
    rc, out, _ = run(capsys, "selftest", "--seed", "42")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith("ok") for line in lines)
    names = [line.split(":")[0] for line in lines]
    assert names == ["core-arith", "fermat-quotient", "char-sums", "sieve-lab", "subgroup-ratios", "prim-root"]


def test_selftest_deterministic_bytes(capsys):
    out1 = run(capsys, "selftest", "--seed", "42")[1]
    out2 = run(capsys, "selftest", "--seed", "42")[1]
    assert out1 == out2


def test_selftest_fault_injection_names_module(capsys):
    rc, out, _ = run(capsys, "selftest", "--inject-fault", "fermat-quotient")
    assert rc == 1
    assert "fermat-quotient" in out and "FAIL" in out
    assert "first failure: fermat-quotient quotient_table" in out


def test_timings_flag_records_wall(capsys):
    rc, out, _ = run(capsys, "scan", "--pmin", "3", "--pmax", "10", "--timings")
    assert rc == 0
    header, rows = parse_csv(out)
    wall = float(rows[0][header.index("wall_seconds")])
    assert wall > 0.0

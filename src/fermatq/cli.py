"""Command-line front end: one subcommand per experiment.

Every subcommand shares the --out/--format/--threads/--seed/--budget/
--memcap/--timings plumbing and emits a fixed-schema report through
the atomic writer.  Exit codes: 0 success, 1 internal failure, 2
argument or domain error, 3 budget or cap refusal.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import Callable

import numpy as np

from .arith import BudgetError, odd_prime
from .charsums import (
    CharacterModP,
    exp_sum_direct,
    exp_sum_from_histogram,
    hb_bound_rhs,
    max_exp_sum,
)
from .config import RunConfig, resolve_config
from .primroots import (
    quotient_sumset_experiment,
    scan_row,
    smallest_dth_nonresidue_quotient,
    smallest_primroot_quotient,
    theorem4_exponent_scan,
)
from .quotients import (
    cauchy_lower_bound,
    fermat_quotient,
    image_size,
    quotient_table,
    value_histogram,
    write_table,
)
from .report import emit
from .selftest import VALID_FAULTS, run_selftest
from .sieve import (
    TrigPolynomial,
    constant_rule,
    exceptional_counts,
    power_rule,
    sieve_report,
    table_rule,
    theorem1_average,
)
from .subgroups import SubgroupModM, count_ratios, lemma7_rhs, pth_power_residues

SUM_COLUMNS = ("p", "a", "N", "re", "im", "abs", "rhs_eq1_nu2")
AVG_COLUMNS = ("P", "nu", "N", "lhs", "rhs_envelope", "trivial_bound", "ratio", "prime_count", "wall_seconds")
KAPPA_COLUMNS = ("P", "nu", "N", "kappa", "exceeded", "prime_count")
SIEVE_COLUMNS = ("R", "K", "A", "lhs", "rhs_bz", "rhs_zhao", "ratio_bz", "ratio_zhao")
RATIO_COLUMNS = ("m", "t", "Z", "nu", "count", "lemma7_rhs", "ratio", "t_over_sqrt_m")
SCAN_COLUMNS = ("p", "n_min", "exponent", "verified")
NONRES_COLUMNS = ("p", "d", "n_min", "exponent", "verified")
DOUBLESUM_COLUMNS = ("p", "order_of_eta", "card_A", "card_B", "abs_sum", "lemma3_envelope", "ratio")
RHO_COLUMNS = ("M", "b", "nu", "k", "re", "im", "abs")


def parse_n_rule(text: str) -> Callable[[int], Callable[[int], int]]:
    """Turn an --N-rule string into a selector factory keyed on P.

    Accepted forms: a bare integer ("100"), a power of the window
    scale ("P^0.5" or "P^1/2"), or "@path" naming a two-column p,N
    table that covers every prime in the window.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty N rule")
    if text.startswith("@"):
        mapping = _load_n_table(text[1:])
        return lambda p_scale: table_rule(mapping)
    if text[0] in "pP" and len(text) > 1 and text[1] == "^":
        try:
            theta = Fraction(text[2:])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad exponent in N rule {text!r}") from None
        return lambda p_scale: power_rule(theta, p_scale)
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"bad N rule {text!r}; expected an integer, P^theta, or @file") from None
    return lambda p_scale: constant_rule(n)


def _load_n_table(path: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read N table {path!r}: {exc}") from None
    for idx, line in enumerate(lines):
        line = line.strip()
        if not line or (idx == 0 and not line[0].isdigit()):
            continue  # blank or header
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{idx + 1}: expected two columns p,N")
        mapping[int(parts[0])] = int(parts[1])
    if not mapping:
        raise ValueError(f"N table {path!r} has no rows")
    return mapping


def _build_table(p, n: int, config: RunConfig):
    prime = odd_prime(p)
    return prime, quotient_table(prime, n, max_entries=config.max_table_entries)


def cmd_quotient(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.u < 0:
        raise ValueError(f"u must be nonnegative, got {args.u}")
    q = fermat_quotient(prime, args.u)
    return ("p", "u", "q"), [{"p": prime.p, "u": args.u, "q": q}]


def cmd_table(args, config: RunConfig):
    prime, table = _build_table(args.p, args.n, config)
    if args.dump:
        write_table(table, args.dump)
    defined = int(len(table.defined()))
    return ("p", "n", "defined"), [{"p": prime.p, "n": table.n, "defined": defined}]


def cmd_image(args, config: RunConfig):
    prime, table = _build_table(args.p, args.n, config)
    img = image_size(table)
    bound = cauchy_lower_bound(value_histogram(table))
    # ratio against the Cauchy floor is diagnostic only, never a report column
    print(f"image {img} >= cauchy floor {float(bound):.6g} (slack {img / float(bound):.4g}x)", file=sys.stderr)
    return ("p", "n", "image"), [{"p": prime.p, "n": table.n, "image": img}]


def cmd_expsum(args, config: RunConfig):
    prime, table = _build_table(args.p, args.n, config)
    s = exp_sum_direct(prime, args.a, args.n, table=table)
    row = {
        "p": prime.p,
        "a": args.a,
        "N": args.n,
        "re": s.real,
        "im": s.imag,
        "abs": abs(s),
        "rhs_eq1_nu2": hb_bound_rhs(prime, args.n, 2),
    }
    return SUM_COLUMNS, [row]


def cmd_maxsum(args, config: RunConfig):
    prime, table = _build_table(args.p, args.n, config)
    hist = value_histogram(table)
    a_star, _ = max_exp_sum(prime, args.n, hist=hist)
    s = exp_sum_from_histogram(hist, a_star)
    row = {
        "p": prime.p,
        "a": a_star,
        "N": args.n,
        "re": s.real,
        "im": s.imag,
        "abs": abs(s),
        "rhs_eq1_nu2": hb_bound_rhs(prime, args.n, 2),
    }
    return SUM_COLUMNS, [row]


def _window_scales(args) -> list[int]:
    if args.P:
        if args.pmin is not None or args.pmax is not None:
            raise ValueError("give either --P or --pmin/--pmax, not both")
        return list(args.P)
    if args.pmin is None or args.pmax is None:
        raise ValueError("avg requires --P or both --pmin and --pmax")
    if not 3 <= args.pmin < args.pmax:
        raise ValueError(f"need 3 <= pmin < pmax, got {args.pmin}, {args.pmax}")
    scales, p = [], args.pmin
    while p < args.pmax:  # dyadic ladder of windows (P, 2P]
        scales.append(p)
        p *= 2
    return scales


def cmd_avg(args, config: RunConfig):
    scales = _window_scales(args)
    rule = parse_n_rule(args.n_rule)
    rows, kappa_rows = [], []
    for p_scale in scales:
        res = theorem1_average(p_scale, args.nu, rule(p_scale), threads=config.threads, budget_ops=config.budget_ops)
        rows.append(
            {
                "P": res.p_scale,
                "nu": res.nu,
                "N": res.n_ref,
                "lhs": res.lhs,
                "rhs_envelope": res.rhs_envelope,
                "trivial_bound": res.trivial_bound,
                "ratio": res.ratio,
                "prime_count": res.prime_count,
                "wall_seconds": res.wall_seconds if config.timings else 0.0,
            }
        )
        for kappa, exceeded in exceptional_counts(res, args.kappa or []):
            kappa_rows.append(
                {
                    "P": res.p_scale,
                    "nu": res.nu,
                    "N": res.n_ref,
                    "kappa": kappa,
                    "exceeded": exceeded,
                    "prime_count": res.prime_count,
                }
            )
    if args.kappa:
        return KAPPA_COLUMNS, kappa_rows
    return AVG_COLUMNS, rows


def cmd_sieve(args, config: RunConfig):
    if args.K < 1:
        raise ValueError(f"K must be >= 1, got {args.K}")
    rng = np.random.default_rng(config.seed)
    coeffs = rng.standard_normal(args.K) + 1j * rng.standard_normal(args.K)
    poly = TrigPolynomial(coeffs)
    rows = []
    for r_max in args.R:
        rep = sieve_report(poly, r_max, budget_ops=config.budget_ops)
        rows.append(
            {
                "R": rep.r_max,
                "K": rep.k_max,
                "A": rep.energy,
                "lhs": rep.lhs,
                "rhs_bz": rep.rhs_bz,
                "rhs_zhao": rep.rhs_zhao,
                "ratio_bz": rep.ratio_bz,
                "ratio_zhao": rep.ratio_zhao,
            }
        )
    return SIEVE_COLUMNS, rows


def cmd_rho(args, config: RunConfig):
    from .sieve import rho_coefficient

    if args.k is not None and args.kmax is not None:
        raise ValueError("give either --k or --kmax, not both")
    ks = args.k if args.k is not None else list(range(1, (args.kmax or 0) + 1))
    if not ks:
        raise ValueError("rho requires --k or --kmax")
    rows = []
    for k in ks:
        c = rho_coefficient(args.M, args.b, args.nu, k)
        rows.append({"M": args.M, "b": args.b, "nu": args.nu, "k": k, "re": c.real, "im": c.imag, "abs": abs(c)})
    return RHO_COLUMNS, rows


def cmd_ratios(args, config: RunConfig):
    if args.p is not None:
        if args.m is not None or args.gen is not None:
            raise ValueError("give either --p or --m/--gen, not both")
        prime = odd_prime(args.p)
        m, group = prime.p2, pth_power_residues(prime)
    else:
        if args.m is None or args.gen is None:
            raise ValueError("ratios requires --p or both --m and --gen")
        m, group = args.m, SubgroupModM.generated(args.m, args.gen)
    count = count_ratios(m, group, args.Z, budget_ops=config.budget_ops)
    rhs = lemma7_rhs(m, group.t, args.Z, args.nu)
    row = {
        "m": m,
        "t": group.t,
        "Z": args.Z,
        "nu": args.nu,
        "count": count,
        "lemma7_rhs": rhs,
        "ratio": count / rhs,
        "t_over_sqrt_m": group.t / math.sqrt(m),
    }
    return RATIO_COLUMNS, [row]


def cmd_primroot(args, config: RunConfig):
    prime = odd_prime(args.p)
    cap = args.cap if args.cap is not None else prime.p2
    n = smallest_primroot_quotient(prime, cap)
    return SCAN_COLUMNS, [asdict(scan_row(prime, n))]


def cmd_nonres(args, config: RunConfig):
    prime = odd_prime(args.p)
    cap = args.cap if args.cap is not None else prime.p2
    n = smallest_dth_nonresidue_quotient(prime, args.d, cap)
    if n is None:
        row = {"p": prime.p, "d": args.d, "n_min": None, "exponent": None, "verified": False}
    else:
        q = fermat_quotient(prime, n)
        # re-checks the returned n by the same Euler test the search applies
        verified = q not in (None, 0) and pow(q, (prime.p - 1) // args.d, prime.p) != 1
        row = {
            "p": prime.p,
            "d": args.d,
            "n_min": n,
            "exponent": math.log(n) / math.log(prime.p),
            "verified": verified,
        }
    return NONRES_COLUMNS, [row]


def cmd_doublesum(args, config: RunConfig):
    prime = odd_prime(args.p)
    eta = CharacterModP.all_of_order(prime, args.order)[0]
    if eta.is_trivial:
        raise ValueError("order 1 gives the trivial character; use --order >= 2")
    rep = quotient_sumset_experiment(prime, args.ucap, args.vcap, eta)
    row = {
        "p": rep.p,
        "order_of_eta": rep.eta_order,
        "card_A": rep.card_u,
        "card_B": rep.card_v,
        "abs_sum": rep.abs_sum,
        "lemma3_envelope": rep.envelope,
        "ratio": rep.ratio,
    }
    return DOUBLESUM_COLUMNS, [row]


def cmd_scan(args, config: RunConfig):
    return SCAN_COLUMNS, [asdict(row) for row in theorem4_exponent_scan(args.pmin, args.pmax)]


def cmd_selftest(args, config: RunConfig):
    return run_selftest(config.seed, fault=args.inject_fault)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="PATH", help="write the report here (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=None, help="worker count for avg (env FERMATQ_THREADS)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized inputs")
    common.add_argument("--budget", type=int, default=None, help="operation budget (env FERMATQ_BUDGET)")
    common.add_argument("--memcap", type=int, default=None, help="memory cap in bytes (env FERMATQ_MEMCAP)")
    common.add_argument("--timings", action="store_true", help="record real wall_seconds (breaks byte determinism)")

    parser = argparse.ArgumentParser(prog="fermatq", description="Fermat quotient experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("quotient", cmd_quotient, "single quotient value q_p(u)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--u", type=int, required=True)

    p = add("table", cmd_table, "batch quotient table, optionally dumped to binary")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump", metavar="PATH", help="write the binary table dump here")

    p = add("image", cmd_image, "distinct values attained over 1..n")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("expsum", cmd_expsum, "twisted exponential sum at one a")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("maxsum", cmd_maxsum, "maximal twisted sum over a, via the DFT")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("avg", cmd_avg, "averaged 2nu-th moment over a prime window")
    p.add_argument("--P", type=int, nargs="+", metavar="P", help="window scales; primes run over (P, 2P]")
    p.add_argument("--pmin", type=int)
    p.add_argument("--pmax", type=int)
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--N-rule", dest="n_rule", required=True, metavar="RULE", help="integer, P^theta, or @file")
    p.add_argument("--kappa", type=float, nargs="+", help="report exceptional counts at these exponents instead")

    p = add("sieve", cmd_sieve, "large-sieve inequality over square moduli")
    p.add_argument("--R", type=int, nargs="+", required=True, help="moduli bounds; one report row each")
    p.add_argument("--K", type=int, required=True, help="coefficient count; entries drawn from the seed")

    p = add("rho", cmd_rho, "factorization-sum coefficients rho(k)")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--k", type=int, nargs="+", help="explicit k values")
    p.add_argument("--kmax", type=int, help="or all k in 1..kmax")

    p = add("ratios", cmd_ratios, "small-ratio counter N(m, G, Z)")
    p.add_argument("--p", type=int, help="use G_p inside Z/p^2")
    p.add_argument("--m", type=int, help="explicit modulus (with --gen)")
    p.add_argument("--gen", type=int, help="generator of the subgroup mod m")
    p.add_argument("--Z", type=int, required=True)
    p.add_argument("--nu", type=int, default=2)

    p = add("primroot", cmd_primroot, "least n with q_p(n) a primitive root")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--cap", type=int, help="search bound (default p^2)")

    p = add("nonres", cmd_nonres, "least n with q_p(n) a dth power nonresidue")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cap", type=int, help="search bound (default p^2)")

    p = add("doublesum", cmd_doublesum, "double character sum over quotient value sets")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--order", type=int, default=2, help="order of the character eta")
    p.add_argument("--ucap", type=int, required=True)
    p.add_argument("--vcap", type=int, required=True)

    p = add("scan", cmd_scan, "primroot search for every prime in a range")
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)

    p = add("selftest", cmd_selftest, "run every module's invariant suite")
    p.add_argument("--inject-fault", choices=VALID_FAULTS, help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = resolve_config(
            threads=args.threads,
            budget_ops=args.budget,
            memory_cap_bytes=args.memcap,
            output_path=args.out,
            format=args.format,
            seed=args.seed,
            timings=args.timings,
        )
        started = time.monotonic()
        outcome = args.handler(args, config)
        if isinstance(outcome, int):
            return outcome
        columns, rows = outcome
        emit(columns, rows, config, time.monotonic() - started)
        return 0
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # bad input, or an --out/--dump path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

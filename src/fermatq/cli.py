"""Command-line front end: one subcommand per experiment.

Every subcommand shares the --out/--format/--threads/--seed/--budget/
--memcap/--timings plumbing and emits a fixed-schema report through
the atomic writer.  Exit codes: 0 success, 1 internal failure, 2
argument or domain error, 3 budget or cap refusal.

arith, config and report, which every call runs, are imported as usual.
The six modules of the experiments are registered in sys.modules as lazy
modules and called through their names (`sieve.theorem1_average(...)`),
so a call compiles and executes only the ones its subcommand reads:
`quotient` runs no charsums, and no call but `selftest` runs selftest.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import math
import sys
import time
from typing import Callable

from . import np
from .arith import BudgetError, odd_prime
from .config import RunConfig, resolve_config, rho_row_entries
from .report import emit, write_atomic


def _lazy(name: str):
    """fermatq.<name>, registered in sys.modules and bound on the package as
    an import would, but compiled and executed at its first attribute read;
    a module imported before is used as it is."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


charsums, primroots, quotients, selftest, sieve, subgroups = map(
    _lazy, ("charsums", "primroots", "quotients", "selftest", "sieve", "subgroups")
)

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
        return lambda p_scale: sieve.table_rule(mapping)
    if text[0] in "pP" and len(text) > 1 and text[1] == "^":
        from fractions import Fraction  # imported where it is used: most calls build none

        try:
            theta = Fraction(text[2:])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad exponent in N rule {text!r}") from None
        return lambda p_scale: sieve.power_rule(theta, p_scale)
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"bad N rule {text!r}; expected an integer, P^theta, or @file") from None
    return lambda p_scale: sieve.constant_rule(n)


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
        p, n = int(parts[0]), int(parts[1])
        if n < 1:  # before any charge; a prime the table lacks shows only in the window's sieve
            raise ValueError(f"{path}:{idx + 1}: N_p must be >= 1, got {n}")
        mapping[p] = n
    if not mapping:
        raise ValueError(f"N table {path!r} has no rows")
    return mapping


def _build_table(p, n: int, config: RunConfig):
    prime = odd_prime(p)
    config.charge("table", entries=n)
    return prime, quotients.quotient_table(prime, n)


def _histogram_table(p, n: int, config: RunConfig, whole: bool):
    """(prime, value histogram over 1..n), built by period_histogram from
    a table of the n mod p^2 tail.  Charged before any of it: p counts,
    then that tail, or all n entries when whole is set.  The traced peak at
    n = 10 and p = 10^6 is 24 bytes per p for image and 48 for maxsum (its
    length-p FFT), against the 24 charged; the tail's table adds its
    builder's peak of about 17 bytes per entry (maxsum --p 211 --n 800000:
    0.8 MiB, where a table of all n took 13 MiB)."""
    prime = odd_prime(p)
    quotients.check_histogram_length(n)  # bad input exits 2 whatever the caps
    config.charge("histogram", entries=prime.p)
    config.charge("table", entries=n if whole else n % prime.p2)
    return prime, quotients.period_histogram(prime, n)


def cmd_quotient(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.u < 0:
        raise ValueError(f"u must be nonnegative, got {args.u}")
    q = quotients.fermat_quotient(prime, args.u)
    return ("p", "u", "q"), [(prime.p, args.u, q)]


def cmd_table(args, config: RunConfig):
    prime, table = _build_table(args.p, args.n, config)
    if args.dump:
        quotients.write_table(table, args.dump)
    return ("p", "n", "defined"), [(prime.p, table.n, table.n - table.n // prime.p)]


def cmd_image(args, config: RunConfig):
    prime, hist = _histogram_table(args.p, args.n, config, whole=False)
    img = hist.image
    bound = quotients.cauchy_lower_bound(hist)
    # ratio against the Cauchy floor is diagnostic only, never a report column
    print(f"image {img} >= cauchy floor {float(bound):.6g} (slack {img / float(bound):.4g}x)", file=sys.stderr)
    return ("p", "n", "image"), [(prime.p, args.n, img)]


def _sum_row(prime, a: int, n: int, s: complex):
    return SUM_COLUMNS, [(prime.p, a, n, s.real, s.imag, abs(s), charsums.hb_bound_rhs(prime, n, 2))]


def cmd_expsum(args, config: RunConfig):
    prime, table = _build_table(args.p, args.n, config)
    return _sum_row(prime, args.a, args.n, charsums.exp_sum_direct(prime, args.a, args.n, table=table))


def cmd_maxsum(args, config: RunConfig):
    # charged n entries, as a whole table was: the float spectrum of the
    # folded counts loses digits as n / p^2 grows
    prime, hist = _histogram_table(args.p, args.n, config, whole=True)
    a_star, _ = charsums.max_exp_sum(hist)
    return _sum_row(prime, a_star, args.n, charsums.exp_sum_from_histogram(hist, a_star))


def _window_scales(args) -> list[int]:
    """The window scales, each P >= 3 and nu >= 1 checked before any is charged."""
    if args.nu < 1:
        raise ValueError(f"nu must be >= 1, got {args.nu}")
    if args.P:
        if args.pmin is not None or args.pmax is not None:
            raise ValueError("give either --P or --pmin/--pmax, not both")
        if min(args.P) < 3:
            raise ValueError(f"P must be >= 3, got {min(args.P)}")
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
    selectors = [rule(p_scale) for p_scale in scales]  # a bad N rule exits 2 before any charge
    for p_scale, selector in zip(scales, selectors):  # every window is charged before the first is computed
        config.charge("sieve", entries=2 * p_scale + 1)  # before the sieve that lists its primes
        entries, steps = sieve.window_cost(sieve.window_pairs(p_scale, args.nu, selector)[0])
        config.charge("window", entries=entries, steps=steps)
    rows = []
    for p_scale, selector in zip(scales, selectors):
        res = sieve.theorem1_average(
            p_scale, args.nu, selector, threads=config.threads, max_entries=config.max_table_entries
        )
        window = (res.p_scale, res.nu, res.n_ref)
        if args.kappa:
            counts = sieve.exceptional_counts(res, args.kappa)
            rows += [(*window, kappa, exceeded, res.prime_count) for kappa, exceeded in counts]
        else:
            wall = res.wall_seconds if config.timings else 0.0
            rows.append((*window, res.lhs, res.rhs_envelope, res.trivial_bound, res.ratio, res.prime_count, wall))
    return (KAPPA_COLUMNS if args.kappa else AVG_COLUMNS), rows


def cmd_sieve(args, config: RunConfig):
    if args.K < 1:
        raise ValueError(f"K must be >= 1, got {args.K}")
    if min(args.R) < 1:  # every R, before the first is summed
        raise ValueError(f"R must be >= 1, got {min(args.R)}")
    config.charge("coefficients", entries=args.K)
    config.charge("evaluation points", steps=sieve.sieve_points(max(args.R)))  # the largest R, before the first
    rng = np.random.default_rng(config.seed)
    coeffs = rng.standard_normal(args.K) + 1j * rng.standard_normal(args.K)
    poly = sieve.TrigPolynomial(coeffs)
    reps = (sieve.sieve_report(poly, r_max) for r_max in args.R)
    rows = [(r.r_max, r.k_max, r.energy, r.lhs, r.rhs_bz, r.rhs_zhao, r.ratio_bz, r.ratio_zhao) for r in reps]
    return SIEVE_COLUMNS, rows


def cmd_rho(args, config: RunConfig):
    if args.k is not None and args.kmax is not None:
        raise ValueError("give either --k or --kmax, not both")
    ks = args.k if args.k is not None else range(1, (args.kmax or 0) + 1)
    if not ks:
        raise ValueError("rho requires --k or --kmax")
    # every k, before the charge and the first row; a --kmax range starts at 1
    for name, value in (("M", args.M), ("nu", args.nu), ("k", min(args.k or [1]))):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    steps = sieve.rho_steps(args.M, args.nu, ks, stop=config.budget_ops)
    config.charge("rho rows", entries=rho_row_entries(len(ks), config.format), steps=steps)
    coefficients = ((k, sieve.rho_coefficient(args.M, args.b, args.nu, k)) for k in ks)
    return RHO_COLUMNS, [(args.M, args.b, args.nu, k, c.real, c.imag, abs(c)) for k, c in coefficients]


def cmd_ratios(args, config: RunConfig):
    if args.nu < 1:  # bad input exits 2 whatever the caps
        raise ValueError(f"nu must be >= 1, got {args.nu}")
    if args.p is not None:
        if args.m is not None or args.gen is not None:
            raise ValueError("give either --p or --m/--gen, not both")
        prime = odd_prime(args.p)
        m = prime.p2
        subgroups.check_ratio_bound(m, args.Z)  # before the group is built
        config.charge("floor-sum lanes", steps=subgroups.ratio_steps(m, prime.p - 1))
        group = subgroups.pth_power_residues(prime)
    else:
        if args.m is None or args.gen is None:
            raise ValueError("ratios requires --p or both --m and --gen")
        m = args.m
        subgroups.check_ratio_bound(m, args.Z)
        group = subgroups.generated_within(m, args.gen, config.budget_ops)  # its walk stops at the budget
    count = subgroups.count_ratios(m, group, args.Z)
    rhs = subgroups.lemma7_rhs(m, group.t, args.Z, args.nu)
    return RATIO_COLUMNS, [(m, group.t, args.Z, args.nu, count, rhs, count / rhs, group.t / math.sqrt(m))]


def cmd_primroot(args, config: RunConfig):
    prime = odd_prime(args.p)
    cap = args.cap if args.cap is not None else prime.p2
    n = primroots.smallest_primroot_quotient(prime, cap)
    return SCAN_COLUMNS, [primroots.scan_row(prime, n)]


def cmd_nonres(args, config: RunConfig):
    prime = odd_prime(args.p)
    cap = args.cap if args.cap is not None else prime.p2
    n = primroots.smallest_dth_nonresidue_quotient(prime, args.d, cap)
    return NONRES_COLUMNS, [primroots.nonres_row(prime, args.d, n)]


def cmd_doublesum(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.order < 1 or (prime.p - 1) % args.order != 0:
        raise ValueError(f"order {args.order} does not divide {prime.p - 1}")
    if args.order == 1:
        raise ValueError("order 1 gives the trivial character; use --order >= 2")
    if min(args.ucap, args.vcap) < 1:
        raise ValueError(f"caps must be >= 1, got ucap={args.ucap}, vcap={args.vcap}")
    # both charges come before the character's discrete-log loop
    config.charge("convolution", entries=primroots.convolution_length(prime))
    config.charge("table", entries=max(args.ucap, args.vcap))
    eta = charsums.CharacterModP(prime, (prime.p - 1) // args.order)
    rep = primroots.quotient_sumset_experiment(prime, args.ucap, args.vcap, eta)
    row = (rep.p, rep.eta_order, rep.card_u, rep.card_v, rep.abs_sum, rep.envelope, rep.ratio)
    return DOUBLESUM_COLUMNS, [row]


def cmd_scan(args, config: RunConfig):
    primroots.check_scan_range(args.pmin, args.pmax)  # bad input exits 2 whatever the caps
    config.charge("sieve", entries=args.pmax + 1)
    config.charge("scan lane steps", steps=primroots.scan_steps(args.pmin, args.pmax))
    return SCAN_COLUMNS, primroots.theorem4_exponent_scan(args.pmin, args.pmax)


def cmd_selftest(args, config: RunConfig):
    out = sys.stdout if config.output_path is None else io.StringIO()
    code = selftest.run_selftest(config.seed, args.inject_fault, out)
    if config.output_path is not None:
        write_atomic([out.getvalue()], config.output_path)
    return code


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
    p.add_argument("--inject-fault", help=argparse.SUPPRESS)  # run_selftest checks the name

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

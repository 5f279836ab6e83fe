"""Command-line front end: one subcommand per experiment.

Every subcommand shares the --out/--format/--threads/--seed/--budget/
--memcap/--timings plumbing and emits a fixed-schema report through
the atomic writer.  Exit codes: 0 success, 1 internal failure, 2
argument or domain error, 3 budget or cap refusal.

COMMANDS is the one table of subcommands.  A plan is a generator: it
validates the arguments, then yields lists of charges, as RunConfig.charge
arguments, and last its outcome; main charges each list before it resumes
the plan.  Only the walk of ratios --m/--gen refuses inside the library.
The plans that charge nothing leave cap and d to the library search their
work begins with.

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
from typing import Callable, NamedTuple

from . import np
from .arith import BudgetError, odd_prime
from .config import DEFAULT_BUDGET_OPS, DEFAULT_MEMORY_CAP, DEFAULT_THREADS, RunConfig, charged_entries, setting
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


def parse_n_rule(text: str) -> Callable[[int], int | dict[int, int]]:
    """Turn an --N-rule string into a function of the window scale P that
    gives the N_p of every p in the window, or a table of N_p by p.

    Accepted forms: a bare integer ("100"), a power of the window
    scale ("P^0.5" or "P^1/2"), or "@path" naming a two-column p,N
    table that covers every prime in the window.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty N rule")
    if text.startswith("@"):
        mapping = _load_n_table(text[1:])
        return lambda p_scale: mapping
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
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return lambda p_scale: n


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
        if n < 1:  # before any charge; a prime the table lacks shows only in the window's segment
            raise ValueError(f"{path}:{idx + 1}: N_p must be >= 1, got {n}")
        mapping[p] = n
    if not mapping:
        raise ValueError(f"N table {path!r} has no rows")
    return mapping


def _histogram_charges(p, n: int, spectrum: bool):
    """(prime, the charge of period_histogram(prime, n)): the sum of its p
    counts and a table of the n mod p^2 tail, which live at once; for
    maxsum's spectrum, of the counts at their "spectrum count" bytes (a
    length-p FFT) and all n entries.  The traced peak at n = 10 and
    p = 10^6 is 24 bytes per p for image; the tail's table adds its
    builder's peak of about 11 bytes per entry (maxsum --p 211 --n 800000:
    0.8 MiB, where a table of all n took 13 MiB; image --p 1000003 --n
    1000000: 32.2 MB, where either part alone is charged 24 MB).  Below p
    of about 7 * 10^5 maxsum's traced peak is the block of up to 256 bytes
    per p that resident_transform_memory allocates and frees untouched,
    which no page backs and which is not charged."""
    prime = odd_prime(p)
    quotients.check_histogram_length(n)
    counts, table = (charged_entries(prime.p, "spectrum count"), n) if spectrum else (prime.p, n % prime.p2)
    return prime, [("histogram and table", counts + table, 0)]


def plan_quotient(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.u < 0:
        raise ValueError(f"u must be nonnegative, got {args.u}")
    yield []
    yield ("p", "u", "q"), [(prime.p, args.u, quotients.fermat_quotient(prime, args.u))]


def plan_table(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.n < 1:
        raise ValueError(f"table length must be >= 1, got {args.n}")
    yield [("table", args.n, 0)]
    table = quotients.quotient_table(prime, args.n)
    if args.dump:
        quotients.write_table(table, args.dump)
    yield ("p", "n", "defined"), [(prime.p, table.n, table.n - table.n // prime.p)]


def plan_image(args, config: RunConfig):
    prime, charges = _histogram_charges(args.p, args.n, spectrum=False)
    yield charges
    hist = quotients.period_histogram(prime, args.n)
    img = hist.image
    bound = quotients.cauchy_lower_bound(hist)
    # ratio against the Cauchy floor is diagnostic only, never a report column
    print(f"image {img} >= cauchy floor {float(bound):.6g} (slack {img / float(bound):.4g}x)", file=sys.stderr)
    yield ("p", "n", "image"), [(prime.p, args.n, img)]


def _sum_row(prime, a: int, n: int, s: complex):
    return SUM_COLUMNS, [(prime.p, a, n, s.real, s.imag, abs(s), charsums.hb_bound_rhs(prime, n, 2))]


def plan_expsum(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.n < 1:
        raise ValueError(f"range must be >= 1, got {args.n}")
    yield [("table", charged_entries(args.n, "expsum entry"), 0)]
    yield _sum_row(prime, args.a, args.n, charsums.exp_sum_direct(prime, args.a, args.n))


def plan_maxsum(args, config: RunConfig):
    # charged n entries, as a whole table was: the float spectrum of the
    # folded counts loses digits as n / p^2 grows
    prime, charges = _histogram_charges(args.p, args.n, spectrum=True)
    yield charges
    hist = quotients.period_histogram(prime, args.n)
    a_star, _ = charsums.max_exp_sum(hist)
    yield _sum_row(prime, a_star, args.n, charsums.exp_sum_from_histogram(hist, a_star))


def plan_avg(args, config: RunConfig):
    if args.P:
        if args.pmin is not None or args.pmax is not None:
            raise ValueError("give either --P or --pmin/--pmax, not both")
    elif args.pmin is None or args.pmax is None:
        raise ValueError("avg requires --P or both --pmin and --pmax")
    elif args.pmin >= args.pmax:
        raise ValueError(f"need 3 <= pmin < pmax, got {args.pmin}, {args.pmax}")
    sieve.check_window(min(args.P or [args.pmin]), args.nu)  # the least scale, before the dyadic ladder
    if args.P:
        scales = list(args.P)
    else:
        scales, p = [], args.pmin
        while p < args.pmax:  # dyadic ladder of windows (P, 2P]
            scales.append(p)
            p *= 2
    rule = parse_n_rule(args.n_rule)
    n_rules = [rule(p_scale) for p_scale in scales]
    # a window whose one N is known without its primes is checked and priced from below
    floors = [("window", *sieve.window_floor(p, args.nu, n)) for p, n in zip(scales, n_rules) if isinstance(n, int)]
    # the segment of P integers, one entry each, that lists each window's primes
    yield floors + [("segment", p_scale, 0) for p_scale in scales]
    # each window needs the primes of its charged segment, and an N table's
    # rows are checked on them; every window is charged before the first is computed
    for p_scale, n_rule in zip(scales, n_rules):
        yield [("window", *sieve.window_cost(sieve.window_pairs(p_scale, args.nu, n_rule)[0]))]
    rows = []
    for p_scale, n_rule in zip(scales, n_rules):
        res = sieve.theorem1_average(
            p_scale, args.nu, n_rule, threads=config.threads, max_entries=config.max_table_entries
        )
        window = (res.p_scale, res.nu, res.n_ref)
        if args.kappa:
            counts = sieve.exceptional_counts(res, args.kappa)
            rows += [(*window, kappa, exceeded, res.prime_count) for kappa, exceeded in counts]
        else:
            wall = res.wall_seconds if config.timings else 0.0
            rows.append((*window, res.lhs, res.rhs_envelope, res.trivial_bound, res.ratio, res.prime_count, wall))
    yield (KAPPA_COLUMNS if args.kappa else AVG_COLUMNS), rows


def plan_sieve(args, config: RunConfig):
    if args.K < 1:
        raise ValueError(f"K must be >= 1, got {args.K}")
    if min(args.R) < 1:  # every R, before the first is summed
        raise ValueError(f"R must be >= 1, got {min(args.R)}")
    # coefficients, transforms and the sieve of the largest R live through
    # every row as one charge; one pass to the largest R gives every row
    transform = charged_entries(sieve.transform_length(args.K), "sieve transform point")
    held = charged_entries(args.K, "sieve coefficient") + transform + max(args.R) + 1
    steps = sieve.lhs_steps(args.K, max(args.R))
    yield [("coefficients and transforms", held, 0), ("transforms and divisor terms", 0, steps)]
    rng = np.random.default_rng(config.seed)
    coeffs = rng.standard_normal(args.K) + 1j * rng.standard_normal(args.K)
    reps = sieve.sieve_reports(sieve.TrigPolynomial(coeffs), args.R)
    rows = [(r.r_max, r.k_max, r.energy, r.lhs, r.rhs_bz, r.rhs_zhao, r.ratio_bz, r.ratio_zhao) for r in reps]
    yield SIEVE_COLUMNS, rows


def plan_rho(args, config: RunConfig):
    if args.k is not None and args.kmax is not None:
        raise ValueError("give either --k or --kmax, not both")
    ks = args.k if args.k is not None else range(1, (args.kmax or 0) + 1)
    if not ks:
        raise ValueError("rho requires --k or --kmax")
    sieve.check_rho(args.M, args.nu, min(args.k or [1]))  # every k; a --kmax range starts at 1
    steps = sieve.rho_steps(args.M, args.nu, ks, stop=config.budget_ops)
    yield [("rho rows", charged_entries(len(ks), f"{config.format} row"), steps)]
    coefficients = ((k, sieve.rho_coefficient(args.M, args.b, args.nu, k)) for k in ks)
    yield RHO_COLUMNS, [(args.M, args.b, args.nu, k, c.real, c.imag, abs(c)) for k, c in coefficients]


def plan_ratios(args, config: RunConfig):
    if args.nu < 1:
        raise ValueError(f"nu must be >= 1, got {args.nu}")
    if args.p is None:
        if args.m is None or args.gen is None:
            raise ValueError("ratios requires --p or both --m and --gen")
        m, charges = args.m, []  # the walk of generated_within stops at the budget
    elif args.m is not None or args.gen is not None:
        raise ValueError("give either --p or --m/--gen, not both")
    else:
        prime = odd_prime(args.p)
        m = prime.p2
        t = prime.p - 1  # G_p's order, known without G_p
        charges = [("floor-sum lanes", 0, subgroups.ratio_steps(m, t)), ("G_p", charged_entries(t, "group element"), 0)]
    subgroups.check_ratio_bound(m, args.Z)
    yield charges
    if args.p is None:
        group = subgroups.generated_within(m, args.gen, config.budget_ops)
    else:
        group = subgroups.pth_power_residues(prime)
    count = subgroups.count_ratios(m, group, args.Z)
    rhs = subgroups.lemma7_rhs(m, group.t, args.Z, args.nu)
    yield RATIO_COLUMNS, [(m, group.t, args.Z, args.nu, count, rhs, count / rhs, group.t / math.sqrt(m))]


def plan_primroot(args, config: RunConfig):
    prime = odd_prime(args.p)
    cap = args.cap if args.cap is not None else prime.p2
    yield []
    yield SCAN_COLUMNS, [primroots.scan_row(prime, primroots.smallest_primroot_quotient(prime, cap))]


def plan_nonres(args, config: RunConfig):
    prime = odd_prime(args.p)
    cap = args.cap if args.cap is not None else prime.p2
    yield []
    n = primroots.smallest_dth_nonresidue_quotient(prime, args.d, cap)
    yield NONRES_COLUMNS, [primroots.nonres_row(prime, args.d, n)]


def plan_doublesum(args, config: RunConfig):
    prime = odd_prime(args.p)
    if args.order < 1 or (prime.p - 1) % args.order != 0:
        raise ValueError(f"order {args.order} does not divide {prime.p - 1}")
    if args.order == 1:
        raise ValueError("order 1 gives the trivial character; use --order >= 2")
    if min(args.ucap, args.vcap) < 1:
        raise ValueError(f"caps must be >= 1, got ucap={args.ucap}, vcap={args.vcap}")
    # the table lives through the convolution, so the two are one charge
    convolution = charged_entries(primroots.convolution_length(prime), "convolution entry")
    yield [("table and convolution", max(args.ucap, args.vcap) + convolution, 0)]
    eta = charsums.CharacterModP(prime, (prime.p - 1) // args.order)
    rep = primroots.quotient_sumset_experiment(prime, args.ucap, args.vcap, eta)
    yield DOUBLESUM_COLUMNS, [(rep.p, rep.eta_order, rep.card_u, rep.card_v, rep.abs_sum, rep.envelope, rep.ratio)]


def plan_scan(args, config: RunConfig):
    primroots.check_scan_range(args.pmin, args.pmax)
    width, rows = primroots.scan_size(args.pmin, args.pmax)
    held = charged_entries(width, "scan integer") + charged_entries(rows, "scan row") + charged_entries(1, "scan round")
    yield [("segment and rows", held, 0), ("scan lane steps", 0, primroots.scan_steps(args.pmin, args.pmax))]
    yield SCAN_COLUMNS, primroots.theorem4_exponent_scan(args.pmin, args.pmax)


def plan_selftest(args, config: RunConfig):
    yield []
    out = sys.stdout if config.output_path is None else io.StringIO()
    code = selftest.run_selftest(config.seed, out)
    if config.output_path is not None:
        write_atomic([out.getvalue()], config.output_path)
    yield code


class Command(NamedTuple):
    help: str
    arguments: tuple  # each a flag, for a required integer option, or a (flag, add_argument keywords) pair
    plan: Callable  # (args, config) -> a generator of its charges, then its outcome


_CAP = ("--cap", {"type": int, "help": "search bound (default p^2)"})

COMMANDS = {  # in the order of --help
    "quotient": Command("single quotient value q_p(u)", ("--p", "--u"), plan_quotient),
    "table": Command(
        "batch quotient table, optionally dumped to binary",
        ("--p", "--n", ("--dump", {"metavar": "PATH", "help": "write the binary table dump here"})),
        plan_table,
    ),
    "image": Command("distinct values attained over 1..n", ("--p", "--n"), plan_image),
    "expsum": Command("twisted exponential sum at one a", ("--p", "--a", "--n"), plan_expsum),
    "maxsum": Command("maximal twisted sum over a, via the DFT", ("--p", "--n"), plan_maxsum),
    "avg": Command(
        "averaged 2nu-th moment over a prime window",
        (
            ("--P", {"type": int, "nargs": "+", "metavar": "P", "help": "window scales; primes run over (P, 2P]"}),
            ("--pmin", {"type": int}),
            ("--pmax", {"type": int}),
            ("--nu", {"type": int, "default": 2}),
            ("--N-rule", {"dest": "n_rule", "required": True, "metavar": "RULE", "help": "integer, P^theta, or @file"}),
            ("--kappa", {"type": float, "nargs": "+", "help": "report exceptional counts at these exponents instead"}),
        ),
        plan_avg,
    ),
    "sieve": Command(
        "large-sieve inequality over square moduli",
        (
            ("--R", {"type": int, "nargs": "+", "required": True, "help": "moduli bounds; one report row each"}),
            ("--K", {"type": int, "required": True, "help": "coefficient count; entries drawn from the seed"}),
        ),
        plan_sieve,
    ),
    "rho": Command(
        "factorization-sum coefficients rho(k)",
        (
            "--M",
            "--b",
            "--nu",
            ("--k", {"type": int, "nargs": "+", "help": "explicit k values"}),
            ("--kmax", {"type": int, "help": "or all k in 1..kmax"}),
        ),
        plan_rho,
    ),
    "ratios": Command(
        "small-ratio counter N(m, G, Z)",
        (
            ("--p", {"type": int, "help": "use G_p inside Z/p^2"}),
            ("--m", {"type": int, "help": "explicit modulus (with --gen)"}),
            ("--gen", {"type": int, "help": "generator of the subgroup mod m"}),
            "--Z",
            ("--nu", {"type": int, "default": 2}),
        ),
        plan_ratios,
    ),
    "primroot": Command("least n with q_p(n) a primitive root", ("--p", _CAP), plan_primroot),
    "nonres": Command("least n with q_p(n) a dth power nonresidue", ("--p", "--d", _CAP), plan_nonres),
    "doublesum": Command(
        "double character sum over quotient value sets",
        ("--p", ("--order", {"type": int, "default": 2, "help": "order of the character eta"}), "--ucap", "--vcap"),
        plan_doublesum,
    ),
    "scan": Command("primroot search for every prime in a range", ("--pmin", "--pmax"), plan_scan),
    "selftest": Command("run every module's invariant suite", (), plan_selftest),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the subcommands named, by default of all of them."""
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
    for name in names:
        p = sub.add_parser(name, parents=[common], help=COMMANDS[name].help)
        for argument in COMMANDS[name].arguments:
            flag, kwargs = (argument, {"type": int, "required": True}) if isinstance(argument, str) else argument
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand argv names, or all of them for --help, an unknown name or none
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    try:
        args = build_parser(names).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(
            threads=setting(args.threads, "FERMATQ_THREADS", DEFAULT_THREADS),
            budget_ops=setting(args.budget, "FERMATQ_BUDGET", DEFAULT_BUDGET_OPS),
            memory_cap_bytes=setting(args.memcap, "FERMATQ_MEMCAP", DEFAULT_MEMORY_CAP),
            output_path=args.out,
            format=args.format,
            seed=args.seed,
            timings=args.timings,
        )
        started = time.monotonic()
        plan = COMMANDS[args.command].plan(args, config)
        outcome = next(plan)  # every check comes before the first charges
        while isinstance(outcome, list):  # each list of charges before the work it prices
            for what, entries, steps in outcome:
                config.charge(what, entries, steps)
            outcome = next(plan)
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

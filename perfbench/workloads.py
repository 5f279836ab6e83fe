"""The four benchmark workloads as fixed fermatq command lines.

Each workload is a list of calls.  A call is one `fermatq` command line
without its `--threads` flag; `threads` says how it is run.  The
`--threads 2` calls repeat a `--threads 1` call of the same workload,
and their report bytes must equal it.

`primes` and `entries` count the work a call's inputs ask for, so that
throughput has a fixed numerator: `primes` is the number of primes the
call computes over, `entries` the number of quotient values it asks for
(table length n, sum of N_p over a window, or for the searches the sum
of the n_min values that the pinned reports hold).  Both are fixed by
the inputs and do not depend on how fermatq computes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BIG_BUDGET = "1000000000000"  # the default avg estimate refuses both window calls


@dataclass(frozen=True)
class Call:
    args: tuple[str, ...]
    threads: int = 1
    primes: int = 0
    entries: int = 0
    dump: bool = False  # add `--dump <file>` and check the dump too
    check: str = "reference"  # or "quotient-oracle" for seeded inputs

    @property
    def key(self) -> str:
        """Reference key: the command line, shared by both thread counts."""
        return " ".join(self.args + (("--dump",) if self.dump else ()))

    @property
    def label(self) -> str:
        return self.key + (f" --threads {self.threads}" if self.threads > 1 else "")


def _calls(*specs: tuple) -> list[Call]:
    return [Call(tuple(line.split()), **kw) for line, kw in specs]


def _both(*specs: tuple) -> list[Call]:
    """Each call at --threads 1, then each at --threads 2."""
    return _calls(*specs) + _calls(*((line, dict(kw, threads=2)) for line, kw in specs))


# Sizes keep each call near a second, so a 30 s run holds five to ten
# passes: per-call wall time on a shared 2-core host spreads by a quarter
# from call to call, and only many samples give a steady median.  Every
# call also runs at --threads 2 (three calls of lab-mix), because a single
# --threads 2 call per pass gave run medians that spread by a third.
# (P, 2P] prime counts: 464 for P = 4096, 137 for 1024, 43 + 75 for 256 and 512.
TABLE_BULK = _both(  # no parallel path: for any pool change the prediction here is no change
    ("maxsum --p 211 --n 800000", dict(primes=1, entries=800_000)),  # n > 15 p^2
    ("image --p 10007 --n 250000", dict(primes=1, entries=250_000)),  # p < n < p^2
    ("table --p 2147483647 --n 250000", dict(primes=1, entries=250_000, dump=True)),  # n < p
)

WINDOW = _both(
    (f"avg --P 4096 --N-rule P^1/2 --budget {BIG_BUDGET}", dict(primes=464, entries=464 * 64)),
    (f"avg --P 1024 --N-rule P^1 --budget {BIG_BUDGET}", dict(primes=137, entries=137 * 1024)),
)

SCAN = _both(
    ("scan --pmin 3 --pmax 30000", dict(primes=3244, entries=12509)),
    ("primroot --p 1000003", dict(primes=1, entries=4)),
    ("nonres --p 1000003 --d 2", dict(primes=1, entries=3)),
)

LAB_MIX = _calls(
    ("expsum --p 7 --a 3 --n 49", dict(primes=1, entries=49)),
    ("maxsum --p 311 --n 1555 --format json", dict(primes=1, entries=1555)),
    ("image --p 5 --n 4", dict(primes=1, entries=4)),
    ("table --p 7 --n 1000", dict(primes=1, entries=1000, dump=True)),
    ("ratios --p 1009 --Z 50000", dict(primes=1)),
    ("ratios --m 100 --gen 7 --Z 9 --format json", {}),
    ("sieve --R 150 --K 4096 --seed 7", {}),
    ("sieve --R 2 3 4 --K 64 --seed 7 --format json", {}),
    ("rho --M 12 --b 5 --nu 3 --kmax 3000", {}),
    ("doublesum --p 10009 --order 4 --ucap 3000 --vcap 3000", dict(primes=1, entries=3000)),
    ("avg --pmin 256 --pmax 1024 --N-rule 100 --kappa 0.1 0.25", dict(primes=118, entries=118 * 100)),
    ("selftest --seed 42", {}),
    ("avg --pmin 256 --pmax 1024 --N-rule 100 --kappa 0.1 0.25", dict(threads=2, primes=118, entries=118 * 100)),
    ("ratios --p 1009 --Z 50000", dict(threads=2, primes=1)),
    ("doublesum --p 10009 --order 4 --ucap 3000 --vcap 3000", dict(threads=2, primes=1, entries=3000)),
)

WORKLOADS = {"table-bulk": TABLE_BULK, "window": WINDOW, "scan": SCAN, "lab-mix": LAB_MIX}

QUOTIENT_PRIME = 1000003


def seeded_calls(workload: str, rng: random.Random) -> list[Call]:
    """The workload's calls; lab-mix also gets one `quotient` call whose u
    comes from the seed and whose answer is checked by direct pow."""
    calls = list(WORKLOADS[workload])
    if workload == "lab-mix":
        u = rng.randrange(2, 10**15)
        u += u % QUOTIENT_PRIME == 0
        args = ("quotient", "--p", str(QUOTIENT_PRIME), "--u", str(u))
        calls.insert(0, Call(args, primes=1, entries=1, check="quotient-oracle"))
    return calls

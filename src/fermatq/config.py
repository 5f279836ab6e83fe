"""Run configuration: flags beat environment, environment beats defaults."""

from __future__ import annotations

import os
from typing import NamedTuple

from .arith import BudgetError

DEFAULT_THREADS = 1
DEFAULT_BUDGET_OPS = 1_000_000_000
DEFAULT_MEMORY_CAP = 2 * 1024**3

# bytes per entry that RunConfig.charge counts against --memcap: a quotient
# table peaks at 10.4 to 11.4 bytes an entry in its builder (its int64
# table and the power ladder's temporaries, a few arrays of pi(n) entries;
# the bool segment that lists the primes is freed before the table), plus
# slack.  Every other --memcap charge is counted in these units: the
# segment that lists avg's window primes one entry per integer, and each
# working set below its bytes rounded up to whole entries.
_TABLE_BYTES_PER_ENTRY = 24

DEFAULT_TABLE_CAP = DEFAULT_MEMORY_CAP // _TABLE_BYTES_PER_ENTRY

# bytes per unit of each working set charged at its traced peak: the
# tracemalloc peak of cli.main over the unit count, its modules loaded
# first, rounded up to a multiple of 8
PEAK_BYTES = {
    "expsum entry": 56,  # its table, mask and phases: 49 at n = 2.5 * 10^5 and 2 * 10^6
    # the complex coefficients, held through sieve's transforms, and the
    # transforms by their padded length: 20.0 to 20.1 bytes a point beyond
    # the coefficients at K = 10^5 to 10^6 (R = 2, 600 and 3,000)
    "sieve coefficient": 16,
    "sieve transform point": 24,
    "convolution entry": 48,  # doublesum's length n: 40 at n about 2p, 29 to 39 at p = 10^4 to 10^6
    "spectrum count": 56,  # maxsum's length-p FFT: 48.01 at p = 10^6 + 3 and 2 * 10^6 + 3
    "ratio table entry": 48,  # ratios --p's table, sorted values and runs: 40.0 at p = 2^31 - 1, Z = 10^6
    # scan's widest segment, 20.8 traced bytes an integer near 2^31 to 41.1
    # from 3; its rows, 144 to 148 bytes held and up to 678 (json) a row of
    # the chunk being rendered; and one search round of 1,024 candidate cells
    # over up to 9 factors l of p - 1 a lane (a lane a cell past 1,024 lanes,
    # in the rows), 634,947 traced bytes at p = 892371481 alone: 9 * 1,024 * 72
    "scan integer": 48,
    "scan row": 256,
    "scan round": 663_552,
    # a rho report row, by format: the traced peak of rho --M 1 --b 0 --nu 1
    # --kmax 200000 and rho --M 1000 --b 1 --nu 2 --kmax 100000 over the row
    # count, 215 to 240 for csv and 224 to 257 for json, rounded up to a
    # multiple of 32; the row tuple (about 208), and a share of rho's working
    # set and of the 4,096-row chunk being rendered, as text in both formats
    "csv row": 256,
    "json row": 288,
}


def charged_entries(count: int, unit: str) -> int:
    """Entries charged for count units of a PEAK_BYTES working set: their
    bytes, rounded up to whole table entries."""
    return -(-count * PEAK_BYTES[unit] // _TABLE_BYTES_PER_ENTRY)


class _RunConfig(NamedTuple):
    threads: int = DEFAULT_THREADS
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP
    budget_ops: int = DEFAULT_BUDGET_OPS
    output_path: str | None = None
    format: str = "csv"
    seed: int = 0
    timings: bool = False


class RunConfig(_RunConfig):
    """The settings of one run, checked when it is built: by the
    constructor, `_make` or `_replace`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.memory_cap_bytes < 1 or self.budget_ops < 1:
            raise ValueError("budget and memory cap must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        return self

    @classmethod
    def _make(cls, fields) -> RunConfig:
        return cls(*fields)

    @property
    def max_table_entries(self) -> int:
        return max(1, self.memory_cap_bytes // _TABLE_BYTES_PER_ENTRY)

    def charge(self, what: str, entries: int = 0, steps: int | float = 0) -> None:
        """Refuse work of `entries` table entries or `steps` steps that passes
        --memcap or --budget.  The one place a count meets a cap: cli's main
        charges what each plan will build and run, before it starts."""
        if entries > self.max_table_entries:
            raise BudgetError(f"{what}: {entries} entries exceed cap {self.max_table_entries}")
        if steps > self.budget_ops:
            shown = f"{steps:.3g}" if isinstance(steps, float) else steps
            raise BudgetError(f"{what}: {shown} steps exceed budget {self.budget_ops}")


def setting(flag: int | None, env: str, default: int) -> int:
    """A run setting: its flag, else its environment variable, else its default."""
    if flag is not None:
        return flag
    raw = os.environ.get(env)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from None

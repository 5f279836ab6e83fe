"""Run configuration: flags beat environment, environment beats defaults."""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_THREADS = "FERMATQ_THREADS"
ENV_BUDGET = "FERMATQ_BUDGET"
ENV_MEMCAP = "FERMATQ_MEMCAP"

DEFAULT_THREADS = 1
DEFAULT_BUDGET_OPS = 1_000_000_000
DEFAULT_MEMORY_CAP = 2 * 1024**3

# bytes per table entry: 17 at the builder's peak (int64 least-prime-factor
# sieve, int64 index ramp, bool mask), freed before its int64 table; plus slack
_TABLE_BYTES_PER_ENTRY = 24


@dataclass(frozen=True)
class RunConfig:
    threads: int = DEFAULT_THREADS
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP
    budget_ops: int = DEFAULT_BUDGET_OPS
    output_path: str | None = None
    format: str = "csv"
    seed: int = 0
    timings: bool = False

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.memory_cap_bytes < 1 or self.budget_ops < 1:
            raise ValueError("budget and memory cap must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def max_table_entries(self) -> int:
        return max(1, self.memory_cap_bytes // _TABLE_BYTES_PER_ENTRY)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def resolve_config(
    *,
    threads: int | None = None,
    budget_ops: int | None = None,
    memory_cap_bytes: int | None = None,
    output_path: str | None = None,
    format: str = "csv",
    seed: int = 0,
    timings: bool = False,
) -> RunConfig:
    """Merge explicit flag values over environment variables over defaults."""
    return RunConfig(
        threads=threads if threads is not None else _env_int(ENV_THREADS, DEFAULT_THREADS),
        budget_ops=budget_ops if budget_ops is not None else _env_int(ENV_BUDGET, DEFAULT_BUDGET_OPS),
        memory_cap_bytes=(
            memory_cap_bytes if memory_cap_bytes is not None else _env_int(ENV_MEMCAP, DEFAULT_MEMORY_CAP)
        ),
        output_path=output_path,
        format=format,
        seed=seed,
        timings=timings,
    )

"""Fermat quotient experiments: tables, character sums, sieve ratios,
and primitive-root searches, with a deterministic reporting CLI."""

__version__ = "0.1.0"

import os

# One BLAS thread per process, set before numpy is first imported; an
# explicit setting in the environment wins.  fermatq's BLAS calls are 1-D
# dot products, and its parallelism is its own worker processes (`avg
# --threads`).  OpenBLAS splits a long dot product by thread count, so its
# rounding, and with it a report's bytes, would depend on the host's core
# count; and its idle thread pool spins a second core for about 0.1 s of
# CPU after numpy loads, in every process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import (
    BudgetError,
    Factorization,
    OddPrime,
    arithmetic_functions,
    factorize,
    is_prime,
    is_primitive_root,
    mod_pow,
    multiplicative_order,
    primes_up_to,
)
from .quotients import (
    QuotientTable,
    ResidueHistogram,
    cauchy_lower_bound,
    collision_count,
    fermat_quotient,
    image_size,
    quotient_table,
    value_histogram,
)
from .charsums import (
    CharacterModP,
    CharacterModPSquared,
    eta_quotient_sum,
    exp_sum_direct,
    exp_sum_from_histogram,
    gauss_identity_residual,
    gauss_sum,
    hb_bound_rhs,
    hb_character,
    max_exp_sum,
    unit_root,
    unit_roots,
)
from .sieve import (
    SieveReport,
    Theorem1Result,
    TrigPolynomial,
    large_sieve_lhs,
    large_sieve_rhs,
    parseval_check,
    rho_coefficient,
    sieve_report,
    theorem1_average,
    trig_poly_eval,
    zhao_conjecture_rhs,
)
from .subgroups import (
    SubgroupModM,
    collision_vs_ratio_check,
    count_ratios,
    lemma7_rhs,
    pth_power_residues,
)
from .primroots import (
    IndicatorReport,
    ScanRow,
    double_char_sum,
    primroot_indicator,
    quotient_sumset_experiment,
    smallest_dth_nonresidue_quotient,
    smallest_primroot_quotient,
    theorem4_exponent_scan,
)

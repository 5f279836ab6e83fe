"""Fermat quotient experiments: tables, character sums, sieve ratios,
and primitive-root searches, with a deterministic reporting CLI."""

__version__ = "0.1.0"

import os

# One BLAS thread per process, set before numpy is first imported; an
# explicit setting in the environment wins.  fermatq's BLAS calls are 1-D
# dot products, and its parallelism is its own worker threads (`avg
# --threads`).  OpenBLAS splits a long dot product by thread count, so its
# rounding, and with it a report's bytes, would depend on the host's core
# count; and its idle thread pool spins a second core for about 0.1 s of
# CPU after numpy loads, in every process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _LazyNumpy:
    """numpy, imported at the first attribute read: a call that builds no
    array (`quotient`, `primroot`, `nonres`) never pays its import, as
    long as no module reads an attribute at import time.  Each attribute
    is cached on the handle, so a later read costs what a module
    attribute does."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()

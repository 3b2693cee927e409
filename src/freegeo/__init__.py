"""freegeo: a numerical laboratory for matrix-tuple information geometry."""

import os

# OpenBLAS reads its thread count once, when numpy (or scipy) first loads it.
# At the sizes the lab runs a second BLAS thread only spin-waits, and with it
# dot products over 16,384 or more entries split their sums by thread, so the
# bits of a result at n >= 128 would depend on the CPU count.  One thread,
# unless the caller has set OPENBLAS_NUM_THREADS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .matcore import (  # noqa: E402, F401
    MatrixTuple,
    Seed,
    operator_norm,
    sa_embedding,
    sample_ginibre,
    sample_gue,
    tensor_embed,
    trace_inner_product,
    tracial_norm,
)

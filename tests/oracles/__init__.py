"""Test-only parity oracles for the vectorized production paths.

Each oracle subclasses a production class and overrides only the hot loop
with its straightforward one-at-a-time form: fold networks trained one
after another, detector scores computed one row at a time.  The
production paths promise bit-for-bit equal output, so the parity tests
compare against these with ``np.array_equal``, and the wall-clock floors
in ``benchmarks/`` time them as the unoptimised baseline.
"""

from tests.oracles.detectors import ReferenceABOD, ReferenceCOF, ReferenceSOD
from tests.oracles.ensemble import SequentialFoldEnsemble

__all__ = [
    "SequentialFoldEnsemble",
    "ReferenceABOD",
    "ReferenceCOF",
    "ReferenceSOD",
]

"""Slow, independent references for the band algebra and the determinant.

``band_product`` multiplies the tridiagonal factors directly, which the
block row reduction must reproduce level by level; ``det_permutation`` sums
over all permutations, which the memoized minor expansion must match.  Both
are only fit for small sizes.
"""

from __future__ import annotations

import itertools

from dkp.lattice import BandMatrix, Matrix, x_band
from dkp.symalg import ExactPoly
from dkp.torus import _require_torus


def band_product(N: int, M: int, j: int = 1) -> BandMatrix:
    """Product of the tridiagonal factors for levels M down to j."""
    _require_torus(N, M)
    out = x_band(N, M, M - 1)
    for m in range(M - 2, j - 2, -1):
        out = out * x_band(N, M, m)
    return out


def det_permutation(mat: Matrix) -> ExactPoly:
    """Permutation-sum determinant."""
    n = len(mat)
    acc = ExactPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = ExactPoly.const(1)
        for i in range(n):
            entry = mat[i][perm[i]]
            if not entry:
                term = ExactPoly.zero()
                break
            term = term * entry
        if term:
            acc = acc + (term if inversions % 2 == 0 else -term)
    return acc

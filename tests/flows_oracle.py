"""The numpy column evaluator that ``flows.CompiledPoly`` replaced.

``ColumnPoly`` evaluates a list of polynomials on a flat state with numpy: the
monomials are stored widest first (a stable sort), so factor j of every
monomial with more than j factors is the prefix column ``columns[j]``.  A
call starts from the coefficients, multiplies the columns in left to right,
and sums each monomial into its polynomial with ``bincount``, in row order
from 0.0; a polynomial with no terms comes out as 0.  The straight-line
evaluator in ``flows`` does the same floating-point operations in the same
order, so the tests require its values to be equal, not close.
"""

from __future__ import annotations

import numpy as np

from dkp.symalg import ExactPoly, Gen


class ColumnPoly:
    def __init__(self, polys: list[ExactPoly], index: dict[Gen, int]):
        rows = [
            ([index[g] for g, k in mono for _ in range(k)], i, float(q))
            for i, poly in enumerate(polys)
            for mono, q in poly.terms.items()
        ]
        rows.sort(key=lambda row: -len(row[0]))
        width = len(rows[0][0]) if rows else 0
        self.columns = [
            np.array([f[j] for f, _, _ in rows if len(f) > j], dtype=np.intp)
            for j in range(width)
        ]
        self.owner = np.array([i for _, i, _ in rows], dtype=np.intp)
        self.coeffs = np.array([q for _, _, q in rows], dtype=float)
        self.count = len(polys)

    def __call__(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=float)
        terms = self.coeffs.copy()
        for column in self.columns:
            terms[: len(column)] *= flat.take(column)
        sums = np.bincount(self.owner, terms, minlength=self.count)
        return sums.astype(float, copy=False)  # bincount of no weights is int64

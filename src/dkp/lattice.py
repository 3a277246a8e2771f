"""The block row reduction, the alpha-twisted band matrix, and its determinant.

The spectral problem is the NM x NM block-circulant matrix W over A, B,
alpha, beta (built in ``tests/lattice_oracle.py``, which checks it against
what lives here).  This module works with its second presentation: the
infinite N-periodic band matrix C~ of halfwidth M whose entries c~_i(k) are
polynomials in A, B, produced by block row reduction of W level by level
(level M is a single tridiagonal factor, level 1 is the full band), and the
N x N alpha-twisted matrix C_alpha - beta whose determinant is the curve.

Band entries are addressed as c_i(k) = C(k, k + w - i) for a halfwidth-w
band, i = 0..2w, and c_0 = 1 always.  All site indices are 0-based and
periodic; level indices j run 1..M as in the reduction recursion.  The
reduction is built once per torus, and ``level_entries`` reads one level as
the map c -> c(A, B).  Band data is a plain dict {(i, k): c_i(k)}; the
matrix algebra on such bands (``BandMatrix``, and ``band_product``, which the
reduction must reproduce) is the reference in ``tests/lattice_oracle.py``.
"""

from __future__ import annotations

from functools import lru_cache

from dkp.symalg import (
    ALPHA,
    BETA,
    ExactPoly,
    Gen,
    gen_A,
    gen_B,
    gen_c,
)
from dkp.torus import _require_torus

Matrix = list[list[ExactPoly]]
LevelData = dict[tuple[int, int], ExactPoly]  # (band index i, site k) -> poly


def top_level(N: int, M: int) -> LevelData:
    """Level M band data: the single factor with band indices 0, 1, 2."""
    data: LevelData = {}
    for k in range(N):
        data[(0, k)] = ExactPoly.const(1)
        data[(1, k)] = -ExactPoly.var(gen_A(k, M - 1))
        data[(2, k)] = -ExactPoly.var(gen_B(k, M - 1))
    return data


def reduce_step(N: int, M: int, j: int, upper: LevelData) -> LevelData:
    """One block row elimination: level j+1 data to level j data.

    The eliminated block row contributes the m-index j (1-based), so the
    new entries mix in A(., j-1) and B(., j-1) in internal 0-based indexing.
    Out-of-range band indices are zero; index 0 stays identically 1.
    """
    if not 1 <= j <= M - 1:
        raise ValueError(f"reduction level must satisfy 1 <= j <= M-1, got {j}")

    def src(i: int, k: int) -> ExactPoly:
        if i == 0:
            return ExactPoly.const(1)
        if i < 0 or i > 2 * (M - j):
            return ExactPoly.zero()
        return upper[(i, k % N)]

    out: LevelData = {}
    for k in range(N):
        out[(0, k)] = ExactPoly.const(1)
        for i in range(1, 2 * (M + 1 - j) + 1):
            a = ExactPoly.var(gen_A((k - i + M + 1 - j) % N, j - 1))
            b = ExactPoly.var(gen_B((k - i + M + 2 - j) % N, j - 1))
            out[(i, k)] = src(i, k) - a * src(i - 1, k) - b * src(i - 2, k)
    return out


@lru_cache(maxsize=None)
def reduction_levels(N: int, M: int) -> dict[int, LevelData]:
    """All levels M..1 of the block row reduction, as polynomials in A, B,
    built once per torus; callers only read them."""
    _require_torus(N, M)
    levels = {M: top_level(N, M)}
    for j in range(M - 1, 0, -1):
        levels[j] = reduce_step(N, M, j, levels[j + 1])
    return levels


def c_generators(N: int, M: int, j: int = 1) -> list[Gen]:
    """The level-j band generators c_i(k), i >= 1, band-major and site-minor."""
    if not 1 <= j <= M:
        raise ValueError(f"reduction level must satisfy 1 <= j <= M, got {j}")
    return [gen_c(j, i, k) for i in range(1, 2 * (M + 1 - j) + 1) for k in range(N)]


@lru_cache(maxsize=None)
def level_entries(N: int, M: int, j: int) -> dict[Gen, ExactPoly]:
    """Every level-j band generator c_i(k), i >= 1, as its A,B polynomial, in
    ``c_generators`` order, built once per (N, M, j); callers only read it."""
    gens = c_generators(N, M, j)
    level = reduction_levels(N, M)[j]
    return {g: level[(g[2], g[3])] for g in gens}


def abstract_level(N: int, M: int, j: int) -> LevelData:
    """Level-j band data as free c-generators (index 0 pinned to 1)."""
    data: LevelData = {}
    for k in range(N):
        data[(0, k)] = ExactPoly.const(1)
        for i in range(1, 2 * (M + 1 - j) + 1):
            data[(i, k)] = ExactPoly.var(gen_c(j, i, k))
    return data


def c_alpha(N: int, M: int, band: LevelData) -> Matrix:
    """Wrap level-1 band data into the N x N alpha-twisted matrix.

    C_alpha(k, l) = sum_s alpha^{-s} * C~(k, l - sN), the finite sum over
    shifts that land inside the band.
    """
    w = M
    bound = (w + N - 1) // N + 1
    out: Matrix = [[ExactPoly.zero()] * N for _ in range(N)]
    for k in range(N):
        for l in range(N):
            acc = ExactPoly.zero()
            for s in range(-bound, bound + 1):
                off = l - s * N - k
                if abs(off) > w:
                    continue
                entry = band.get((w - off, k), ExactPoly.zero())
                if entry:
                    acc = acc + (ExactPoly.var(ALPHA, -s) * entry if s else entry)
            out[k][l] = acc
    return out


def c_alpha_minus_beta(N: int, M: int, band: LevelData) -> Matrix:
    mat = c_alpha(N, M, band)
    beta = ExactPoly.var(BETA)
    for k in range(N):
        mat[k][k] = mat[k][k] - beta
    return mat


def det_minor_expansion(mat: Matrix) -> ExactPoly:
    """Exact determinant by first-row cofactor expansion memoized on column sets."""
    n = len(mat)
    if n == 0:
        return ExactPoly.const(1)
    memo: dict[int, ExactPoly] = {}

    def minor(mask: int) -> ExactPoly:
        if mask == 0:
            return ExactPoly.const(1)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = n - bin(mask).count("1")
        acc = ExactPoly.zero()
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            col = low.bit_length() - 1
            entry = mat[row][col]
            if entry:
                sub = minor(mask ^ low)
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    return minor((1 << n) - 1)


"""Spectral matrix, periodic band algebra, and the block row reduction.

Two equivalent presentations of the same spectral problem live here:

* the NM x NM block-circulant matrix W over A, B, alpha, beta;
* the infinite N-periodic band matrix C~ of halfwidth M whose entries
  c~_i(k) are polynomials in A, B, produced by block row reduction of W
  level by level (level M is a single tridiagonal factor, level 1 is the
  full band).

Band entries are addressed as c_i(k) = C(k, k + w - i) for a halfwidth-w
band, i = 0..2w, and c_0 = 1 always.  All site indices are 0-based and
periodic; level indices j run 1..M as in the reduction recursion.  The
reduction is built once per torus, and ``level_entries`` reads one level as
the map c -> c(A, B).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

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


class BandMatrix:
    """N-periodic infinite band matrix with ExactPoly entries.

    Stored sparsely as {(offset, site): poly} where the infinite entry at
    (k, k+offset) equals entries[(offset, k mod N)].
    """

    __slots__ = ("N", "entries")

    def __init__(self, N: int, entries: Mapping[tuple[int, int], ExactPoly] | None = None):
        self.N = N
        self.entries: dict[tuple[int, int], ExactPoly] = {}
        if entries:
            for (o, k), p in entries.items():
                if p:
                    self.entries[(o, k % N)] = p

    @classmethod
    def from_band_entries(
        cls, N: int, halfwidth: int, c: Mapping[tuple[int, int], ExactPoly]
    ) -> "BandMatrix":
        """Build from band-indexed data c[(i, k)] at offset halfwidth - i."""
        return cls(N, {(halfwidth - i, k): p for (i, k), p in c.items()})

    def entry(self, k: int, l: int) -> ExactPoly:
        return self.entries.get((l - k, k % self.N), ExactPoly.zero())

    def halfwidth(self) -> int:
        return max((abs(o) for o, _ in self.entries), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandMatrix):
            return NotImplemented
        return self.N == other.N and self.entries == other.entries

    def __add__(self, other: "BandMatrix") -> "BandMatrix":
        out = dict(self.entries)
        for key, p in other.entries.items():
            q = out.get(key, ExactPoly.zero()) + p
            if q:
                out[key] = q
            else:
                out.pop(key, None)
        return BandMatrix(self.N, out)

    def __neg__(self) -> "BandMatrix":
        return BandMatrix(self.N, {key: -p for key, p in self.entries.items()})

    def __sub__(self, other: "BandMatrix") -> "BandMatrix":
        return self + (-other)

    def __mul__(self, other: "BandMatrix") -> "BandMatrix":
        acc: dict[tuple[int, int], ExactPoly] = {}
        for (o1, k), p in self.entries.items():
            for (o2, k2), q in other.entries.items():
                if (k + o1) % self.N != k2:
                    continue
                key = (o1 + o2, k)
                r = acc.get(key, ExactPoly.zero()) + p * q
                if r:
                    acc[key] = r
                else:
                    acc.pop(key, None)
        return BandMatrix(self.N, acc)

    def commutator(self, other: "BandMatrix") -> "BandMatrix":
        return self * other - other * self

    def transpose(self) -> "BandMatrix":
        return BandMatrix(
            self.N, {(-o, (k + o) % self.N): p for (o, k), p in self.entries.items()}
        )

    def upper_part(self) -> "BandMatrix":
        """Strictly upper triangular piece (column > row)."""
        return BandMatrix(self.N, {key: p for key, p in self.entries.items() if key[0] > 0})

    def lower_part(self) -> "BandMatrix":
        """Lower triangular piece including the diagonal."""
        return BandMatrix(self.N, {key: p for key, p in self.entries.items() if key[0] <= 0})

    def trace_per_period(self) -> ExactPoly:
        out = ExactPoly.zero()
        for k in range(self.N):
            out = out + self.entries.get((0, k), ExactPoly.zero())
        return out


def x_band(N: int, M: int, m: int) -> BandMatrix:
    """The tridiagonal factor: superdiagonal 1, diagonal -A(., m), subdiagonal -B(., m)."""
    entries: dict[tuple[int, int], ExactPoly] = {}
    for k in range(N):
        entries[(1, k)] = ExactPoly.const(1)
        entries[(0, k)] = -ExactPoly.var(gen_A(k, m % M))
        entries[(-1, k)] = -ExactPoly.var(gen_B(k, m % M))
    return BandMatrix(N, entries)


def level_halfwidth(M: int, j: int) -> int:
    return M + 1 - j


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
    return [gen_c(j, i, k) for i in range(1, 2 * (M + 1 - j) + 1) for k in range(N)]


@lru_cache(maxsize=None)
def level_entries(N: int, M: int, j: int) -> dict[Gen, ExactPoly]:
    """Every level-j band generator c_i(k), i >= 1, as its A,B polynomial, in
    ``c_generators`` order, built once per (N, M, j); callers only read it."""
    level = reduction_levels(N, M)[j]
    return {g: level[(g[2], g[3])] for g in c_generators(N, M, j)}


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


def w_matrix(N: int, M: int) -> Matrix:
    """The NM x NM spectral matrix in N x N blocks.

    Row/column index is m*N + n for block m = 0..M-1, site n = 0..N-1.
    Block (0,0) carries -beta*I, other diagonal blocks -I, and block
    ((m+1) mod M, m) carries the tridiagonal circulant for layer m with
    the alpha twists on the wrapped corners.
    """
    _require_torus(N, M)
    size = N * M
    mat: Matrix = [[ExactPoly.zero()] * size for _ in range(size)]
    alpha = ExactPoly.var(ALPHA)
    alpha_inv = ExactPoly.var(ALPHA, -1)
    beta = ExactPoly.var(BETA)
    for m in range(M):
        base = m * N
        diag = -beta if m == 0 else -ExactPoly.const(1)
        for n in range(N):
            mat[base + n][base + n] = diag
    for m in range(M):
        bi = ((m + 1) % M) * N
        bj = m * N
        for n in range(N):
            mat[bi + n][bj + n] = mat[bi + n][bj + n] - ExactPoly.var(gen_A(n, m))
            if n + 1 < N:
                mat[bi + n][bj + n + 1] = mat[bi + n][bj + n + 1] + ExactPoly.const(1)
            else:
                mat[bi + n][bj] = mat[bi + n][bj] + alpha
            if n - 1 >= 0:
                mat[bi + n][bj + n - 1] = mat[bi + n][bj + n - 1] - ExactPoly.var(gen_B(n, m))
            else:
                mat[bi + n][bj + N - 1] = mat[bi + n][bj + N - 1] - ExactPoly.var(gen_B(n, m)) * alpha_inv
    return mat


def jacobian_rank_special(N: int, M: int, j: int) -> dict:
    """Rank report for the elimination differential at the dominance point."""
    rank, dim = dominance_rank(N, M, j)
    return {
        "N": N,
        "M": M,
        "level": j,
        "rank": rank,
        "target_dim": dim,
        "full_rank": rank == dim,
    }


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


def matrix_rank_exact(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(nrows):
            if r != rank and work[r][col]:
                factor = work[r][col] / pv
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def reduction_jacobian(
    N: int, M: int, j: int, point: Mapping[Gen, Fraction | int]
) -> tuple[list[list[Fraction]], int]:
    """Jacobian of the level j+1 -> level j elimination at a point.

    Source coordinates are the free level-(j+1) band generators plus the
    A, B layer consumed by the step; the image coordinates are all
    nonconstant level-j entries.  Returns (matrix, target dimension).
    """
    if not 1 <= j <= M - 1:
        raise ValueError(f"reduction level must satisfy 1 <= j <= M-1, got {j}")
    image = reduce_step(N, M, j, abstract_level(N, M, j + 1))
    source: list[Gen] = []
    for k in range(N):
        for i in range(1, 2 * (M - j) + 1):
            source.append(gen_c(j + 1, i, k))
    for k in range(N):
        source.append(gen_A(k, j - 1))
        source.append(gen_B(k, j - 1))
    targets = [
        image[(i, k)] for k in range(N) for i in range(1, 2 * (M + 1 - j) + 1)
    ]
    jac = [
        [Fraction(poly.partial(g).evaluate(point)) for g in source]
        for poly in targets
    ]
    return jac, len(targets)


def dominance_point_special(N: int, M: int, j: int) -> dict[Gen, int]:
    """The dominance-proof point: A = B = 0 and the lowest band corner 1."""
    point: dict[Gen, int] = {}
    for k in range(N):
        point[gen_A(k, j - 1)] = 0
        point[gen_B(k, j - 1)] = 0
        for i in range(1, 2 * (M - j) + 1):
            point[gen_c(j + 1, i, k)] = 1 if i == 2 * (M - j) else 0
    return point


def dominance_point_random(N: int, M: int, j: int, seed: int) -> dict[Gen, Fraction]:
    rng = random.Random(seed)
    point: dict[Gen, Fraction] = {}
    for k in range(N):
        point[gen_A(k, j - 1)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        point[gen_B(k, j - 1)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for i in range(1, 2 * (M - j) + 1):
            point[gen_c(j + 1, i, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return point


def dominance_rank(
    N: int, M: int, j: int, point: Mapping[Gen, Fraction | int] | None = None
) -> tuple[int, int]:
    """(rank, target dimension) of the elimination differential at a point."""
    if point is None:
        point = dominance_point_special(N, M, j)
    jac, dim = reduction_jacobian(N, M, j, point)
    return matrix_rank_exact(jac), dim

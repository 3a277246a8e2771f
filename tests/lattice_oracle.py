"""Slow, independent references for the band algebra, the determinant and dominance.

``BandMatrix`` is the algebra of N-periodic infinite band matrices (product,
transpose, commutator, upper and lower parts, trace per period); the literal
trace formula of the first bracket (``tests/poisson_oracle.py``) runs on it.
``band_product`` multiplies the tridiagonal factors (``x_band``) directly,
which the block row reduction must reproduce level by level;
``det_permutation`` sums over all permutations, which the memoized minor
expansion must match; ``w_matrix`` is the NM x NM spectral matrix, whose
determinant must equal the wrapped band's up to sign.  Both the product and
the permutation sum are only fit for small sizes.

``dominance_rank`` is the exact rank of the differential of one reduction
step at a point: full rank at ``dominance_point_special`` is the dominance of
the reduction.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Mapping, Sequence

from dkp.lattice import Matrix, abstract_level, reduce_step
from dkp.symalg import ALPHA, BETA, ExactPoly, Gen, gen_A, gen_B, gen_c
from dkp.torus import _require_torus


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

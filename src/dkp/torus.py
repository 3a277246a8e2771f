"""Sign tables on the discrete torus Z/N x Z/M.

The whole hierarchy is steered by a handful of {-1,0,1}-valued functions
(kappa, rho, phi and the two-parameter family zeta^{x,y}) that are pinned
down by difference conditions along the (-1,+1) direction.  Because
gcd(N,M)=1 that direction generates a single orbit through all N*M points,
so each table is determined by a walk plus a handful of exceptional jumps.
The builders here walk trails; ``tests/torus_oracle.py`` solves the
difference conditions themselves, and the tests require the two to agree.

Indexing: every torus point is stored canonically as (n mod N, m mod M)
with 0 <= n < N, 0 <= m < M.  This module is the only conversion layer;
callers may pass arbitrary integers.

This module also owns the torus validator, ``_require_torus``, that lattice,
curve, poisson, flows, pipes and cli import.  The sign tables are immutable, so
their builders are cached: each table is built once per argument set per
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


Point = tuple[int, int]


def _require_torus(N: int, M: int) -> None:
    if N < 1 or M < 1:
        raise ValueError(f"torus dimensions must be positive, got ({N}, {M})")
    g = math.gcd(N, M)
    if g != 1:
        raise ValueError(
            f"torus dimensions must be coprime, got ({N}, {M}): gcd({N}, {M}) = {g}"
        )


@dataclass(frozen=True)
class SignFunction:
    """A function Z/N x Z/M -> small integers, stored as a dense table.

    Values are indexed as ``values[m][n]`` (row per second coordinate).
    """

    N: int
    M: int
    values: tuple[tuple[int, ...], ...]

    def __call__(self, n: int, m: int) -> int:
        return self.values[m % self.M][n % self.N]

    @classmethod
    def from_table(cls, N: int, M: int, table: dict[Point, int]) -> "SignFunction":
        values = tuple(tuple(table.get((n, m), 0) for n in range(N)) for m in range(M))
        return cls(N=N, M=M, values=values)


def euclid_parity(N: int, M: int) -> int:
    """Which construction case kappa falls into: 1 or 2.

    Walk (-1,1), (-2,2), ... and return 1 iff (1,0) strictly precedes
    (-1,0).  When the two targets coincide (N <= 2) the tie resolves to
    case 2.  Empirically this matches the parity of the division-step count
    of the Euclidean algorithm on (N, M) for all N >= 2, which the tests
    check against ``euclid_step_count`` in ``tests/torus_oracle.py``.
    """
    _require_torus(N, M)
    t_pos = t_neg = None
    for t in range(1, N * M + 1):
        p = ((-t) % N, t % M)
        if t_pos is None and p == (1 % N, 0):
            t_pos = t
        if t_neg is None and p == ((-1) % N, 0):
            t_neg = t
    assert t_pos is not None and t_neg is not None
    return 1 if t_pos < t_neg else 2


@lru_cache(maxsize=None)
def build_kappa(N: int, M: int) -> SignFunction:
    """Constructive kappa: two +-1 trails along the (-1,+1)-orbit.

    Case 1 ((1,0) first): kappa = -1 from (-1,1) through (1,0) and +1 on the
    negated trail through (-1,0).  Case 2: the -1 trail runs through (0,-1)
    and the +1 trail through (0,1).  Degenerate axes (N==1 or M==1) collapse
    every condition pairwise and leave the zero table.
    """
    _require_torus(N, M)
    if N == 1 or M == 1:
        return SignFunction.from_table(N, M, {})
    case = euclid_parity(N, M)
    end = (1 % N, 0) if case == 1 else (0, (-1) % M)
    table: dict[Point, int] = {}
    t = 0
    p = (0, 0)
    while True:
        t += 1
        p = ((-t) % N, t % M)
        table[p] = -1
        table[((-p[0]) % N, (-p[1]) % M)] = 1
        if p == end:
            break
        if t > N * M:
            raise RuntimeError("kappa trail failed to terminate")
    return SignFunction.from_table(N, M, table)


@lru_cache(maxsize=None)
def build_rho(N: int, M: int) -> SignFunction:
    """rho(n,m) = kappa(n+1,m) + kappa(n,m) + delta_{(0,0)} - delta_{(-1,0)}."""
    _require_torus(N, M)
    k = build_kappa(N, M)
    table: dict[Point, int] = {}
    for m in range(M):
        for n in range(N):
            v = k(n + 1, m) + k(n, m)
            if (n, m) == (0, 0):
                v += 1
            if (n, m) == ((-1) % N, 0):
                v -= 1
            table[(n, m)] = v
    return SignFunction.from_table(N, M, table)


@lru_cache(maxsize=None)
def build_phi(N: int, M: int) -> SignFunction:
    """phi(n,m) = -rho(-n-1,-m) - rho(-n,-m)."""
    _require_torus(N, M)
    r = build_rho(N, M)
    table = {
        (n, m): -r(-n - 1, -m) - r(-n, -m)
        for m in range(M)
        for n in range(N)
    }
    return SignFunction.from_table(N, M, table)


def _zeta_le(N: int, M: int, x: int, y: int, k: SignFunction) -> dict[Point, int]:
    # zeta^{x,y}, x <= y, from the defining sum formula:
    #   zeta^{0,y}(n,m) = kappa(n+y,m) + ... + kappa(n,m)
    #   zeta^{x,y}(n,m) = sum_{t=0..x} zeta^{0,y}(n-t,m)
    #                     + sum_{s=1..x} delta_{(s,0)} - sum_{s=0..x-1} delta_{(-y+s,0)}
    table: dict[Point, int] = {}
    for m in range(M):
        for n in range(N):
            v = 0
            for t in range(x + 1):
                for u in range(y + 1):
                    v += k(n - t + u, m)
            table[(n, m)] = v
    for s in range(1, x + 1):
        p = (s % N, 0)
        table[p] = table.get(p, 0) + 1
    for s in range(x):
        p = ((-y + s) % N, 0)
        table[p] = table.get(p, 0) - 1
    return table


@lru_cache(maxsize=None)
def build_zeta(N: int, M: int, x: int, y: int) -> SignFunction:
    """zeta^{x,y} for x, y >= 0; x > y is defined by zeta^{x,y}(n,m) = -zeta^{y,x}(-n,-m)."""
    _require_torus(N, M)
    if x < 0 or y < 0:
        raise ValueError(f"zeta parameters must be nonnegative, got ({x}, {y})")
    k = build_kappa(N, M)
    if x <= y:
        table = _zeta_le(N, M, x, y, k)
    else:
        base = _zeta_le(N, M, y, x, k)
        table = {
            (n, m): -base[((-n) % N, (-m) % M)]
            for m in range(M)
            for n in range(N)
        }
    return SignFunction.from_table(N, M, table)


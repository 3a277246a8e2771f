"""Sign tables on the discrete torus Z/N x Z/M.

The whole hierarchy is steered by a handful of {-1,0,1}-valued functions
(kappa, rho, phi and the two-parameter family zeta^{x,y}) that are pinned
down by difference conditions along the (-1,+1) direction.  Because
gcd(N,M)=1 that direction generates a single orbit through all N*M points,
so each table is determined by a walk plus a handful of exceptional jumps.

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

    def is_signlike(self) -> bool:
        """True when every value lies in {-1, 0, 1}."""
        return all(v in (-1, 0, 1) for row in self.values for v in row)

    def nonzero(self) -> list[tuple[Point, int]]:
        return [
            ((n, m), v)
            for m, row in enumerate(self.values)
            for n, v in enumerate(row)
            if v != 0
        ]

    @classmethod
    def from_table(cls, N: int, M: int, table: dict[Point, int]) -> "SignFunction":
        values = tuple(tuple(table.get((n, m), 0) for n in range(N)) for m in range(M))
        return cls(N=N, M=M, values=values)


@dataclass(frozen=True)
class DifferenceSpec:
    """Difference conditions f(i-1, j+1) - f(i, j) = d along the (-1,+1) step.

    ``jumps`` maps a source point (i, j) to the required difference d; every
    step of the orbit not listed has difference 0.  Distinct textbook
    conditions that land on the same canonical source point must be summed
    (that is the degenerate-torus rule); :func:`solve_difference_spec` does
    this when handed a list of (source, diff) pairs.

    ``pin`` optionally fixes the value at one point; it is consulted only
    when the range constraint values in {-1,0,1} leaves more than one
    vertical shift possible.
    """

    N: int
    M: int
    jumps: tuple[tuple[Point, int], ...]
    pin: tuple[Point, int] | None = None


def solve_difference_spec(spec: DifferenceSpec) -> SignFunction:
    """Independent oracle: solve a difference spec by walking the orbit.

    Accumulates relative values along the (-1,+1)-orbit starting at (0,0),
    checks that the differences close up around the full cycle, then shifts
    so that all values lie in {-1,0,1}.  Raises ValueError on inconsistent
    or unsolvable specs, and on ambiguous shifts not resolved by ``pin``.
    """
    N, M = spec.N, spec.M
    _require_torus(N, M)
    combined: dict[Point, int] = {}
    for (i, j), d in spec.jumps:
        p = (i % N, j % M)
        combined[p] = combined.get(p, 0) + d

    rel: dict[Point, int] = {(0, 0): 0}
    p = (0, 0)
    acc = 0
    for _ in range(N * M):
        step = combined.get(p, 0)
        q = ((p[0] - 1) % N, (p[1] + 1) % M)
        acc += step
        if q == (0, 0):
            if acc != 0:
                raise ValueError(f"difference spec does not close up: net {acc}")
            break
        rel[q] = acc
        p = q
    lo, hi = min(rel.values()), max(rel.values())
    shifts = [s for s in range(-1 - lo, 2 - hi) if -1 - lo <= s <= 1 - hi]
    if not shifts:
        raise ValueError("difference spec has no {-1,0,1}-valued solution")
    if len(shifts) > 1:
        if spec.pin is None:
            raise ValueError("difference spec is ambiguous and has no pin")
        (pn, pm), pv = spec.pin
        shifts = [s for s in shifts if rel[(pn % N, pm % M)] + s == pv]
        if len(shifts) != 1:
            raise ValueError("pin does not select a unique shift")
    s = shifts[0]
    table = {pt: v + s for pt, v in rel.items()}
    return SignFunction.from_table(N, M, table)


def kappa_difference_spec(N: int, M: int) -> DifferenceSpec:
    """The four exceptional jumps defining kappa, plus the kappa(0,0)=0 pin."""
    return DifferenceSpec(
        N=N,
        M=M,
        jumps=(
            ((1, -1), -1),
            ((1, 0), 1),
            ((0, -1), 1),
            ((0, 0), -1),
        ),
        pin=((0, 0), 0),
    )


def rho_difference_spec(N: int, M: int) -> DifferenceSpec:
    """The four exceptional jumps defining rho.

    For N >= 2 the solution range spans width 2 and the shift is forced; at
    N == 1 every condition cancels against its (+1,0)-translate and the pin
    selects the zero table, matching the closed formula.
    """
    return DifferenceSpec(
        N=N,
        M=M,
        jumps=(
            ((-1, -1), 1),
            ((1, 0), 1),
            ((0, -1), -1),
            ((0, 0), -1),
        ),
        pin=((0, 0), 0),
    )


def euclid_parity(N: int, M: int) -> int:
    """Which construction case kappa falls into: 1 or 2.

    Walk (-1,1), (-2,2), ... and return 1 iff (1,0) strictly precedes
    (-1,0).  When the two targets coincide (N <= 2) the tie resolves to
    case 2.  Empirically this matches the parity of the division-step count
    of the Euclidean algorithm on (N, M) for all N >= 2; see
    :func:`euclid_step_count`.
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


def euclid_step_count(N: int, M: int) -> int:
    """Number of division steps the Euclidean algorithm takes on (N, M)."""
    a, b = N, M
    steps = 0
    while b:
        a, b = b, a % b
        steps += 1
    return steps


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


def zeta_row_slice(N: int, M: int, x: int) -> list[int]:
    """The m=0 slice of zeta^{x-1, M-1}, which controls cross-band coupling.

    For x >= M the slice vanishes identically; for x < M it equals
    delta_{n, -M+x} - delta_{n, 0} (so it degenerates to zero when N
    divides M - x).
    """
    z = build_zeta(N, M, x - 1, M - 1)
    return [z(n, 0) for n in range(N)]

"""Numeric hierarchy flows and conservation-drift monitoring.

Flows run on double-precision A, B states held as Python floats.  The
conserved quantities come from the band curve, never from the A,B
determinant: the block row reduction x -> c(x) to the level-1 band entries
is a ring homomorphism, so each A,B ledger entry q_d is the band ledger
entry Q_d with c replaced by c(x).  Two independent right-side routes exist:
the first flow evaluated directly from the sign-table evolution equations,
and any ledger flow d obtained by pulling Q_d back exactly to A, B
(``poisson.pullback``), taking its gradient once, and reading its
Hamiltonian field {g, q_d}_2 at every one of the 2NM generators g
(``BracketTable._field_into``), compiled once per (N, M, d) into one
evaluator (for d = 1 the two routes agree to machine precision, which the
tests pin).  Integration is fixed-step classical RK4 for reproducible drift
numbers; the whole ledger is evaluated per step as two compiled evaluators,
state -> c(x) -> Q(c(x)), and each quantity's maximal relative drift
reported.

The evaluators are straight-line Python code, generated once per polynomial
list.  A state has only 2NM entries, and on a short flow importing numpy
(about 0.19 s) costs more than the arithmetic it would speed up; per step,
Python floats cost a few times what numpy arrays do, so a long flow on a
large torus is the slower for it.  The order of operations is what keeps
the report bytes fixed: each term is its coefficient times its factors,
multiplied left to right, each polynomial is summed from 0.0 in the order of
its rows, and RK4 combines the stages elementwise in numpy's order.  The
seeded initial state comes from a port of numpy's ``SeedSequence``, PCG64
generator and ``uniform``, so it is the one ``default_rng(seed)`` draws, bit
for bit.  Only ``flow_rhs`` imports numpy, to hand the benchmark's gate and
the tests an array; no command calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from dkp.curve import band_curve
from dkp.lattice import level_entries
from dkp.poisson import ab_generators, bracket2_AB, pullback
from dkp.symalg import ExactPoly, Gen
from dkp.torus import _require_torus, build_kappa, build_rho

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# [low, high) of every entry of a seeded initial state
_STATE_RANGE = (0.5, 1.5)
# the most RK4 steps one run may take: hours of work at 0.15 ms per (4,3) step
_MAX_STEPS = 10**8


def _seed_sequence(seed: int) -> tuple[int, int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)`` as PCG64 reads
    it: the 128-bit initial state (words 0, 1) and stream (words 2, 3)."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    entropy = []
    while True:  # 32-bit words, least significant first; 0 is one word
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    # pairs of 32-bit words, low word first, make the 64-bit words
    w = [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _uniform(seed: int, count: int) -> list[float]:
    """``np.random.default_rng(seed).uniform(*_STATE_RANGE, count)``, bit for
    bit: PCG64 (128-bit LCG, XSL-RR output) and numpy's 53-bit doubles."""
    initial, stream = _seed_sequence(seed)
    inc = (stream << 1 | 1) & _MASK128
    # seeding: one step from state 0 (which lands on inc), add initial, step
    state = ((inc + initial) * _PCG64_MULTIPLIER + inc) & _MASK128
    low, high = _STATE_RANGE
    width, out = high - low, []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        word, rot = (state >> 64) ^ (state & _MASK64), state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        out.append(low + width * ((word >> 11) * (1.0 / 9007199254740992.0)))
    return out


def _rows(values, N: int, M: int) -> list[list[float]]:
    """values (M rows of N numbers) as lists of floats."""
    rows = [[float(v) for v in row] for row in values]
    if [len(row) for row in rows] != [N] * M:
        raise ValueError(f"A and B must each be {M} rows of {N} numbers")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("state entries must be finite")
    return rows


@dataclass
class KPStateNumeric:
    """Double-precision phase-space point: A[m][n], B[m][n] as M rows of N
    floats, and time t."""

    N: int
    M: int
    A: list[list[float]]
    B: list[list[float]]
    t: float = 0.0

    def __post_init__(self):
        self.A = _rows(self.A, self.N, self.M)
        self.B = _rows(self.B, self.N, self.M)

    @classmethod
    def random(cls, N: int, M: int, seed: int):
        """A and then B uniform in [0.5, 1.5): the state
        ``np.random.default_rng(seed).uniform(0.5, 1.5, (M, N))`` draws."""
        _require_torus(N, M)
        return cls.from_flat(N, M, _uniform(seed, 2 * N * M))

    def flat(self) -> list[float]:
        return [v for rows in (self.A, self.B) for row in rows for v in row]

    @classmethod
    def from_flat(cls, N: int, M: int, flat, t: float = 0.0):
        rows = [flat[i : i + N] for i in range(0, 2 * N * M, N)]
        return cls(N, M, rows[:M], rows[M:], t)

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "M": self.M,
            "t": self.t,
            "A": [list(row) for row in self.A],
            "B": [list(row) for row in self.B],
        }


def state_index(N: int, M: int) -> dict[Gen, int]:
    """Generator -> position in the flattened state vector: A(n, m) at
    m*N + n, B(n, m) at N*M + m*N + n, the ``ab_generators`` order."""
    return {g: i for i, g in enumerate(ab_generators(N, M))}


# Terms per statement of a generated sum: CPython compiles a long chain of
# additions recursively, and a single sum of a few thousand terms overflows
# its recursion limit.
_TERMS_PER_LINE = 100


class CompiledPoly:
    """Evaluation of a list of polynomials on flat states, compiled once.

    A row is one monomial: its run of factors, each an index into the flat
    state (g**k is k factors g), its polynomial and its coefficient.  The
    rows are kept widest first (a stable sort), and compiled into one
    straight-line function that multiplies each term out left to right
    from its coefficient and sums each polynomial from 0.0 in row order.
    A call takes a sequence of the state's floats and returns a list of
    floats, one per polynomial; a polynomial with no terms comes out as 0.0.
    """

    __slots__ = ("rows", "_fn")

    def __init__(self, polys: list[ExactPoly], index: dict[Gen, int]):
        rows = [
            (tuple(index[g] for g, k in mono for _ in range(k)), i, float(q))
            for i, poly in enumerate(polys)
            for mono, q in poly.terms.items()
        ]
        rows.sort(key=lambda row: -len(row[0]))
        self.rows = rows
        self._fn = _compile(rows, len(polys), len(index))

    def __call__(self, flat) -> list[float]:
        return self._fn(flat)


def _compile(rows, count: int, size: int):
    """The function of a flat state of `size` floats that `rows` describe.

    A coefficient of magnitude 1 is left out of its product and a negative
    one becomes a subtraction: (-c*x)*y is -(c*x*y) and s + -p is s - p,
    exactly, so the values are those of the full products.
    """
    terms: list[list[str]] = [[] for _ in range(count)]
    for factors, owner, q in rows:
        c = abs(q)
        product = [repr(c)] if c != 1.0 or not factors else []
        product += [f"x{i}" for i in factors]
        terms[owner].append(("- " if math.copysign(1.0, q) < 0 else "+ ") + "*".join(product))
    lines = ["def compiled(x):", "    " + "".join(f"x{i}, " for i in range(size)) + "= x"]
    for i, line in enumerate(terms):
        for j in range(0, len(line), _TERMS_PER_LINE):
            start = "0.0" if j == 0 else f"s{i}"
            lines.append(f"    s{i} = {start} " + " ".join(line[j : j + _TERMS_PER_LINE]))
    lines.append("    return [" + ", ".join(f"s{i}" if t else "0.0" for i, t in enumerate(terms)) + "]")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<CompiledPoly>", "exec"), namespace)
    return namespace["compiled"]


@lru_cache(maxsize=None)
def _compiled_ledger(N: int, M: int):
    """Flat state -> every ledger quantity, in the order of ``curve.degrees()``.

    Two compiled evaluations: the state to the level-1 band entries c(x),
    then the band ledger at c(x).
    """
    band = level_entries(N, M, 1)
    entries = CompiledPoly(list(band.values()), state_index(N, M))
    curve = band_curve(N, M)
    ledger = CompiledPoly(
        [curve.q(d) for d in curve.degrees()], {g: i for i, g in enumerate(band)}
    )
    return lambda flat: ledger(entries(flat))


@lru_cache(maxsize=None)
def _compiled_flow(N: int, M: int, degree: int) -> CompiledPoly:
    """Compiled dg/dt = {g, q_degree}_2 for every generator g, state order.

    q_degree is the band ledger entry pulled back exactly to A, B through
    the level-1 entries; its gradient is taken once, and row g is the
    Hamiltonian field of q_degree at g.
    """
    curve = band_curve(N, M)
    if degree not in curve.ledger:
        raise ValueError(
            f"degree {degree} is not in the ({N},{M}) ledger {curve.degrees()}"
        )
    table = bracket2_AB(N, M)
    dq = table._gradient(table.unpack(pullback(table, level_entries(N, M, 1))(curve.q(degree))))
    # the table numbers ab_generators, the state order
    rows = [table.unpack(table._field(dq, a)) for a in range(len(table.universe))]
    return CompiledPoly(rows, state_index(N, M))


def _first_flow(N: int, M: int, flat) -> list[float]:
    """The first flow, straight from the evolution equations (no bracket):
    dA(n,m) = B(n,m) - B(n+1,m) + (sum_{k,l} kappa(k-n, l-m) A(k,l)) A(n,m)
    dB(n,m) = (sum_{k,l} rho(k-n, l-m) A(k,l)) B(n,m)
    """
    kappa, rho = build_kappa(N, M).values, build_rho(N, M).values
    A, B = flat[: N * M], flat[N * M :]
    dA, dB = [], []
    for m in range(M):
        for n in range(N):
            ka = ra = 0.0
            for l in range(M):
                for k in range(N):
                    ka += kappa[(l - m) % M][(k - n) % N] * A[l * N + k]
                    ra += rho[(l - m) % M][(k - n) % N] * A[l * N + k]
            s = m * N + n
            dA.append(B[s] - B[m * N + (n + 1) % N] + ka * A[s])
            dB.append(ra * B[s])
    return dA + dB


def _rhs_fn(N: int, M: int, flow):
    """Flat-state tangent evaluator for "first" or a ledger degree: a list
    of floats in, a list of floats out."""
    if flow == "first":
        return lambda flat: _first_flow(N, M, flat)
    return _compiled_flow(N, M, int(flow))


def flow_rhs(degree, state: KPStateNumeric):
    """Tangent vector of flow `degree` ("first" or a ledger degree) at
    state, as a numpy array.  It needs numpy, and exists for the benchmark's
    gate and the tests; ``integrate`` calls ``_rhs_fn`` instead."""
    import numpy as np

    _require_torus(state.N, state.M)
    return np.asarray(_rhs_fn(state.N, state.M, degree)(state.flat()))


@dataclass
class IntegrationResult:
    """An RK4 run up to its last finite state.

    ``blowup`` is None for a run that completed, else ``{step, t,
    max_abs_state}``: the step and time at which the state became
    non-finite, and the largest magnitude in the last finite state.
    """

    state: KPStateNumeric
    steps: int
    dt: float
    q_initial: dict[int, float]
    q_final: dict[int, float]
    drift: dict[int, float]
    trajectory: list[dict] = field(default_factory=list)
    blowup: dict | None = None

    @property
    def max_drift(self) -> float:
        return max(self.drift.values()) if self.drift else 0.0


def integrate(
    state: KPStateNumeric,
    flow,
    dt: float,
    T: float,
    record_every: int | None = None,
) -> IntegrationResult:
    """Fixed-step RK4 with per-step evaluation of every ledger quantity.

    `flow` is "first" or a ledger degree.  A non-finite step ends the run
    with ``blowup`` set; T / dt off a whole step count (1e-9 relative) or
    over ``_MAX_STEPS`` raises ValueError.  Relative drift of q_d uses
    |q_d(0)| as the scale (floored at 1e-12).  The arithmetic is
    elementwise, in the order numpy's array expressions ``x + (0.5*dt)*k``
    and ``x + (dt/6.0)*(k1 + 2*k2 + 2*k3 + k4)`` take it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if not math.isfinite(T / dt):
        raise ValueError(f"T / dt must be a finite step count, got {T / dt}")
    steps = round(T / dt)
    if steps > _MAX_STEPS:
        raise ValueError(f"T / dt must be at most {_MAX_STEPS:,} steps, got {T / dt:.3g}")
    if abs(T / dt - steps) > 1e-9 * max(1, steps):
        raise ValueError(f"T / dt must be a whole number of steps, got {T / dt:.9g}")
    N, M = state.N, state.M
    degrees = band_curve(N, M).degrees()
    ledger = _compiled_ledger(N, M)
    rhs = _rhs_fn(N, M, flow)
    flat = state.flat()
    q0 = ledger(flat)
    drift = [0.0] * len(q0)
    scale = [max(abs(q), 1e-12) for q in q0]
    half, sixth = 0.5 * dt, dt / 6.0
    trajectory: list[dict] = []

    def snap(i: int, f: list[float]):
        trajectory.append(
            {"t": state.t + i * dt, "state": KPStateNumeric.from_flat(N, M, f).to_jsonable()}
        )

    def by_degree(values: list[float]) -> dict[int, float]:
        return dict(zip(degrees, values))

    def result(done: int, blowup: dict | None = None) -> IntegrationResult:
        final = KPStateNumeric.from_flat(N, M, flat, state.t + done * dt)
        qf = ledger(flat)
        return IntegrationResult(
            final, done, dt, by_degree(q0), by_degree(qf), by_degree(drift), trajectory, blowup
        )

    if record_every:
        snap(0, flat)
    for i in range(1, steps + 1):
        k1 = rhs(flat)
        k2 = rhs([x + half * k for x, k in zip(flat, k1)])
        k3 = rhs([x + half * k for x, k in zip(flat, k2)])
        k4 = rhs([x + dt * k for x, k in zip(flat, k3)])
        step = [
            x + sixth * (a + 2.0 * b + 2.0 * c + d)
            for x, a, b, c, d in zip(flat, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, step)):
            blowup = {"step": i, "t": state.t + i * dt, "max_abs_state": max(map(abs, flat))}
            return result(i - 1, blowup)
        flat = step
        for j, q in enumerate(ledger(flat)):
            change = abs(q - q0[j]) / scale[j]
            if change > drift[j]:  # never for a NaN: the drift so far stays, as np.fmax keeps it
                drift[j] = change
        if record_every and (i % record_every == 0 or i == steps):
            snap(i, flat)
    return result(steps)

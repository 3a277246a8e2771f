"""Numeric hierarchy flows and conservation-drift monitoring.

Flows run on double-precision A, B arrays.  The conserved quantities come
from the band curve, never from the A,B determinant: the block row
reduction x -> c(x) to the level-1 band entries is a ring homomorphism, so
each A,B ledger entry q_d is the band ledger entry Q_d with c replaced by
c(x).  Two independent right-side routes exist: the first flow evaluated
directly from the sign-table evolution equations, and any ledger flow d
obtained by pulling Q_d back exactly to A, B (``poisson.pullback``),
taking its gradient once, and reading its Hamiltonian field {g, q_d}_2 at
every one of the 2NM generators g (``BracketTable._field_into``), compiled
once per (N, M, d) into one stacked factor table (for d = 1 the two routes
agree to machine precision, which the tests pin).  Integration is
fixed-step classical RK4 for reproducible drift numbers; the whole ledger is
evaluated per step as two stacked tables, state -> c(x) -> Q(c(x)), and each
quantity's maximal relative drift reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from dkp.curve import band_curve
from dkp.lattice import level_entries
from dkp.poisson import ab_generators, bracket2_AB, pullback
from dkp.symalg import ExactPoly, Gen
from dkp.torus import _require_torus, build_kappa, build_rho


@dataclass
class KPStateNumeric:
    """Double-precision phase-space point: A[m][n], B[m][n], time t."""

    N: int
    M: int
    A: np.ndarray
    B: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(self.M, self.N)
        self.B = np.asarray(self.B, dtype=float).reshape(self.M, self.N)
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ValueError("state entries must be finite")

    @classmethod
    def random(cls, N: int, M: int, seed: int, low: float = 0.5, high: float = 1.5):
        _require_torus(N, M)
        rng = np.random.default_rng(seed)
        return cls(
            N, M, rng.uniform(low, high, (M, N)), rng.uniform(low, high, (M, N))
        )

    @classmethod
    def zero(cls, N: int, M: int):
        _require_torus(N, M)
        return cls(N, M, np.zeros((M, N)), np.zeros((M, N)))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.A.ravel(), self.B.ravel()])

    @classmethod
    def from_flat(cls, N: int, M: int, flat: np.ndarray, t: float = 0.0):
        return cls(N, M, flat[: N * M], flat[N * M :], t)

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "M": self.M,
            "t": self.t,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
        }


def state_index(N: int, M: int) -> dict[Gen, int]:
    """Generator -> position in the flattened state vector: A(n, m) at
    m*N + n, B(n, m) at N*M + m*N + n, the ``ab_generators`` order."""
    return {g: i for i, g in enumerate(ab_generators(N, M))}


class CompiledPoly:
    """Stacked evaluation of a list of polynomials on flat states.

    A monomial is its run of factors, each an index into the flat state
    (g**k is k factors g).  The monomials are stored widest first, so factor
    j of every monomial with more than j factors is the prefix column
    ``columns[j]``.  A call starts from the coefficients, multiplies the
    columns in, and sums each monomial into its polynomial (``owner``); a
    polynomial with no terms comes out as 0.
    """

    __slots__ = ("columns", "owner", "coeffs", "count")

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

    def __call__(self, flat: np.ndarray) -> np.ndarray:
        terms = self.coeffs.copy()
        for column in self.columns:
            terms[: len(column)] *= flat.take(column)
        sums = np.bincount(self.owner, terms, minlength=self.count)
        return sums.astype(float, copy=False)  # bincount of no weights is int64


@lru_cache(maxsize=None)
def _compiled_ledger(N: int, M: int):
    """Flat state -> every ledger quantity, in the order of ``curve.degrees()``.

    Two stacked evaluations: the state to the level-1 band entries c(x),
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


@lru_cache(maxsize=None)
def _first_flow_tables(N: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The kappa and rho circulants over the flat index m*N + n.

    Entry [s, t] is kappa (rho) at the torus offset from site s to site t.
    """
    site = np.arange(N * M)
    dn = (site[None, :] % N - site[:, None] % N) % N
    dm = (site[None, :] // N - site[:, None] // N) % M
    kt = np.array(build_kappa(N, M).values, dtype=float)
    rt = np.array(build_rho(N, M).values, dtype=float)
    return kt[dm, dn], rt[dm, dn]


def _first_flow_flat(N: int, M: int, flat: np.ndarray) -> np.ndarray:
    """The first flow, straight from the evolution equations (no bracket):
    dA(n,m) = B(n,m) - B(n+1,m) + (sum_{k,l} kappa(k-n, l-m) A(k,l)) A(n,m)
    dB(n,m) = (sum_{k,l} rho(k-n, l-m) A(k,l)) B(n,m)
    """
    A, B = flat[: N * M], flat[N * M :]
    K, R = _first_flow_tables(N, M)
    B_next = np.roll(B.reshape(M, N), -1, axis=1).ravel()
    return np.concatenate([B - B_next + (K @ A) * A, (R @ A) * B])


def _rhs_fn(N: int, M: int, flow):
    """Flat-array tangent evaluator for "first" or a ledger degree."""
    if flow == "first":
        return lambda flat: _first_flow_flat(N, M, flat)
    return _compiled_flow(N, M, int(flow))


def flow_rhs(degree, state: KPStateNumeric) -> np.ndarray:
    """Tangent vector of flow `degree` ("first" or a ledger degree) at state."""
    _require_torus(state.N, state.M)
    return _rhs_fn(state.N, state.M, degree)(state.flat())


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


class FlowBlowup(FloatingPointError):
    """The state became non-finite; ``result`` is the run before that step."""

    def __init__(self, result: IntegrationResult):
        super().__init__(f"state became non-finite at step {result.blowup['step']}")
        self.result = result


@np.errstate(over="ignore", invalid="ignore")
def integrate(
    state: KPStateNumeric,
    flow,
    dt: float,
    T: float,
    record_every: int | None = None,
) -> IntegrationResult:
    """Fixed-step RK4 with per-step evaluation of every ledger quantity.

    `flow` is "first" or a ledger degree.  Raises FlowBlowup, without numpy
    warnings, when a step leaves the finite range.  Relative drift of q_d
    uses |q_d(0)| as the scale (floored at 1e-12).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    N, M = state.N, state.M
    degrees = band_curve(N, M).degrees()
    ledger = _compiled_ledger(N, M)
    rhs = _rhs_fn(N, M, flow)
    flat = state.flat()
    q0 = ledger(flat)
    drift = np.zeros_like(q0)
    scale = np.maximum(np.abs(q0), 1e-12)
    steps = int(round(T / dt))
    trajectory: list[dict] = []

    def snap(i: int, f: np.ndarray):
        trajectory.append(
            {"t": state.t + i * dt, "state": KPStateNumeric.from_flat(N, M, f).to_jsonable()}
        )

    def by_degree(values: np.ndarray) -> dict[int, float]:
        return dict(zip(degrees, values.tolist()))

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
        k2 = rhs(flat + 0.5 * dt * k1)
        k3 = rhs(flat + 0.5 * dt * k2)
        k4 = rhs(flat + dt * k3)
        step = flat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(step)):
            blowup = {"step": i, "t": state.t + i * dt, "max_abs_state": float(np.max(np.abs(flat)))}
            raise FlowBlowup(result(i - 1, blowup))
        flat = step
        # fmax, not maximum: a NaN value leaves the drift so far in place
        drift = np.fmax(drift, np.abs(ledger(flat) - q0) / scale)
        if record_every and (i % record_every == 0 or i == steps):
            snap(i, flat)
    return result(steps)

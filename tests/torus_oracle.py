"""An independent route to the sign tables: solve their difference conditions.

``dkp.torus`` builds kappa and rho constructively, from two trails along the
(-1,+1)-orbit.  ``solve_difference_spec`` instead accumulates the defining
difference conditions around that orbit and shifts the result into
{-1, 0, 1}; the tests require both routes to give the same table.  The
helpers ``is_signlike`` and ``nonzero`` read a ``SignFunction``'s values.
"""

from __future__ import annotations

from dataclasses import dataclass

from dkp.torus import Point, SignFunction, _require_torus


def is_signlike(f: SignFunction) -> bool:
    """True when every value lies in {-1, 0, 1}."""
    return all(v in (-1, 0, 1) for row in f.values for v in row)


def nonzero(f: SignFunction) -> list[tuple[Point, int]]:
    """The ((n, m), value) pairs of the nonzero values."""
    return [((n, m), v) for m, row in enumerate(f.values) for n, v in enumerate(row) if v != 0]


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
    """Solve a difference spec by walking the orbit.

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


def euclid_step_count(N: int, M: int) -> int:
    """Number of division steps the Euclidean algorithm takes on (N, M)."""
    a, b = N, M
    steps = 0
    while b:
        a, b = b, a % b
        steps += 1
    return steps

"""The intersection pairing of two pipe diagrams, one pair at a time.

``dkp.pipes`` checks the pairing on packed rows over all diagram pairs at
once; ``pairing_routes`` computes one entry by both formulas of its module
docstring, and ``pairing`` cross-checks them.  ``decomposition_partners``
lists the other pairs with the same product, and ``bracket_b0_check``
verifies the claim behind the pairing: at B = 0 the second bracket of two
diagram monomials is the pairing times their product.

kappa is looked up in ``dkp.pipes`` at call time, so a test that swaps a
kappa table in runs the library and these references on the same table.
"""

from __future__ import annotations

from fractions import Fraction

from dkp import pipes
from dkp.pipes import PipeDiagram, _code, _same_torus, enumerate_tpds
from dkp.poisson import bracket2_AB
from dkp.symalg import ExactPoly, Gen, gen_A, gen_B
from dkp.torus import _require_torus
from poisson_oracle import bracket_extend


def _b_zero(N: int, M: int) -> dict[Gen, int]:
    """The substitution B = 0 on every site of the torus."""
    return {gen_B(n, m): 0 for n in range(N) for m in range(M)}


def monomial(d: PipeDiagram) -> ExactPoly:
    """The product of A-variables over the horizontal sites."""
    poly = ExactPoly.const(1)
    for n, m in sorted(d.horizontal):
        poly = poly * ExactPoly.var(gen_A(n, m))
    return poly


def pairing_routes(d1: PipeDiagram, d2: PipeDiagram) -> tuple[int, int]:
    """The intersection pairing by both formulas: (knee count, kappa sum).

    Knee route: left-down knees of d1 on horizontal sites of d2 count +1,
    up-right knees of d1 on horizontal sites of d2 count -1.
    """
    _same_torus(d1, d2)
    knee = sum(1 for s in d2.horizontal if s in d1.left_down) - sum(
        1 for s in d2.horizontal if s in d1.up_right
    )
    kappa = pipes.build_kappa(d1.N, d1.M)
    kappa_sum = sum(kappa(n - i, m - j) for n, m in d1.horizontal for i, j in d2.horizontal)
    return knee, kappa_sum


def pairing(d1: PipeDiagram, d2: PipeDiagram) -> int:
    """The intersection pairing <d1, d2>, cross-checked between both routes."""
    knee, kappa_sum = pairing_routes(d1, d2)
    if knee != kappa_sum:
        raise RuntimeError(
            f"pairing routes disagree: knee count {knee}, kappa sum {kappa_sum}"
        )
    return knee


def decomposition_partners(
    d1: PipeDiagram, d2: PipeDiagram
) -> list[tuple[PipeDiagram, PipeDiagram]]:
    """All other ordered pairs with the same degrees and the same product."""
    _same_torus(d1, d2)
    diags2 = enumerate_tpds(d2.N, d2.M, d2.degree)
    own = _code(d1) + _code(d2)
    return [
        (a, b)
        for a in enumerate_tpds(d1.N, d1.M, d1.degree)
        for b in diags2
        if _code(a) + _code(b) == own and (a, b) != (d1, d2)
    ]


def bracket_b0_check(
    N: int, M: int, degree1: int, degree2: int, limit: int | None = None
) -> dict:
    """Verify {m1, m2} restricted to B = 0 equals pairing * m1 * m2.

    m1, m2 are the monomials of the diagrams (products of A over horizontal
    sites).  The bracket of two A-products also generates B-terms; they are
    killed by substituting B = 0 after bracketing, and what survives must be
    exactly the intersection pairing times the product monomial.
    """
    _require_torus(N, M)
    table = bracket2_AB(N, M)
    b_zero = _b_zero(N, M)
    diags1 = enumerate_tpds(N, M, degree1)
    diags2 = enumerate_tpds(N, M, degree2)
    pairs = [(d1, d2) for d1 in diags1 for d2 in diags2]
    if limit is not None:
        pairs = pairs[:limit]
    failures = []
    for d1, d2 in pairs:
        m1 = monomial(d1)
        m2 = monomial(d2)
        lhs = bracket_extend(table, m1, m2).substitute(b_zero)
        rhs = m1 * m2 * Fraction(pairing(d1, d2))
        if lhs != rhs:
            failures.append({"d1": d1.site_map(), "d2": d2.site_map()})
    return {
        "N": N,
        "M": M,
        "degrees": [degree1, degree2],
        "pairs": len(pairs),
        "failures": failures,
        "ok": not failures,
    }

"""Checks of the spectral curve that no command runs, and the report reader.

``verify_degree_symmetry`` checks a curve's grading and mirror symmetry slot
by slot, against the degrees the grading allows (``realizable_degrees``);
``band_curve_substituted`` takes a band-mode curve to A, B through the block
row reduction, which must give the AB-mode curve; and ``poly_from_jsonable``
reads back the polynomials a report writes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from dkp.curve import SpectralCurve, slot_degree
from dkp.lattice import level_entries
from dkp.symalg import ExactPoly
from symalg_oracle import degree, is_homogeneous


def poly_from_jsonable(data: Iterable) -> ExactPoly:
    """The inverse of ``ExactPoly.to_jsonable``."""
    return ExactPoly(
        {tuple((tuple(g), e) for g, e in mono): Fraction(num, den) for mono, num, den in data}
    )


def realizable_degrees(N: int, M: int) -> dict[int, tuple[int, int]]:
    """Positive degrees allowed by the grading: d = NM - aN - bM with the
    mirrored slot NM + aN - bM also nonnegative.  Maps degree -> slot."""
    out: dict[int, tuple[int, int]] = {}
    for a in range(-N * M, N * M + 1):
        for b in range(0, N + 1):
            d = slot_degree(N, M, a, b)
            mirror = N * M + a * N - b * M
            if d >= 1 and mirror >= 0:
                if d in out:
                    raise ValueError(
                        f"degree collision at d={d}: slots {out[d]} and {(a, b)}"
                    )
                out[d] = (a, b)
    return out


def verify_degree_symmetry(curve: SpectralCurve) -> dict:
    """Grading and mirror-symmetry report for a computed curve.

    Checks, slot by slot: homogeneity at degree NM - aN - bM (so every
    monomial of the full determinant has total degree NM), the presence
    symmetry between (a, b) and (-a, b), and that realized ledger degrees
    agree with the grading-allowed list.
    """
    N, M = curve.N, curve.M
    homogeneous_ok = True
    for (a, b), p in curve.coefficients.items():
        d = slot_degree(N, M, a, b)
        if p and not (is_homogeneous(p, N, M) and (p.is_constant() or degree(p, N, M) == d)):
            homogeneous_ok = False
        if p and p.is_constant() and d != 0:
            homogeneous_ok = False
    mirror_ok = all(
        ((-a, b) in curve.coefficients) == ((a, b) in curve.coefficients)
        for (a, b) in list(curve.coefficients)
    )
    allowed = realizable_degrees(N, M)
    realized = set(curve.degrees())
    subset_ok = realized <= set(allowed)
    slots_ok = all(
        (curve.ledger[d].alpha_exp, curve.ledger[d].beta_exp) == allowed[d]
        for d in realized
        if d in allowed
    )
    return {
        "homogeneous_ok": homogeneous_ok,
        "mirror_ok": mirror_ok,
        "realized_degrees": sorted(realized),
        "allowed_degrees": sorted(allowed),
        "realized_subset_of_allowed": subset_ok,
        "realized_equals_allowed": realized == set(allowed),
        "slots_match_allowed": slots_ok,
        "all_ok": homogeneous_ok and mirror_ok and subset_ok and slots_ok,
    }


def band_curve_substituted(curve: SpectralCurve) -> dict[tuple[int, int], ExactPoly]:
    """Band-mode coefficients with every c-generator replaced by its A,B polynomial."""
    if curve.mode != "band":
        raise ValueError("substitution applies to a band-mode curve")
    mapping = level_entries(curve.N, curve.M, 1)
    return {ab: p.substitute(mapping) for ab, p in curve.coefficients.items()}

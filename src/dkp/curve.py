"""Spectral curve and the conserved-quantity ledger.

The curve is det(C_alpha - beta I) decomposed into alpha^a beta^b slots,
normalized so the constant slot at (a, b) = (M, 0) equals +1 (for a single
layer this is the classical "+alpha" convention; the beta^N slot then
carries -1 for every torus).  Each nonconstant slot coefficient is one
conserved quantity; its degree is d = NM - aN - bM under the grading
deg A = 1, deg B = 2, deg c_i = i, deg alpha = N, deg beta = M.

Ledger tags:
* Casimir2 - slots with beta-exponent 0 (the spectral-parameter-only row);
* Casimir1 - the slot of largest beta-exponent within each alpha-row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from dkp.lattice import (
    LevelData,
    abstract_level,
    c_alpha_minus_beta,
    det_minor_expansion,
    level_entries,
    reduction_levels,
)
from dkp.symalg import ExactPoly
from dkp.torus import _require_torus


@dataclass(frozen=True)
class LedgerEntry:
    degree: int
    alpha_exp: int
    beta_exp: int
    poly: ExactPoly
    is_casimir2: bool
    is_casimir1: bool

    def to_jsonable(self) -> dict:
        return {
            "degree": self.degree,
            "alpha_exp": self.alpha_exp,
            "beta_exp": self.beta_exp,
            "poly": self.poly.to_jsonable(),
            "is_casimir2": self.is_casimir2,
            "is_casimir1": self.is_casimir1,
        }


@dataclass(frozen=True)
class SpectralCurve:
    N: int
    M: int
    mode: str
    coefficients: dict[tuple[int, int], ExactPoly]
    ledger: dict[int, LedgerEntry]

    def poly(self, a: int, b: int) -> ExactPoly:
        return self.coefficients.get((a, b), ExactPoly.zero())

    def q(self, degree: int) -> ExactPoly:
        return self.ledger[degree].poly

    def degrees(self) -> list[int]:
        return sorted(self.ledger)

    def casimir2_degrees(self) -> list[int]:
        return sorted(d for d, e in self.ledger.items() if e.is_casimir2)

    def casimir1_degrees(self) -> list[int]:
        return sorted(d for d, e in self.ledger.items() if e.is_casimir1)

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "M": self.M,
            "mode": self.mode,
            "coefficients": [
                [a, b, p.to_jsonable()] for (a, b), p in sorted(self.coefficients.items())
            ],
            "ledger": {str(d): e.to_jsonable() for d, e in sorted(self.ledger.items())},
        }


def slot_degree(N: int, M: int, a: int, b: int) -> int:
    return N * M - a * N - b * M


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


def _band_for_mode(N: int, M: int, mode: str) -> LevelData:
    key = mode.lower()
    if key == "ab":
        return reduction_levels(N, M)[1]
    if key == "band":
        return abstract_level(N, M, 1)
    raise ValueError(f"mode must be 'AB' or 'band', got {mode!r}")


def compute_curve(N: int, M: int, mode: str = "AB") -> SpectralCurve:
    """Exact spectral curve, normalized so the alpha^M constant slot is +1."""
    _require_torus(N, M)
    coefficients = _curve_slots(N, M, _band_for_mode(N, M, mode))
    ledger = _build_ledger(N, M, coefficients)
    return SpectralCurve(N=N, M=M, mode=mode.lower(), coefficients=coefficients, ledger=ledger)


@lru_cache(maxsize=None)
def band_curve(N: int, M: int) -> SpectralCurve:
    """The band-mode curve of a torus, computed once per process and shared
    by the ledger suites and the flows; callers only read it."""
    return compute_curve(N, M, "band")


def _curve_slots(N: int, M: int, band: LevelData) -> dict[tuple[int, int], ExactPoly]:
    """The nonzero alpha^a beta^b slots of det(C_alpha - beta) for a level-1
    band, signed so the constant slot at (M, 0) is +1."""
    det = det_minor_expansion(c_alpha_minus_beta(N, M, band))
    slots = det.alpha_beta_decomposition()

    pivot = slots.get((M, 0), ExactPoly.zero())
    if not pivot.is_constant():
        raise ValueError("alpha^M slot of the determinant is not constant")
    pv = pivot.constant_value()
    if pv not in (1, -1):
        raise ValueError(f"alpha^M slot must be +-1, got {pv}")
    if pv == -1:
        slots = {ab: -p for ab, p in slots.items()}
    return {ab: p for ab, p in slots.items() if p}


def _build_ledger(
    N: int, M: int, coefficients: Mapping[tuple[int, int], ExactPoly]
) -> dict[int, LedgerEntry]:
    nonconstant = {
        ab: p for ab, p in coefficients.items() if p and not p.is_constant()
    }
    rightmost: dict[int, int] = {}
    for a, b in nonconstant:
        rightmost[a] = max(rightmost.get(a, b), b)
    ledger: dict[int, LedgerEntry] = {}
    for (a, b), p in nonconstant.items():
        d = slot_degree(N, M, a, b)
        if d in ledger:
            raise ValueError(f"duplicate ledger degree {d}")
        if d <= 0:
            raise ValueError(f"nonconstant slot {(a, b)} at nonpositive degree {d}")
        ledger[d] = LedgerEntry(
            degree=d,
            alpha_exp=a,
            beta_exp=b,
            poly=p,
            is_casimir2=(b == 0),
            is_casimir1=(b == rightmost[a]),
        )
    return ledger


def q_ledger(curve: SpectralCurve) -> dict:
    """Ledger report: entry map, counts, and Casimir tag sets."""
    expected = (curve.N + 1) * curve.M
    degrees = curve.degrees()
    return {
        "N": curve.N,
        "M": curve.M,
        "mode": curve.mode,
        "degrees": degrees,
        "count": len(degrees),
        "count_expected": expected,
        "count_ok": len(degrees) == expected,
        "casimir2_degrees": curve.casimir2_degrees(),
        "casimir1_degrees": curve.casimir1_degrees(),
        "entries": {d: curve.ledger[d].to_jsonable() for d in degrees},
    }


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
        if p and not (p.is_homogeneous(N, M) and (p.is_constant() or p.degree(N, M) == d)):
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

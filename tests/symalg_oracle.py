"""Degree queries on ``ExactPoly`` that only the checks ask.

The grading gives A degree 1, B degree 2, c_i degree i, alpha degree N and
beta degree M.  The curve's grading and the brackets' homogeneity checks
(``curve_oracle``, ``poisson_oracle``) read polynomials through these; no
command does.
"""

from __future__ import annotations

from dkp.symalg import ExactPoly, Gen


def gen_degree(gen: Gen, N: int, M: int) -> int:
    kind = gen[0]
    if kind == "A":
        return 1
    if kind == "B":
        return 2
    if kind == "c":
        return gen[2]
    if kind == "alpha":
        return N
    if kind == "beta":
        return M
    raise ValueError(f"unknown generator {gen!r}")


def variables(p: ExactPoly) -> set[Gen]:
    return {g for mono in p.terms for g, _ in mono}


def _degrees(p: ExactPoly, N: int, M: int) -> set[int]:
    return {sum(gen_degree(g, N, M) * e for g, e in mono) for mono in p.terms}


def degree(p: ExactPoly, N: int, M: int) -> int:
    """Max weighted degree; raises on the zero polynomial."""
    if not p.terms:
        raise ValueError("zero polynomial has no degree")
    return max(_degrees(p, N, M))


def is_homogeneous(p: ExactPoly, N: int, M: int) -> bool:
    return len(_degrees(p, N, M)) <= 1

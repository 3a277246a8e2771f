"""The identity suites case by case, through ``bracket_extend`` and ``ExactPoly``.

This is the reference the packed suites of ``dkp.poisson`` are tested
against: every bracket is unpacked into an ``ExactPoly`` and the brackets of
one case are added up as ``ExactPoly``s, then compared or tested for zero.
The tables are looked up in ``dkp.poisson`` at call time, so a test that
swaps a table in runs both routes on the same table.
"""

from __future__ import annotations

import itertools

from dkp import poisson
from dkp.curve import compute_curve
from dkp.lattice import reduction_levels
from dkp.poisson import ab_generators, bracket_extend, c_generators, ladder_pairs
from dkp.symalg import ExactPoly, gen_c, poly_sum


def jacobi_defect(table, g1: ExactPoly, g2: ExactPoly, g3: ExactPoly) -> ExactPoly:
    """{g1,{g2,g3}} + {g2,{g3,g1}} + {g3,{g1,g2}} under the table's bracket."""
    return (
        bracket_extend(table, g1, bracket_extend(table, g2, g3))
        + bracket_extend(table, g2, bracket_extend(table, g3, g1))
        + bracket_extend(table, g3, bracket_extend(table, g1, g2))
    )


def _vars(gens) -> list[ExactPoly]:
    return [ExactPoly.var(g) for g in gens]


def jacobi(N: int, M: int) -> dict:
    tables = {
        "bracket2_AB": (poisson.bracket2_AB(N, M), _vars(ab_generators(N, M))),
        "bracket2_c": (poisson.bracket2_c(N, M, 1), _vars(c_generators(N, M))),
        "bracket1_c": (poisson.bracket1_c(N, M), _vars(c_generators(N, M))),
    }
    failures = []
    per_table = {}
    for name, (table, gens) in tables.items():
        per_table[name] = 0
        for x, y, z in itertools.combinations(gens, 3):
            per_table[name] += 1
            if jacobi_defect(table, x, y, z):
                failures.append({"table": name, "triple": [repr(t) for t in (x, y, z)]})
    return {"tables": per_table, "cases": sum(per_table.values()), "failures": failures}


def compatibility(N: int, M: int) -> dict:
    t1, t2 = poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)
    failures = []
    cases = 0
    for x, y, z in itertools.combinations(_vars(c_generators(N, M)), 3):
        cases += 1
        defect = ExactPoly.zero()
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            defect = defect + bracket_extend(t2, a, bracket_extend(t1, b, c))
            defect = defect + bracket_extend(t1, a, bracket_extend(t2, b, c))
        if defect:
            failures.append({"triple": [repr(t) for t in (x, y, z)]})
    return {"cases": cases, "failures": failures}


def ladder(N: int, M: int) -> dict:
    curve = compute_curve(N, M, "band")
    t1, t2 = poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)
    failures = []
    cases = 0
    for hi, lo in ladder_pairs(curve):
        for g in _vars(c_generators(N, M)):
            cases += 1
            if bracket_extend(t1, curve.q(hi), g) != bracket_extend(t2, curve.q(lo), g):
                failures.append({"pair_degrees": [hi, lo], "generator": repr(g)})
    return {"cases": cases, "failures": failures}


def involution(N: int, M: int) -> dict:
    curve = compute_curve(N, M, "band")
    t1, t2 = poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)
    failures = []
    cases = 0
    for d1, d2 in itertools.combinations(curve.degrees(), 2):
        cases += 1
        if bracket_extend(t2, curve.q(d1), curve.q(d2)):
            failures.append({"pair_degrees": [d1, d2], "bracket": 2})
        if bracket_extend(t1, curve.q(d1), curve.q(d2)):
            failures.append({"pair_degrees": [d1, d2], "bracket": 1})
    return {"cases": cases, "failures": failures}


def _casimir(N: int, M: int, table, casimirs: list[int]) -> dict:
    curve = compute_curve(N, M, "band")
    gens = _vars(c_generators(N, M))
    failures = []
    cases = 0
    witnesses = {}
    for d in curve.degrees():
        if d in casimirs:
            for g in gens:
                cases += 1
                if bracket_extend(table, curve.q(d), g):
                    failures.append({"degree": d, "generator": repr(g)})
        else:
            cases += 1
            witnesses[d] = any(bracket_extend(table, curve.q(d), g) for g in gens)
            if not witnesses[d]:
                failures.append({"degree": d, "reason": "unexpected Casimir"})
    return {"cases": cases, "failures": failures, "noncasimir_witnesses": witnesses}


def casimir1(N: int, M: int) -> dict:
    casimirs = compute_curve(N, M, "band").casimir1_degrees()
    return _casimir(N, M, poisson.bracket1_c(N, M), casimirs)


def casimir2(N: int, M: int) -> dict:
    casimirs = compute_curve(N, M, "band").casimir2_degrees()
    report = _casimir(N, M, poisson.bracket2_c(N, M, 1), casimirs)
    expected = [k * N for k in range(1, 2 * M + 1)]
    if casimirs != expected:
        report["failures"].append({"reason": "set mismatch", "got": casimirs, "expected": expected})
    return report


def closure(N: int, M: int, j: int) -> dict:
    lev = reduction_levels(N, M)[j]
    expansion = {gen_c(j, i, k): p for (i, k), p in lev.items() if i > 0}
    table = poisson.bracket2_AB(N, M)
    closed_form = poisson.bracket2_c(N, M, j)
    gens = c_generators(N, M, j)
    failures = []
    cases = 0
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            g1, g2 = gens[a], gens[b]
            cases += 1
            direct = bracket_extend(table, expansion[g1], expansion[g2])
            if closed_form.entry(g1, g2).substitute(expansion) != direct:
                failures.append({"pair": [list(g1), list(g2)]})
    return {"cases": cases, "failures": failures}


def flow_rows(N: int, M: int, d: int) -> list[ExactPoly]:
    """dg/dt = {g, q_d}_2 = sum_b dq_d/dx_b * {g, x_b} for every A, B generator g.

    In ``ab_generators`` (state) order, from ``ExactPoly`` partials, products
    and table entries alone; q_d is the band ledger entry with each level-1
    c replaced by its A,B polynomial.
    """
    level = reduction_levels(N, M)[1]
    expansion = {g: level[(g[2], g[3])] for g in c_generators(N, M, 1)}
    qd = compute_curve(N, M, "band").q(d).substitute(expansion)
    table = poisson.bracket2_AB(N, M)
    gens = ab_generators(N, M)
    partials = [(x, qd.partial(x)) for x in gens]
    return [poly_sum(p * table.entry(g, x) for x, p in partials if p) for g in gens]

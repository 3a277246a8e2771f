"""The identity suites case by case, through ``bracket_extend`` and ``ExactPoly``.

This is the reference the packed suites of ``dkp.poisson`` are tested
against: every bracket is unpacked into an ``ExactPoly`` and the brackets of
one case are added up as ``ExactPoly``s, then compared or tested for zero.
The tables are looked up in ``dkp.poisson`` at call time, so a test that
swaps a table in runs both routes on the same table.

``bracket1_c_literal`` is the first bracket's trace formula exactly as
written, on ``BandMatrix``; ``dkp.poisson.bracket1_c_pair`` reads it in
closed form and is tested against it.

It also holds the checks of claims no command runs: the first flow's
evolution equations (``first_flow_rhs_AB``), the substitution identity
between the two brackets (``verify_bracrel``), the homogeneity degrees of
every table (``verify_degree_of_bracket``), and the degree count that
rules out a first bracket on A, B (``first_bracket_degree_obstruction``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from dkp import poisson
from dkp.curve import compute_curve
from dkp.lattice import abstract_level, reduction_levels
from dkp.poisson import (
    BracketTable,
    Packed,
    _mul_into,
    ab_generators,
    c_generators,
    ladder_pairs,
)
from dkp.symalg import ExactPoly, Gen, gen_A, gen_B, gen_c, poly_sum
from dkp.torus import _require_torus, build_kappa, build_rho
from lattice_oracle import BandMatrix
from symalg_oracle import degree, gen_degree, is_homogeneous


def bracket_extend(table: BracketTable, f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Bilinear + Leibniz extension of a generator table to polynomials.

    Computed in gradient form, {f, g} = sum_a df/dx_a * {x_a, g}, with each
    field {x_a, g} = sum_b dg/dx_b * {x_a, x_b} from the table's packed
    kernel and a over the table's universe (alpha and beta are passive: they
    bracket to zero).  Only the result is unpacked into an ``ExactPoly``.

    Raises ``ValueError`` for a generator outside the table and
    ``OverflowError`` for an exponent of magnitude 2**13 or more in f, g or
    a table entry (three such exponents add up in one result monomial, and
    the sum must stay inside the 16-bit field).
    """
    acc: Packed = {}
    df, dg = table._gradient(f), table._gradient(g)
    for a, dfa in df.items():
        field = table._field(dg, a)
        if field:
            _mul_into(acc, dfa, field)
    return table.unpack(acc)


def bracket1_c_literal(
    N: int, M: int, g1: tuple[int, int], g2: tuple[int, int]
) -> ExactPoly:
    """The trace formula exactly as written, with R+ strictly upper:
    tr([E1+, E2+] - [E1-, E2-]) C^T per period, where E is the elementary
    band with a 1 where C holds c_i(k) and C is the abstract level-1 band."""
    _require_torus(N, M)
    e1, e2 = (BandMatrix(N, {(M - i, k): ExactPoly.const(1)}) for i, k in (g1, g2))
    expr = (
        e1.upper_part().commutator(e2.upper_part())
        - e1.lower_part().commutator(e2.lower_part())
    ) * _band_transpose(N, M)
    return expr.trace_per_period()


@lru_cache(maxsize=None)
def _band_transpose(N: int, M: int) -> BandMatrix:
    """C^T for the abstract level-1 band C, built once per torus."""
    return BandMatrix.from_band_entries(N, M, abstract_level(N, M, 1)).transpose()


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


def first_flow_rhs_AB(N: int, M: int) -> dict[Gen, ExactPoly]:
    """Right sides of the first-flow evolution equations on every A, B."""
    _require_torus(N, M)
    kappa = build_kappa(N, M)
    rho = build_rho(N, M)
    out: dict[Gen, ExactPoly] = {}
    for m in range(M):
        for n in range(N):
            kap_sum = poly_sum(
                ExactPoly.const(kappa(k - n, l - m)) * ExactPoly.var(gen_A(k, l))
                for l in range(M)
                for k in range(N)
            )
            rho_sum = poly_sum(
                ExactPoly.const(rho(k - n, l - m)) * ExactPoly.var(gen_A(k, l))
                for l in range(M)
                for k in range(N)
            )
            out[gen_A(n, m)] = (
                ExactPoly.var(gen_B(n, m))
                - ExactPoly.var(gen_B((n + 1) % N, m))
                + kap_sum * ExactPoly.var(gen_A(n, m))
            )
            out[gen_B(n, m)] = rho_sum * ExactPoly.var(gen_B(n, m))
    return out


def verify_bracrel(N: int, M: int) -> dict:
    """Substitution identity on generator pairs, in both orientations.

    literal: { , }_1 = { , }_2 - { , }_2 with every c_M(h) shifted by +1;
    flipped: { , }_1 equals the negative of that difference.
    """
    t1, t2 = poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)
    gens = c_generators(N, M, 1)
    shift = {
        gen_c(1, M, h): ExactPoly.var(gen_c(1, M, h)) + ExactPoly.const(1)
        for h in range(N)
    }
    literal_failures = []
    flipped_failures = []
    cases = 0
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            g1, g2 = gens[a], gens[b]
            cases += 1
            lhs = t1.entry(g1, g2)
            p2 = t2.entry(g1, g2)
            diff = p2 - p2.substitute(shift)
            if lhs != diff:
                literal_failures.append({"pair": [list(g1), list(g2)]})
            if lhs != -diff:
                flipped_failures.append({"pair": [list(g1), list(g2)]})
    return {
        "identity": "bracrel",
        "N": N,
        "M": M,
        "cases": cases,
        "failures": literal_failures,
        "ok": not literal_failures,
        "flipped_failures": flipped_failures,
        "flipped_ok": not flipped_failures,
    }


def verify_degree_of_bracket(N: int, M: int) -> dict:
    """Homogeneity degrees: bracket2 shifts by 0, bracket1 by -M."""
    failures = []
    cases = 0
    t_ab = poisson.bracket2_AB(N, M)
    for g1, g2 in itertools.combinations_with_replacement(ab_generators(N, M), 2):
        cases += 1
        p = t_ab.entry(g1, g2)
        want = gen_degree(g1, N, M) + gen_degree(g2, N, M)
        if p and (not is_homogeneous(p, N, M) or degree(p, N, M) != want):
            failures.append({"table": "bracket2_AB", "pair": [list(g1), list(g2)]})
    t1, t2 = poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)
    for g1, g2 in itertools.combinations_with_replacement(c_generators(N, M, 1), 2):
        cases += 2
        want = gen_degree(g1, N, M) + gen_degree(g2, N, M)
        p = t2.entry(g1, g2)
        if p and (not is_homogeneous(p, N, M) or degree(p, N, M) != want):
            failures.append({"table": "bracket2_c", "pair": [list(g1), list(g2)]})
        p = t1.entry(g1, g2)
        if p and (not is_homogeneous(p, N, M) or degree(p, N, M) != want - M):
            failures.append({"table": "bracket1_c", "pair": [list(g1), list(g2)]})
    return {
        "identity": "degree_of_bracket",
        "N": N,
        "M": M,
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


def first_bracket_degree_obstruction(M: int) -> dict:
    """Degree counting behind the no-first-bracket-on-A,B statement.

    A bracket of degree -M sends a generator pair to degree
    deg(g) + deg(h) - M; with deg A = 1, deg B = 2 the largest pair degree
    is 4, so for M >= 5 every entry of a homogeneous degree -M bracket on
    the A, B generators would have negative degree and must vanish.
    """
    targets = {"AA": 2 - M, "AB": 3 - M, "BB": 4 - M}
    return {
        "M": M,
        "target_degrees": targets,
        "all_negative": all(v < 0 for v in targets.values()),
        "forces_zero_bracket": M >= 5,
    }

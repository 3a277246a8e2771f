"""Acceptance gate: twelve release criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py`` — every criterion prints
``ACxx <name>: PASS|FAIL — detail`` live (bypassing capture) before its
assertion.

Two criteria contain clauses that the mechanical results refuse, and those
tests fail honestly rather than encode a weaker claim:

* AC07 — the substitution identity relating the two brackets
  ({ , }_1 = { , }_2 − { , }_2 with the top band row shifted by one) holds
  on every generator pair only with the opposite overall sign; as written
  it fails on every pair that is nonzero.  The mixed-Jacobiator
  compatibility clause of the same criterion is fully green.
* AC09 — the unit-multiplier reading of the conserved-quantity link
  (Σ_k ∂q_{i+M}/∂c_M(k) = ±q_i) fails exactly where the target slot sits
  at β-exponent b with b + 1 > 1; the exact law with multiplier −(b+1),
  verified over every determinant slot, is fully green and is what the
  library ships.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import pytest

from dkp.curve import compute_curve
from dkp.flows import KPStateNumeric, integrate
from dkp.pipes import (
    enumerate_tpds,
    monomial_tpd_bijection,
    product_key,
    sum_zero_check,
    verify_pairing_consistency,
)
from dkp.poisson import (
    bracket2_AB,
    c_generators,
    closure_verify,
    qlink_report,
    verify_casimir1,
    verify_casimir2,
    verify_compatibility,
    verify_involution,
    verify_jacobi,
    verify_ladder,
)
from dkp.symalg import ExactPoly, gen_A, gen_B
from dkp.torus import build_kappa, build_phi, build_rho, build_zeta
from curve_oracle import band_curve_substituted, verify_degree_symmetry
from lattice_oracle import dominance_rank
from pipes_oracle import pairing
from poisson_oracle import first_flow_rhs_AB, verify_bracrel
from torus_oracle import kappa_difference_spec, rho_difference_spec, solve_difference_spec

AC_TORI = [(3, 2), (5, 2), (4, 3)]
SIGN_TORI = [(3, 2), (5, 2), (4, 3), (2, 3), (3, 4), (7, 2), (5, 3)]


def verdict(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"AC{number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# AC1 — single-row chain regression (M=1, N=3,4), exact, < 1 s


def A(n: int) -> ExactPoly:
    return ExactPoly.var(gen_A(n, 0))


def B(n: int) -> ExactPoly:
    return ExactPoly.var(gen_B(n, 0))


def _expected_single_row_entry(N: int, g1, g2) -> ExactPoly:
    """Closed-form M=1 bracket for a generator pair, all four families."""
    kind1, k, _ = g1
    kind2, n, _ = g2
    out = ExactPoly.zero()
    if kind1 == "A" and kind2 == "A":
        if k == (n - 1) % N:
            out = out + B(n)
        if k == (n + 1) % N:
            out = out - B((n + 1) % N)
    elif kind1 == "A" and kind2 == "B":
        if k == n:
            out = out + A(k) * B(n)
        if k == (n - 1) % N:
            out = out - A(k) * B(n)
    elif kind1 == "B" and kind2 == "A":
        return ExactPoly.zero() - _expected_single_row_entry(N, g2, g1)
    else:
        if k == (n + 1) % N:
            out = out + B(k) * B(n)
        if k == (n - 1) % N:
            out = out - B(k) * B(n)
    return out


def test_ac01_single_row_regression(capsys):
    t0 = time.perf_counter()
    problems = []
    for N in (3, 4):
        table = bracket2_AB(N, 1)
        gens = [gen_A(n, 0) for n in range(N)] + [gen_B(n, 0) for n in range(N)]
        for g1 in gens:
            for g2 in gens:
                if table.entry(g1, g2) != _expected_single_row_entry(N, g1, g2):
                    problems.append(("table", N, g1, g2))
        rhs = first_flow_rhs_AB(N, 1)
        for n in range(N):
            if rhs[gen_A(n, 0)] != B(n) - B((n + 1) % N):
                problems.append(("flow-A", N, n))
            if rhs[gen_B(n, 0)] != (A(n) - A((n - 1) % N)) * B(n):
                problems.append(("flow-B", N, n))
        curve = compute_curve(N, 1)
        if curve.degrees() != list(range(1, N + 1)) + [2 * N]:
            problems.append(("curve-degrees", N))
        if curve.poly(1, 0) != ExactPoly.const(1) or curve.poly(0, N) != ExactPoly.const(-1):
            problems.append(("curve-constants", N))
        casimir = verify_casimir2(N, 1)
        if not casimir["ok"] or casimir["degrees"] != [N, 2 * N]:
            problems.append(("casimir", N))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    verdict(
        capsys, 1, "single-row chain regression", ok,
        f"N=3,4 bracket table, flow, curve, Casimirs exact in {elapsed:.2f}s"
        + (f"; problems {problems[:3]}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# AC2 — Jacobi identity on all generator triples, three tables


def test_ac02_jacobi(capsys):
    t0 = time.perf_counter()
    reports = {NM: verify_jacobi(*NM) for NM in AC_TORI}
    # required: the A,B-table on all three tori; the band tables on (3,2),(5,2)
    ok = all(r["ok"] for r in reports.values())
    cases = sum(r["cases"] for r in reports.values())
    required = (
        all(not r["failures"] for r in reports.values())
        and all(reports[NM]["tables"]["bracket2_AB"] > 0 for NM in AC_TORI)
        and all(
            reports[NM]["tables"][t] > 0
            for NM in [(3, 2), (5, 2)]
            for t in ("bracket2_c", "bracket1_c")
        )
    )
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 2, "Jacobi identity", ok and required,
        f"{cases} generator triples across three tables on {AC_TORI}, "
        f"0 defects in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC3 — sign-table suite


def _canon(N, M, n, m):
    return (n % N, m % M)


def _ac3_difference_conditions(N: int, M: int) -> int:
    """Four-condition jump spec for every zeta in 0 <= x,y <= 2M; returns cases."""
    cases = 0
    for x in range(2 * M + 1):
        for y in range(2 * M + 1):
            z = build_zeta(N, M, x, y)
            jumps: dict[tuple[int, int], int] = {}
            if x <= y:
                srcs = [((1, -1), -1), ((x + 1, 0), 1), ((-y, -1), 1), ((-y + x, 0), -1)]
            else:
                srcs = [((0, 0), -1), ((x + 1, 0), 1), ((-y, -1), 1), ((-y + x + 1, -1), -1)]
            for src, d in srcs:
                p = _canon(N, M, *src)
                jumps[p] = jumps.get(p, 0) + d
            for n in range(N):
                for m in range(M):
                    cases += 1
                    assert z(n - 1, m + 1) - z(n, m) == jumps.get((n, m), 0), (N, M, x, y, n, m)
    return cases


def _ac3_addition_rules(N: int, M: int) -> int:
    """Grow-x rule in both regimes plus the kappa/rho/phi specializations."""
    cases = 0
    top = 2 * M
    for x in range(top):
        for y in range(top + 1):
            z1 = build_zeta(N, M, x + 1, y)
            z0 = build_zeta(N, M, x, y)
            z0y = build_zeta(N, M, 0, y)
            for n in range(N):
                for m in range(M):
                    cases += 1
                    rhs = z0(n, m) + z0y(n - x - 1, m)
                    if _canon(N, M, n, m) == _canon(N, M, x + 1, 0):
                        rhs += 1
                    drop = (-y + x, 0) if x < y else (-y + x + 1, 0)
                    if _canon(N, M, n, m) == _canon(N, M, *drop):
                        rhs -= 1
                    assert z1(n, m) == rhs, ("grow-x", N, M, x, y, n, m)
    k, r, p = build_kappa(N, M), build_rho(N, M), build_phi(N, M)
    z00, z01, z11 = build_zeta(N, M, 0, 0), build_zeta(N, M, 0, 1), build_zeta(N, M, 1, 1)
    for n in range(N):
        for m in range(M):
            cases += 3
            assert z00(n, m) == k(n, m)
            assert z11(n, m) == p(n, m)
            d = (1 if _canon(N, M, n, m) == (0, 0) else 0) - (
                1 if _canon(N, M, n, m) == ((-1) % N, 0) else 0
            )
            assert r(n, m) == z01(n, m) + d
    return cases


def test_ac03_sign_table_suite(capsys):
    t0 = time.perf_counter()
    coprime = [
        (N, M)
        for N in range(1, 12)
        for M in range(1, 12)
        if N + M <= 12 and math.gcd(N, M) == 1
    ]
    cases = 0
    for N, M in coprime:
        assert solve_difference_spec(kappa_difference_spec(N, M)).values == build_kappa(N, M).values
        assert solve_difference_spec(rho_difference_spec(N, M)).values == build_rho(N, M).values
        cases += 2
        if N >= 2 and M >= 2:
            k = build_kappa(N, M)
            for m in range(M):
                signs = [v for n in range(N) if (v := k(n, m)) != 0]
                doubled = signs + signs
                for i in range(len(signs)):
                    assert doubled[i] != doubled[i + 1], ("alternation", N, M, m)
                cases += 1
    for N, M in SIGN_TORI:
        cases += _ac3_difference_conditions(N, M)
        cases += _ac3_addition_rules(N, M)
        for x in range(1, 2 * M + 2):
            z = build_zeta(N, M, x - 1, M - 1)  # its m=0 slice
            for n in range(N):
                cases += 1
                want = 0 if x >= M else (1 if n == (-M + x) % N else 0) - (1 if n == 0 else 0)
                assert z(n, 0) == want, ("slice", N, M, x, n)
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 3, "sign-table suite", True,
        f"{len(coprime)} builder/solver tori, alternation, difference conditions,"
        f" addition rules, row-slice lemma: {cases} checks in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC4 — curve ledger


def test_ac04_curve_ledger(capsys):
    t0 = time.perf_counter()
    problems = []
    curve32 = compute_curve(3, 2)
    if curve32.degrees() != [1, 2, 3, 4, 6, 7, 9, 12]:
        problems.append("3x2 degree list")
    for N, M in AC_TORI:
        curve = compute_curve(N, M)
        if len(curve.degrees()) != (N + 1) * M:
            problems.append(f"({N},{M}) ledger count")
        if len(curve.casimir2_degrees()) != 2 * M:
            problems.append(f"({N},{M}) beta-free Casimir count")
        sym = verify_degree_symmetry(curve)
        if not sym["all_ok"]:
            problems.append(f"({N},{M}) grading/mirror")
        band = compute_curve(N, M, "band")
        substituted = band_curve_substituted(band)
        if set(substituted) != set(curve.coefficients) or any(
            substituted[ab] != curve.coefficients[ab] for ab in curve.coefficients
        ):
            problems.append(f"({N},{M}) band != AB")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    verdict(
        capsys, 4, "curve ledger", ok,
        f"(3,2) degrees {{1,2,3,4,6,7,9,12}}; (N+1)M / 2M counts, grading,"
        f" mirror symmetry, band=AB on {AC_TORI} in {elapsed:.1f}s"
        + (f"; problems {problems}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# AC5 — band-closure of the induced bracket, every level pair


def test_ac05_closure(capsys):
    t0 = time.perf_counter()
    total, far_pairs = 0, 0
    ok = True
    for N, M in [(3, 2), (5, 2)]:
        for j in range(1, M + 1):
            report = closure_verify(N, M, j)
            ok = ok and report["ok"]
            gens = c_generators(N, M, j)
            expected_pairs = len(gens) * (len(gens) + 1) // 2
            if report["cases"] != expected_pairs:
                ok = False
            total += report["cases"]
            far_pairs += sum(
                1
                for a, b in itertools.combinations_with_replacement(gens, 2)
                if abs(a[2] - b[2]) >= 3
            )
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 5, "induced-bracket closure", ok,
        f"every level-j generator pair on (3,2),(5,2): {total} pairs"
        f" ({far_pairs} with band offsets >= 3 apart) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC6 — bi-Hamiltonian ladder and bracket-1 Casimir rule


def test_ac06_ladder_and_casimir1(capsys):
    t0 = time.perf_counter()
    ladder = verify_ladder(3, 2)
    cas1 = verify_casimir1(3, 2)
    gens = c_generators(3, 2, 1)
    ok = (
        ladder["ok"]
        and ladder["cases"] == len(ladder["pairs"]) * len(gens)
        and cas1["ok"]
        and cas1["degrees"] == [1, 2, 7, 12]
    )
    # rightmost slot of each alpha-row: no ledger entry one beta-step right
    curve = compute_curve(3, 2, "band")
    rightmost = sorted(
        d
        for d in curve.degrees()
        if not any(
            (e.alpha_exp, e.beta_exp) == (curve.ledger[d].alpha_exp, curve.ledger[d].beta_exp + 1)
            for e in curve.ledger.values()
        )
    )
    ok = ok and cas1["degrees"] == rightmost
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 6, "bi-Hamiltonian ladder", ok,
        f"(3,2): {ladder['cases']} ladder cases over pairs {ladder['pairs']};"
        f" bracket-1 Casimirs {cas1['degrees']} = rightmost-slot set in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC7 — compatibility (mixed Jacobiator green; substitution identity as
# printed fails — it holds only with the opposite orientation)


def test_ac07_compatibility(capsys):
    t0 = time.perf_counter()
    compat = verify_compatibility(3, 2)
    gens = c_generators(3, 2, 1)
    triples = math.comb(len(gens), 3)
    bracrel = verify_bracrel(3, 2)
    elapsed = time.perf_counter() - t0
    ok = compat["ok"] and compat["cases"] == triples and bracrel["ok"]
    verdict(
        capsys, 7, "bracket-pair compatibility", ok,
        f"mixed Jacobiator 0 on all {compat['cases']} triples;"
        f" substitution identity as printed fails {len(bracrel['failures'])}"
        f"/{bracrel['cases']} pairs (flipped orientation holds:"
        f" {bracrel['flipped_ok']}) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC8 — involution of the conserved quantities


def test_ac08_involution(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for N, M in [(3, 2), (5, 2)]:
        report = verify_involution(N, M)
        expected = math.comb((N + 1) * M, 2)
        ok = ok and report["ok"] and report["cases"] == expected
        details.append(f"({N},{M}): {report['cases']} pairs")
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 8, "involution", ok,
        "; ".join(details) + f", all brackets vanish exactly in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC9 — conserved-quantity link (exact multiplier law green; the literal
# unit-multiplier reading fails where the slot multiplier exceeds one)


def test_ac09_qlink(capsys):
    t0 = time.perf_counter()
    report = qlink_report(3, 2)
    bad_rows = [
        f"q_{r['source_degree']}->q_{r['target_degree']} (multiplier {r['multiplier_expected']})"
        for r in report["rows"]
        if r.get("applicable") and not r["literal_unit_ok"]
    ]
    elapsed = time.perf_counter() - t0
    ok = report["exact_ok"] and report["literal_unit_ok"]
    verdict(
        capsys, 9, "conserved-quantity link", ok,
        f"exact multiplier law holds on all {report['slot_checks']} slots;"
        f" unit-multiplier reading fails on {', '.join(bad_rows)} in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC10 — dominance of the reduction at the special point


def test_ac10_dominance(capsys):
    t0 = time.perf_counter()
    reports = [
        (N, M, j, *dominance_rank(N, M, j))
        for N, M in [(3, 2), (4, 3)]
        for j in range(1, M)
    ]
    ok = all(rank == dim for *_, rank, dim in reports)
    detail = "; ".join(
        f"({N},{M}) level {j}: rank {rank}/{dim}" for N, M, j, rank, dim in reports
    )
    elapsed = time.perf_counter() - t0
    verdict(capsys, 10, "reduction dominance", ok, detail + f" in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC11 — numeric flow conservation


def test_ac11_flow_conservation(capsys):
    t0 = time.perf_counter()
    seed = 20260817
    state = KPStateNumeric.random(3, 2, seed=seed)
    assert min(state.flat()) >= 0.5 and max(state.flat()) <= 1.5
    full = integrate(state, "first", dt=1e-3, T=1.0)
    half = integrate(KPStateNumeric.random(3, 2, seed=seed), "first", dt=5e-4, T=1.0)
    d_star = max(full.drift, key=full.drift.get)
    ratio = full.drift[d_star] / half.drift[d_star]
    ok = full.max_drift <= 1e-6 and 8.0 <= ratio <= 32.0
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 11, "flow conservation", ok,
        f"(3,2) RK4 dt=1e-3 to T=1: max relative drift {full.max_drift:.2e}"
        f" <= 1e-6 over {len(full.drift)} quantities; halving dt scales the"
        f" q_{d_star} drift by {ratio:.1f}x in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# AC12 — pipe diagrams


def test_ac12_pipe_diagrams(capsys):
    t0 = time.perf_counter()
    problems = []
    pair_total = 0
    for N, M in [(3, 2), (4, 3), (5, 2)]:
        bijection = monomial_tpd_bijection(N, M)
        if not bijection["ok"]:
            problems.append(f"({N},{M}) bijection")
        consistency = verify_pairing_consistency(N, M)
        if not consistency["ok"]:
            problems.append(f"({N},{M}) pairing formulas")
        pair_total += consistency["pairs"]
        for d1 in range(N * M + 1):
            for d2 in range(d1, N * M + 1):
                if not sum_zero_check(N, M, d1, d2)["ok"]:
                    problems.append(f"({N},{M}) sum-zero at ({d1},{d2})")
        # partner corollary: any nonzero pairing lies in a product group
        # with at least one other decomposition
        diagrams = [
            d for deg in range(N * M + 1) for d in enumerate_tpds(N, M, deg)
        ]
        groups: dict = {}
        for d1 in diagrams:
            for d2 in diagrams:
                groups.setdefault(product_key(d1, d2), []).append(pairing(d1, d2))
        for key, values in groups.items():
            if any(values) and len(values) < 2:
                problems.append(f"({N},{M}) unpartnered nonzero pairing")
    elapsed = time.perf_counter() - t0
    ok = not problems
    verdict(
        capsys, 12, "pipe diagrams", ok,
        f"counts match the determinant monomials, both pairing formulas agree"
        f" on {pair_total} pairs, product groups sum to zero, partners exist"
        f" on (3,2),(4,3),(5,2) in {elapsed:.1f}s"
        + (f"; problems {problems[:4]}" if problems else ""),
    )

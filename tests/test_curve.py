"""Tests for the spectral curve and the conserved-quantity ledger."""

import pytest

from dkp.curve import (
    LedgerEntry,
    SpectralCurve,
    band_curve_substituted,
    compute_curve,
    q_ledger,
    realizable_degrees,
    slot_degree,
    verify_degree_symmetry,
)
from dkp.lattice import c_alpha_minus_beta, det_minor_expansion, reduction_levels
from dkp.symalg import ExactPoly, gen_A, gen_B, gen_c, poly_sum


def A(N, k, m=0):
    return ExactPoly.var(gen_A(k % N, m))


def B(N, k, m=0):
    return ExactPoly.var(gen_B(k % N, m))


# ------------------------------------------------------------------- single layer


def test_single_layer_three_sites_closed_forms():
    N = 3
    curve = compute_curve(N, 1)
    sumA = poly_sum(A(N, k) for k in range(N))
    sumB = poly_sum(B(N, k) for k in range(N))
    e2 = poly_sum(A(N, i) * A(N, j) for i in range(N) for j in range(i + 1, N))
    assert curve.q(1) == -sumA
    assert curve.q(2) == -(e2 + sumB)
    assert curve.q(3) == -(
        A(N, 0) * A(N, 1) * A(N, 2)
        + A(N, 0) * B(N, 2)
        + A(N, 2) * B(N, 1)
        + A(N, 1) * B(N, 0)
    )
    assert curve.q(6) == -(B(N, 0) * B(N, 1) * B(N, 2))


def test_single_layer_slot_structure():
    N = 3
    curve = compute_curve(N, 1)
    assert curve.poly(1, 0) == ExactPoly.const(1)
    assert curve.poly(0, N) == ExactPoly.const(-1)
    assert set(curve.coefficients) == {(1, 0), (0, 3), (0, 2), (0, 1), (0, 0), (-1, 0)}
    assert curve.degrees() == [1, 2, 3, 6]
    assert curve.casimir2_degrees() == [3, 6]
    assert curve.casimir1_degrees() == [1, 6]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_single_layer_normalization_any_parity(N):
    curve = compute_curve(N, 1)
    assert curve.poly(1, 0) == ExactPoly.const(1)
    assert curve.poly(0, N) == ExactPoly.const(-1)
    sumA = poly_sum(A(N, k) for k in range(N))
    assert curve.q(1) == -sumA
    prodB = ExactPoly.const(1)
    for k in range(N):
        prodB = prodB * B(N, k)
    assert curve.q(2 * N) == prodB * ((-1) ** N)
    assert curve.degrees() == list(range(1, N + 1)) + [2 * N]


# ------------------------------------------------------------------- multi layer


def test_two_layer_three_site_ledger():
    curve = compute_curve(3, 2)
    led = q_ledger(curve)
    assert led["degrees"] == [1, 2, 3, 4, 6, 7, 9, 12]
    assert led["count"] == led["count_expected"] == 8
    assert led["casimir2_degrees"] == [3, 6, 9, 12]
    assert led["casimir1_degrees"] == [1, 2, 7, 12]
    sumA = poly_sum(A(3, k, m) for k in range(3) for m in range(2))
    assert curve.q(1) == -sumA
    assert curve.poly(2, 0) == ExactPoly.const(1)
    assert curve.poly(0, 3) == ExactPoly.const(-1)


def test_two_layer_three_site_slots():
    curve = compute_curve(3, 2)
    assert {d: (e.alpha_exp, e.beta_exp) for d, e in curve.ledger.items()} == {
        1: (1, 1),
        2: (0, 2),
        3: (1, 0),
        4: (0, 1),
        6: (0, 0),
        7: (-1, 1),
        9: (-1, 0),
        12: (-2, 0),
    }


def test_five_site_two_layer_ledger():
    curve = compute_curve(5, 2)
    led = q_ledger(curve)
    assert led["degrees"] == [1, 2, 3, 4, 5, 6, 8, 10, 11, 13, 15, 20]
    assert led["count"] == led["count_expected"] == 12
    assert led["casimir2_degrees"] == [5, 10, 15, 20]
    assert led["casimir1_degrees"] == [1, 2, 11, 20]


def test_four_site_three_layer_ledger():
    curve = compute_curve(4, 3)
    led = q_ledger(curve)
    assert led["degrees"] == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 16, 17, 20, 24]
    assert led["count"] == led["count_expected"] == 15
    assert led["casimir2_degrees"] == [4, 8, 12, 16, 20, 24]
    assert len(led["casimir1_degrees"]) == 6
    assert led["casimir1_degrees"] == [1, 2, 3, 10, 17, 24]


def test_even_site_count_flips_the_raw_pivot():
    # the raw alpha^M slot is (-1)^(N-1); normalization makes it +1
    N, M = 2, 3
    det = det_minor_expansion(c_alpha_minus_beta(N, M, reduction_levels(N, M)[1]))
    assert det.alpha_beta_decomposition()[(M, 0)] == ExactPoly.const(-1)
    curve = compute_curve(N, M)
    assert curve.poly(M, 0) == ExactPoly.const(1)
    assert curve.poly(0, N) == ExactPoly.const(-1)


@pytest.mark.parametrize("N,M", [(3, 1), (3, 2), (5, 2), (4, 3), (2, 3)])
def test_degree_symmetry_report(N, M):
    rep = verify_degree_symmetry(compute_curve(N, M))
    assert rep["all_ok"]
    assert rep["realized_equals_allowed"]


def test_band_mode_uses_c_generators():
    curve = compute_curve(3, 2, "band")
    sumc1 = poly_sum(ExactPoly.var(gen_c(1, 1, k)) for k in range(3))
    assert curve.q(1) == sumc1
    assert curve.degrees() == [1, 2, 3, 4, 6, 7, 9, 12]
    vars_used = set()
    for p in curve.coefficients.values():
        vars_used |= {g[0] for g in p.variables()}
    assert vars_used <= {"c"}


@pytest.mark.parametrize("N,M", [(3, 1), (3, 2), (2, 3)])
def test_band_curve_substitution_matches_ab_mode(N, M):
    ab = compute_curve(N, M, "AB")
    band = compute_curve(N, M, "band")
    sub = band_curve_substituted(band)
    sub = {k: v for k, v in sub.items() if v}
    assert set(sub) == set(ab.coefficients)
    for key, p in ab.coefficients.items():
        assert sub[key] == p


# ------------------------------------------------------------------- ledger logic


def test_slot_degree_formula():
    assert slot_degree(3, 2, 1, 1) == 1
    assert slot_degree(3, 2, -2, 0) == 12
    assert slot_degree(5, 2, 0, 4) == 2


def test_realizable_degrees_known_tori():
    assert sorted(realizable_degrees(3, 2)) == [1, 2, 3, 4, 6, 7, 9, 12]
    assert sorted(realizable_degrees(3, 1)) == [1, 2, 3, 6]
    assert sorted(realizable_degrees(5, 2)) == [1, 2, 3, 4, 5, 6, 8, 10, 11, 13, 15, 20]
    assert realizable_degrees(3, 2)[7] == (-1, 1)


def test_ledger_entry_serialization_roundtrip():
    curve = compute_curve(3, 2)
    data = curve.to_jsonable()
    assert data["N"] == 3 and data["M"] == 2 and data["mode"] == "ab"
    entry = data["ledger"]["7"]
    assert entry["alpha_exp"] == -1 and entry["beta_exp"] == 1
    assert ExactPoly.from_jsonable(entry["poly"]) == curve.q(7)


def test_q_ledger_report_fields():
    led = q_ledger(compute_curve(3, 1))
    assert led["count_ok"]
    assert set(led["entries"]) == {1, 2, 3, 6}
    assert led["entries"][3]["is_casimir2"] and not led["entries"][3]["is_casimir1"]
    assert led["entries"][1]["is_casimir1"] and not led["entries"][1]["is_casimir2"]


def test_errors():
    with pytest.raises(ValueError):
        compute_curve(4, 2)
    with pytest.raises(ValueError):
        compute_curve(3, 2, mode="nope")
    with pytest.raises(ValueError):
        band_curve_substituted(compute_curve(3, 2, "AB"))

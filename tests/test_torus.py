"""Sign-table construction and the difference conditions that pin each table."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp.torus import (
    build_kappa,
    build_phi,
    build_rho,
    build_zeta,
    euclid_parity,
)
from torus_oracle import (
    DifferenceSpec,
    euclid_step_count,
    is_signlike,
    kappa_difference_spec,
    nonzero,
    rho_difference_spec,
    solve_difference_spec,
)

COPRIME_PAIRS = [
    (N, M)
    for N in range(1, 12)
    for M in range(1, 12)
    if N + M <= 12 and math.gcd(N, M) == 1
]

SMALL_PAIRS = [(3, 2), (5, 2), (4, 3), (2, 3), (3, 4), (7, 2), (5, 3)]


def canon(N: int, M: int, n: int, m: int) -> tuple[int, int]:
    return (n % N, m % M)


def test_kappa_32_frozen_table():
    k = build_kappa(3, 2)
    expected = {(1, 0): -1, (2, 0): 1, (1, 1): 1, (2, 1): -1}
    for n in range(3):
        for m in range(2):
            assert k(n, m) == expected.get((n, m), 0)


def test_rho_phi_32_frozen_tables():
    r = build_rho(3, 2)
    p = build_phi(3, 2)
    assert sorted(nonzero(r)) == [((0, 1), 1), ((2, 1), -1)]
    assert sorted(nonzero(p)) == [((1, 1), 1), ((2, 1), -1)]


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7])
def test_toda_degeneration_tables(N):
    # at M=1 the tables collapse to nearest-neighbour deltas
    k = build_kappa(N, 1)
    r = build_rho(N, 1)
    p = build_phi(N, 1)
    assert all(v == 0 for row in k.values for v in row)
    assert sorted(nonzero(r)) == sorted([((0, 0), 1), ((N - 1, 0), -1)])
    expected_phi: dict[tuple[int, int], int] = {}
    for site, d in [((1 % N, 0), 1), ((N - 1, 0), -1)]:
        expected_phi[site] = expected_phi.get(site, 0) + d
    assert sorted(nonzero(p)) == sorted(
        (s, v) for s, v in expected_phi.items() if v != 0
    )


@pytest.mark.parametrize("M", [1, 2, 3, 5])
def test_single_column_torus_all_zero(M):
    # N=1 collapses every difference condition pairwise
    assert all(v == 0 for row in build_kappa(1, M).values for v in row)
    assert all(v == 0 for row in build_rho(1, M).values for v in row)
    assert all(v == 0 for row in build_phi(1, M).values for v in row)


@pytest.mark.parametrize("N,M", COPRIME_PAIRS)
def test_builders_agree_with_difference_solver(N, M):
    k = build_kappa(N, M)
    r = build_rho(N, M)
    assert solve_difference_spec(kappa_difference_spec(N, M)) == k
    assert solve_difference_spec(rho_difference_spec(N, M)) == r


@pytest.mark.parametrize("N,M", COPRIME_PAIRS)
def test_kappa_difference_conditions(N, M):
    k = build_kappa(N, M)
    jumps: dict[tuple[int, int], int] = {}
    for src, d in [((1, -1), -1), ((1, 0), 1), ((0, -1), 1), ((0, 0), -1)]:
        p = canon(N, M, *src)
        jumps[p] = jumps.get(p, 0) + d
    for n in range(N):
        for m in range(M):
            assert k(n - 1, m + 1) - k(n, m) == jumps.get((n, m), 0)


@pytest.mark.parametrize("N,M", COPRIME_PAIRS)
def test_rho_difference_conditions(N, M):
    r = build_rho(N, M)
    jumps: dict[tuple[int, int], int] = {}
    for src, d in [((-1, -1), 1), ((1, 0), 1), ((0, -1), -1), ((0, 0), -1)]:
        p = canon(N, M, *src)
        jumps[p] = jumps.get(p, 0) + d
    for n in range(N):
        for m in range(M):
            assert r(n - 1, m + 1) - r(n, m) == jumps.get((n, m), 0)


@pytest.mark.parametrize("N,M", COPRIME_PAIRS)
def test_oddness_and_range(N, M):
    k = build_kappa(N, M)
    p = build_phi(N, M)
    for n in range(N):
        for m in range(M):
            assert k(n, m) == -k(-n, -m)
            assert p(n, m) == -p(-n, -m)
    for f in (k, build_rho(N, M), p):
        assert is_signlike(f)


@pytest.mark.parametrize("N,M", COPRIME_PAIRS)
def test_rho_identities(N, M):
    k = build_kappa(N, M)
    r = build_rho(N, M)
    p = build_phi(N, M)
    for m in range(M):
        assert sum(r(n, m) for n in range(N)) == 0
        for n in range(N):
            assert p(n, m) == r(n, m) + r(n - 1, m)
            if m % M != 0:
                assert r(n, m) == k(n + 1, m) + k(n, m)


@pytest.mark.parametrize("N,M", [(N, M) for N, M in COPRIME_PAIRS if N >= 2 and M >= 2])
def test_kappa_strictly_row_alternating(N, M):
    # between consecutive +1s in a row sits exactly one -1 (and vice versa)
    k = build_kappa(N, M)
    for m in range(M):
        row = [k(n, m) for n in range(N)]
        signs = [v for v in row if v != 0]
        if not signs:
            continue
        doubled = signs + signs
        for i in range(len(signs)):
            assert doubled[i] != doubled[i + 1]


@pytest.mark.parametrize("N,M", [(N, M) for N, M in COPRIME_PAIRS if N >= 2 and M >= 2])
def test_case_matches_euclid_parity(N, M):
    # case 1 iff the Euclidean algorithm on (N, M) takes an even number of steps
    expected = 1 if euclid_step_count(N, M) % 2 == 0 else 2
    assert euclid_parity(N, M) == expected


def test_euclid_parity_alternates_under_swap():
    for N, M in COPRIME_PAIRS:
        if N >= 2 and M >= 2:
            assert euclid_parity(N, M) != euclid_parity(M, N)


@pytest.mark.parametrize("N,M", SMALL_PAIRS)
def test_zeta_difference_conditions(N, M):
    for x in range(2 * M + 1):
        for y in range(2 * M + 1):
            z = build_zeta(N, M, x, y)
            jumps: dict[tuple[int, int], int] = {}
            if x <= y:
                srcs = [((1, -1), -1), ((x + 1, 0), 1), ((-y, -1), 1), ((-y + x, 0), -1)]
            else:
                srcs = [((0, 0), -1), ((x + 1, 0), 1), ((-y, -1), 1), ((-y + x + 1, -1), -1)]
            for src, d in srcs:
                p = canon(N, M, *src)
                jumps[p] = jumps.get(p, 0) + d
            for n in range(N):
                for m in range(M):
                    assert z(n - 1, m + 1) - z(n, m) == jumps.get((n, m), 0), (x, y, n, m)


@pytest.mark.parametrize("N,M", SMALL_PAIRS)
def test_zeta_antisymmetry_and_range(N, M):
    for x in range(2 * M + 1):
        for y in range(2 * M + 1):
            z = build_zeta(N, M, x, y)
            zt = build_zeta(N, M, y, x)
            assert is_signlike(z)
            for n in range(N):
                for m in range(M):
                    assert z(n, m) == -zt(-n, -m)


@pytest.mark.parametrize("N,M", SMALL_PAIRS)
def test_zeta_specializations(N, M):
    k = build_kappa(N, M)
    r = build_rho(N, M)
    p = build_phi(N, M)
    z00 = build_zeta(N, M, 0, 0)
    z01 = build_zeta(N, M, 0, 1)
    z11 = build_zeta(N, M, 1, 1)
    for n in range(N):
        for m in range(M):
            assert z00(n, m) == k(n, m)
            assert z11(n, m) == p(n, m)
            d = (1 if canon(N, M, n, m) == (0, 0) else 0) - (
                1 if canon(N, M, n, m) == ((-1) % N, 0) else 0
            )
            assert r(n, m) == z01(n, m) + d


@pytest.mark.parametrize("N,M", SMALL_PAIRS)
def test_zeta_row_sum_form(N, M):
    # zeta^{x,0}(n,m) telescopes to a kappa row sum
    k = build_kappa(N, M)
    for x in range(2 * M + 1):
        z = build_zeta(N, M, x, 0)
        for n in range(N):
            for m in range(M):
                assert z(n, m) == sum(k(n - t, m) for t in range(x + 1))


@pytest.mark.parametrize("N,M", SMALL_PAIRS)
def test_zeta_addition_rules(N, M):
    top = 2 * M
    for x in range(top):
        for y in range(top + 1):
            z1 = build_zeta(N, M, x + 1, y)
            z0 = build_zeta(N, M, x, y)
            z0y = build_zeta(N, M, 0, y)
            for n in range(N):
                for m in range(M):
                    rhs = z0(n, m) + z0y(n - x - 1, m)
                    if canon(N, M, n, m) == canon(N, M, x + 1, 0):
                        rhs += 1
                    drop = (-y + x, 0) if x < y else (-y + x + 1, 0)
                    if canon(N, M, n, m) == canon(N, M, *drop):
                        rhs -= 1
                    assert z1(n, m) == rhs, ("grow-x", x, y, n, m)
    for y in range(top):
        for x in range(top + 1):
            z1 = build_zeta(N, M, x, y + 1)
            z0 = build_zeta(N, M, x, y)
            zx0 = build_zeta(N, M, x, 0)
            for n in range(N):
                for m in range(M):
                    rhs = z0(n, m) + zx0(n + y + 1, m)
                    if canon(N, M, n, m) == canon(N, M, -y - 1, 0):
                        rhs -= 1
                    gain = (-y + x, 0) if y < x else (-y + x - 1, 0)
                    if canon(N, M, n, m) == canon(N, M, *gain):
                        rhs += 1
                    assert z1(n, m) == rhs, ("grow-y", x, y, n, m)


@pytest.mark.parametrize("N,M", SMALL_PAIRS)
def test_zeta_row_slice_lemma(N, M):
    # the m=0 slice of zeta^{x-1, M-1}, which controls cross-band coupling,
    # vanishes for x >= M and is a two-delta difference below that
    for x in range(1, 2 * M + 2):
        z = build_zeta(N, M, x - 1, M - 1)
        for n in range(N):
            if x >= M:
                want = 0
            else:
                want = (1 if n == (-M + x) % N else 0) - (1 if n == 0 else 0)
            assert z(n, 0) == want, (x, n)


def test_zeta_base_slice():
    # the x=1 slice realizes the base table zeta^{0,M-1}(n,0)
    for N, M in [(3, 2), (5, 2), (4, 3), (5, 3)]:
        z = build_zeta(N, M, 0, M - 1)
        for n in range(N):
            want = (1 if n == (-M + 1) % N else 0) - (1 if n == 0 else 0)
            assert z(n, 0) == want


def test_solver_rejects_non_coprime():
    with pytest.raises(ValueError):
        build_kappa(4, 2)
    with pytest.raises(ValueError):
        solve_difference_spec(DifferenceSpec(N=6, M=3, jumps=()))


def test_solver_rejects_non_closing_spec():
    spec = DifferenceSpec(N=3, M=2, jumps=(((0, 0), 1),))
    with pytest.raises(ValueError, match="close"):
        solve_difference_spec(spec)


def test_solver_rejects_wide_range():
    jumps = (((0, 0), 2), ((2, 1), -2))
    spec = DifferenceSpec(N=3, M=2, jumps=jumps)
    sol = solve_difference_spec(spec)
    assert is_signlike(sol)
    jumps = (((0, 0), 3), ((2, 1), -3))
    with pytest.raises(ValueError, match="no"):
        solve_difference_spec(DifferenceSpec(N=3, M=2, jumps=jumps))


def test_solver_ambiguity_needs_pin():
    spec = DifferenceSpec(N=3, M=2, jumps=())
    with pytest.raises(ValueError, match="ambiguous"):
        solve_difference_spec(spec)
    pinned = DifferenceSpec(N=3, M=2, jumps=(), pin=((1, 1), -1))
    sol = solve_difference_spec(pinned)
    assert all(v == -1 for row in sol.values for v in row)


@settings(max_examples=60, deadline=None)
@given(
    nm=st.sampled_from(SMALL_PAIRS),
    n=st.integers(min_value=-30, max_value=30),
    m=st.integers(min_value=-30, max_value=30),
    x=st.integers(min_value=0, max_value=5),
    y=st.integers(min_value=0, max_value=5),
)
def test_zeta_periodicity(nm, n, m, x, y):
    N, M = nm
    z = build_zeta(N, M, x, y)
    assert z(n, m) == z(n % N, m % M) == z(n + 7 * N, m - 3 * M)

"""Tests for the periodic band algebra, block row reduction, and spectral matrix."""

from fractions import Fraction

import pytest

from dkp.lattice import (
    abstract_level,
    c_alpha,
    c_alpha_minus_beta,
    c_generators,
    det_minor_expansion,
    level_entries,
    reduce_step,
    reduction_levels,
    top_level,
)
from dkp.symalg import ALPHA, BETA, ExactPoly, gen_A, gen_B, gen_c
from lattice_oracle import (
    BandMatrix,
    band_product,
    det_permutation,
    dominance_point_random,
    dominance_point_special,
    dominance_rank,
    matrix_rank_exact,
    w_matrix,
    x_band,
)
from symalg_oracle import degree, is_homogeneous

TORI = [(3, 2), (5, 2), (4, 3), (2, 3), (3, 4), (5, 3)]


def A(N, k, m):
    return ExactPoly.var(gen_A(k % N, m))


def B(N, k, m):
    return ExactPoly.var(gen_B(k % N, m))


# ---------------------------------------------------------------- BandMatrix


def test_band_matrix_drops_zero_entries_and_reduces_sites():
    bm = BandMatrix(3, {(0, 4): ExactPoly.const(2), (1, 0): ExactPoly.zero()})
    assert bm.entries == {(0, 1): ExactPoly.const(2)}


def test_band_matrix_add_sub_neg():
    one = ExactPoly.const(1)
    a = BandMatrix(2, {(0, 0): one, (1, 1): one})
    b = BandMatrix(2, {(0, 0): one})
    assert (a - b).entries == {(1, 1): one}
    assert (a + (-a)).entries == {}


def test_band_matrix_mul_matches_dense():
    N = 3
    x = x_band(N, 2, 0)
    y = x_band(N, 2, 1)
    prod = y * x
    # dense check over one period window of the infinite matrix
    span = 4
    for k in range(N):
        for off in range(-2, 3):
            dense = ExactPoly.zero()
            for t in range(-span, span + 1):
                dense = dense + y.entry(k, k + t) * x.entry(k + t, k + off)
            assert prod.entry(k, k + off) == dense


def test_band_matrix_mul_associative():
    f0, f1, f2 = (x_band(3, 4, m) for m in range(3))
    assert (f2 * f1) * f0 == f2 * (f1 * f0)


def test_band_matrix_transpose_involution_and_antihomomorphism():
    x = x_band(3, 2, 0)
    y = x_band(3, 2, 1)
    assert x.transpose().transpose() == x
    assert (y * x).transpose() == x.transpose() * y.transpose()


def test_band_matrix_transpose_band_index_map():
    for N, M in [(3, 2), (4, 3)]:
        w = M
        lev = reduction_levels(N, M)[1]
        t = BandMatrix.from_band_entries(N, w, lev).transpose().entries
        for (i, k), p in lev.items():
            if p:  # band index 2w - i of the transpose sits at offset i - w
                assert t[(i - w, (k + w - i) % N)] == p


def test_band_matrix_upper_lower_split():
    c = band_product(3, 2)
    assert c.upper_part() + c.lower_part() == c
    assert all(o > 0 for o, _ in c.upper_part().entries)
    assert all(o <= 0 for o, _ in c.lower_part().entries)


def test_band_matrix_trace_per_period():
    x = x_band(3, 2, 0)
    expect = -(A(3, 0, 0) + A(3, 1, 0) + A(3, 2, 0))
    assert x.trace_per_period() == expect


def test_band_matrix_commutator_self_is_zero():
    x = x_band(3, 2, 1)
    assert x.commutator(x).entries == {}


def test_band_matrix_halfwidth():
    assert band_product(3, 2).halfwidth() == 2


# ---------------------------------------------------------- reduction levels


def test_x_band_entries():
    x = x_band(3, 2, 1)
    assert x.entry(0, 1) == ExactPoly.const(1)
    assert x.entry(1, 1) == -A(3, 1, 1)
    assert x.entry(2, 1) == -B(3, 2, 1)
    assert not x.entry(0, 2 + 1)  # offset outside band


@pytest.mark.parametrize("N,M", TORI)
def test_reduction_levels_match_band_products(N, M):
    levels = reduction_levels(N, M)
    for j in range(1, M + 1):
        halfwidth = M + 1 - j
        assert BandMatrix.from_band_entries(N, halfwidth, levels[j]) == band_product(N, M, j)


@pytest.mark.parametrize("N,M", TORI)
def test_reduction_entries_homogeneous_of_band_degree(N, M):
    levels = reduction_levels(N, M)
    for j, lev in levels.items():
        for (i, k), p in lev.items():
            if i == 0:
                assert p == ExactPoly.const(1)
            elif p:
                assert is_homogeneous(p, N, M)
                assert degree(p, N, M) == i


@pytest.mark.parametrize("N", [3, 5])
def test_two_layer_level_one_closed_forms(N):
    lev = reduction_levels(N, 2)[1]
    for k in range(N):
        assert lev[(1, k)] == -A(N, k, 1) - A(N, k + 1, 0)
        assert lev[(2, k)] == -B(N, k, 1) + A(N, k, 1) * A(N, k, 0) - B(N, k + 1, 0)
        assert lev[(3, k)] == A(N, k - 1, 0) * B(N, k, 1) + B(N, k, 0) * A(N, k, 1)
        assert lev[(4, k)] == B(N, k - 1, 0) * B(N, k, 1)


@pytest.mark.parametrize("N,M", TORI)
def test_level_entries_read_each_level_in_c_generators_order(N, M):
    levels = reduction_levels(N, M)
    for j in range(1, M + 1):
        entries = level_entries(N, M, j)
        assert list(entries) == c_generators(N, M, j)
        assert entries == {gen_c(j, i, k): p for (i, k), p in levels[j].items() if i > 0}


def test_top_level_is_single_factor():
    N, M = 4, 3
    assert BandMatrix.from_band_entries(N, 1, top_level(N, M)) == x_band(N, M, M - 1)


def test_reduce_step_rejects_out_of_range_level():
    with pytest.raises(ValueError):
        reduce_step(3, 2, 2, top_level(3, 2))
    with pytest.raises(ValueError):
        reduce_step(3, 2, 0, top_level(3, 2))


def test_reduction_requires_coprime_torus():
    with pytest.raises(ValueError):
        reduction_levels(4, 2)


# ------------------------------------------------------------- alpha wrapping


def test_c_alpha_collects_band_shifts():
    N, M = 3, 2
    band = abstract_level(N, M, 1)
    mat = c_alpha(N, M, band)
    c = lambda i, k: ExactPoly.var(gen_c(1, i, k))
    a = lambda s: ExactPoly.var(ALPHA, s)
    # offset classes mod 3 inside halfwidth 2: l-k=1 picks offsets {1, -2}
    assert mat[0][1] == c(1, 0) + a(-1) * c(4, 0)
    # l-k=2 picks offsets {2, -1}
    assert mat[0][2] == ExactPoly.const(1) + a(-1) * c(3, 0)
    # l-k=0 picks offsets {0, 3->none}; halfwidth 2 keeps only 0
    assert mat[1][1] == c(2, 1)
    # l-k=-1 (i.e. 2 mod 3) handled above; l-k=-2 wraps to +1 with alpha
    assert mat[2][1] == c(3, 2) + a(1) * ExactPoly.const(1)


def test_c_alpha_minus_beta_subtracts_beta_on_diagonal():
    N, M = 3, 2
    band = abstract_level(N, M, 1)
    plain = c_alpha(N, M, band)
    shifted = c_alpha_minus_beta(N, M, band)
    for k in range(N):
        assert shifted[k][k] == plain[k][k] - ExactPoly.var(BETA)
        for l in range(N):
            if l != k:
                assert shifted[k][l] == plain[k][l]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_single_layer_spectral_matrix_equals_wrapped_band(N):
    W = w_matrix(N, 1)
    C = c_alpha_minus_beta(N, 1, reduction_levels(N, 1)[1])
    assert W == C


def test_alpha_corner_twists():
    C = c_alpha(3, 1, reduction_levels(3, 1)[1])
    assert C[0][2] == ExactPoly.var(ALPHA, -1) * (-B(3, 0, 0))
    assert C[2][0] == ExactPoly.var(ALPHA)


def test_alpha_corner_twists_two_and_four_sites():
    # N = 2: the corners are also band neighbours, so the twist adds to them
    C = c_alpha(2, 1, reduction_levels(2, 1)[1])
    assert C[0][1] == ExactPoly.const(1) - ExactPoly.var(ALPHA, -1) * B(2, 0, 0)
    assert C[1][0] == ExactPoly.var(ALPHA) - B(2, 1, 0)
    C = c_alpha(4, 1, reduction_levels(4, 1)[1])
    assert C[0][3] == ExactPoly.var(ALPHA, -1) * (-B(4, 0, 0))
    assert C[3][0] == ExactPoly.var(ALPHA)


def test_w_matrix_block_structure():
    N, M = 3, 2
    W = w_matrix(N, M)
    beta = ExactPoly.var(BETA)
    for n in range(N):
        assert W[n][n] == -beta
        assert W[N + n][N + n] == -ExactPoly.const(1)
    # block (1,0) holds layer m=0, block (0,1) holds layer m=1
    assert W[N + 0][0] == -A(N, 0, 0)
    assert W[N + 1][0] == -B(N, 1, 0)
    assert W[N + 0][1] == ExactPoly.const(1)
    assert W[0][N + 0] == -A(N, 0, 1)
    assert W[0][N + 2] == -B(N, 0, 1) * ExactPoly.var(ALPHA, -1)
    assert W[2][N + 0] == ExactPoly.var(ALPHA)


# ---------------------------------------------------------------- determinants


@pytest.mark.parametrize("N,M", [(3, 1), (3, 2)])
def test_det_minor_expansion_matches_permutation_oracle(N, M):
    C = c_alpha_minus_beta(N, M, reduction_levels(N, M)[1])
    assert det_minor_expansion(C) == det_permutation(C)


@pytest.mark.parametrize("N,M", [(3, 1), (3, 2)])
def test_full_spectral_det_equals_signed_band_det(N, M):
    d_full = det_minor_expansion(w_matrix(N, M))
    d_band = det_minor_expansion(c_alpha_minus_beta(N, M, reduction_levels(N, M)[1]))
    assert d_full == d_band * ((-1) ** (N * (M - 1)))


def test_det_on_constant_matrix():
    mat = [
        [ExactPoly.const(Fraction(1, 2)), ExactPoly.const(3)],
        [ExactPoly.const(-1), ExactPoly.const(4)],
    ]
    assert det_minor_expansion(mat) == ExactPoly.const(Fraction(5))
    assert det_permutation(mat) == ExactPoly.const(Fraction(5))


# ------------------------------------------------------------------ dominance


def test_matrix_rank_exact():
    assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
    assert matrix_rank_exact([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert matrix_rank_exact([[Fraction(1, 3), 0], [0, Fraction(2, 7)]]) == 2


@pytest.mark.parametrize(
    "N,M,j",
    [(3, 2, 1), (4, 3, 1), (4, 3, 2), (2, 3, 1), (2, 3, 2)],
)
def test_reduction_differential_full_rank(N, M, j):
    rank, dim = dominance_rank(N, M, j)
    assert dim == 2 * (M + 1 - j) * N
    assert rank == dim
    pt = dominance_point_random(N, M, j, seed=97 + 10 * j)
    rank2, dim2 = dominance_rank(N, M, j, point=pt)
    assert (rank2, dim2) == (dim, dim)


def test_dominance_special_point_shape():
    pt = dominance_point_special(3, 2, 1)
    ones = [g for g, v in pt.items() if v == 1]
    assert sorted(ones) == sorted(gen_c(2, 2, k) for k in range(3))
    assert all(v == 0 for g, v in pt.items() if g not in ones)

"""Bracket tables, Leibniz extension, closure, and the identity battery."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp.curve import compute_curve
from dkp.poisson import (
    BRACKET1_SIGN,
    BracketTable,
    ab_generators,
    bracket1_c,
    bracket1_c_pair,
    bracket2_AB,
    bracket2_c,
    c_generators,
    closure_verify,
    induced_bracket_c,
    level_entries,
    pullback,
    qlink_report,
    verify_casimir1,
    verify_casimir2,
    verify_compatibility,
    verify_involution,
    verify_jacobi,
    verify_ladder,
)
from dkp.symalg import ALPHA, BETA, ExactPoly, gen_A, gen_B, gen_c, poly_sum
from poisson_oracle import (
    bracket1_c_literal,
    bracket_extend,
    first_bracket_degree_obstruction,
    first_flow_rhs_AB,
    jacobi_defect,
    verify_bracrel,
    verify_degree_of_bracket,
)
from symalg_oracle import variables

TORI = [(3, 2), (5, 2), (4, 3)]


def A(n, m=0, N=10**9):
    return ExactPoly.var(gen_A(n % N, m))


def B(n, m=0, N=10**9):
    return ExactPoly.var(gen_B(n % N, m))


# ------------------------------------------------------------- bracket2 on A,B


class TestBracket2AB:
    @pytest.mark.parametrize("N", [3, 4])
    def test_single_layer_table(self, N):
        t = bracket2_AB(N, 1)
        for n in range(N):
            a_n, a_next = gen_A(n, 0), gen_A((n + 1) % N, 0)
            b_n, b_prev = gen_B(n, 0), gen_B((n - 1) % N, 0)
            assert t.entry(a_n, a_next) == B(n + 1, 0, N)
            assert t.entry(a_n, b_n) == A(n, 0, N) * B(n, 0, N)
            assert t.entry(gen_A((n - 1) % N, 0), b_n) == -A(n - 1, 0, N) * B(n, 0, N)
            assert t.entry(b_prev, b_n) == -B(n - 1, 0, N) * B(n, 0, N)
            if N >= 4:
                assert not t.entry(a_n, gen_A((n + 2) % N, 0))
                assert not t.entry(b_n, gen_B((n + 2) % N, 0))
                assert not t.entry(a_n, gen_B((n + 2) % N, 0))

    def test_two_site_chain_merged_deltas(self):
        # N=2: the B(n,m) and -B(n+1,m) delta terms fire simultaneously.
        t = bracket2_AB(2, 1)
        assert t.entry(gen_A(0, 0), gen_A(1, 0)) == B(1, 0, 2) - B(0, 0, 2)

    def test_spot_value_BB(self):
        t = bracket2_AB(3, 2)
        assert t.entry(gen_B(1, 1), gen_B(0, 0)) == (
            ExactPoly.var(gen_B(1, 1)) * ExactPoly.var(gen_B(0, 0))
        )

    def test_self_bracket_zero(self):
        t = bracket2_AB(3, 2)
        assert not t.entry(gen_A(0, 0), gen_A(0, 0))

    @pytest.mark.parametrize("N,M", TORI + [(2, 3), (4, 1)])
    def test_antisymmetry(self, N, M):
        t = bracket2_AB(N, M)
        gens = ab_generators(N, M)
        for g1, g2 in itertools.combinations_with_replacement(gens, 2):
            assert t.entry(g1, g2) == -t.entry(g2, g1)

    @pytest.mark.parametrize("N,M", TORI)
    def test_jacobi_all_triples(self, N, M):
        t = bracket2_AB(N, M)
        gens = [ExactPoly.var(g) for g in ab_generators(N, M)]
        for x, y, z in itertools.combinations(gens, 3):
            assert not jacobi_defect(t, x, y, z)

    def test_jacobi_adjacent_row_triple(self):
        t = bracket2_AB(3, 2)
        assert not jacobi_defect(
            t,
            ExactPoly.var(gen_A(2, 0)),
            ExactPoly.var(gen_A(0, 0)),
            ExactPoly.var(gen_A(1, 0)),
        )

    def test_jacobi_pure_product_and_repeated(self):
        t = bracket2_AB(3, 2)
        b0, b1, b2 = (ExactPoly.var(gen_B(k, 0)) for k in range(3))
        assert not jacobi_defect(t, b0, b1, b2)
        a0 = ExactPoly.var(gen_A(0, 0))
        assert not jacobi_defect(t, a0, a0, b1)

    def test_leibniz_pinned_example(self):
        t = bracket2_AB(3, 2)
        a, b = ExactPoly.var(gen_A(0, 0)), ExactPoly.var(gen_B(0, 0))
        assert bracket_extend(t, a * a, b) == (
            a * t.entry(gen_A(0, 0), gen_B(0, 0)) * 2
        )

    def test_bracket_with_constant_is_zero(self):
        t = bracket2_AB(3, 2)
        assert not bracket_extend(t, ExactPoly.var(gen_A(0, 0)), ExactPoly.const(5))

    def test_foreign_generator_rejected(self):
        t = bracket2_AB(3, 2)
        with pytest.raises(ValueError):
            bracket_extend(
                t, ExactPoly.var(gen_c(1, 1, 0)), ExactPoly.var(gen_A(0, 0))
            )

    @pytest.mark.parametrize("N,M", [(4, 1), (3, 2), (2, 3)])
    def test_first_flow_is_bracket_with_sum_A(self, N, M):
        t = bracket2_AB(N, M)
        q = poly_sum(
            ExactPoly.var(gen_A(k, l)) for l in range(M) for k in range(N)
        )
        rhs = first_flow_rhs_AB(N, M)
        for g, want in rhs.items():
            assert bracket_extend(t, q, ExactPoly.var(g)) == want

    def test_single_layer_flow_closed_form(self):
        # M=1: dA(n)/dt = B(n) - B(n+1), dB(n)/dt = (A(n) - A(n-1)) B(n).
        N = 4
        rhs = first_flow_rhs_AB(N, 1)
        for n in range(N):
            assert rhs[gen_A(n, 0)] == B(n, 0, N) - B(n + 1, 0, N)
            assert rhs[gen_B(n, 0)] == (A(n, 0, N) - A(n - 1, 0, N)) * B(n, 0, N)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
)
def test_extension_antisymmetry_and_leibniz(data):
    N, M = 3, 2
    t = bracket2_AB(N, M)
    gens = ab_generators(N, M)
    pick = st.sampled_from(gens)
    coef = st.integers(min_value=-3, max_value=3)
    def poly(tag):
        g1 = data.draw(pick, label=f"{tag}1")
        g2 = data.draw(pick, label=f"{tag}2")
        c1 = data.draw(coef, label=f"{tag}c1")
        c2 = data.draw(coef, label=f"{tag}c2")
        return ExactPoly.var(g1) * c1 + ExactPoly.var(g2) * ExactPoly.var(g1) * c2
    f, g, h = poly("f"), poly("g"), poly("h")
    assert bracket_extend(t, f, g) == -bracket_extend(t, g, f)
    assert bracket_extend(t, f * g, h) == (
        f * bracket_extend(t, g, h) + g * bracket_extend(t, f, h)
    )


# ------------------------------------------- packed kernel against definition

TABLES = {
    "bracket2_AB": bracket2_AB,
    "bracket2_c": lambda N, M: bracket2_c(N, M, 1),
    "bracket1_c": bracket1_c,
}


def _bracket_by_definition(t, f, g):
    """sum_{a,b} df/da * dg/db * {a, b}, with ExactPoly alone."""
    return poly_sum(
        f.partial(a) * g.partial(b) * t.entry(a, b)
        for a in sorted(variables(f))
        for b in sorted(variables(g))
    )


def _poly(data, t, tag):
    """A few terms: Fraction coefficients, exponents up to 3, passive alpha/beta."""
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    factor = st.tuples(st.sampled_from(t.universe), st.integers(min_value=1, max_value=3))
    passive = st.sampled_from([(), ((ALPHA, -1),), ((BETA, 2),), ((ALPHA, -1), (BETA, 2))])
    out = ExactPoly.zero()
    for i in range(data.draw(st.integers(min_value=1, max_value=3), label=f"{tag} terms")):
        term = ExactPoly.const(data.draw(coef, label=f"{tag}{i} coef"))
        for gen, e in data.draw(st.lists(factor, min_size=1, max_size=3), label=f"{tag}{i}"):
            term = term * ExactPoly.var(gen, e)
        for gen, e in data.draw(passive, label=f"{tag}{i} passive"):
            term = term * ExactPoly.var(gen, e)
        out = out + term
    return out


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("N,M", [(3, 2), (2, 3), (4, 1)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_packed_bracket_matches_definition(name, N, M, data):
    t = TABLES[name](N, M)
    f, g = _poly(data, t, "f"), _poly(data, t, "g")
    assert bracket_extend(t, f, g) == _bracket_by_definition(t, f, g)


def test_one_generator_fast_path_scales_entry():
    t = bracket2_AB(4, 1)
    a, b = gen_A(0, 0), gen_B(0, 0)
    got = bracket_extend(t, ExactPoly.var(a) * Fraction(2, 3), ExactPoly.var(b) * 3)
    assert got == A(0) * B(0) * 2


def test_largest_packed_exponent_is_exact():
    # 2**13 - 1 on both sides: result exponents near 2**14 stay unwrapped.
    t = bracket2_AB(3, 2)
    e = 2**13 - 1
    f = ExactPoly.var(gen_A(0, 0), e) * ExactPoly.var(ALPHA, -e)
    g = ExactPoly.var(gen_B(0, 0), e) * ExactPoly.var(gen_A(1, 0))
    assert bracket_extend(t, f, g) == _bracket_by_definition(t, f, g)


@pytest.mark.parametrize(
    "gen,exp",
    [
        (gen_A(0, 0), 2**31),
        (ALPHA, -(2**31)),
        (gen_B(1, 1), 2**29),
        (gen_A(0, 0), 2**13),
        (ALPHA, -(2**13)),
    ],
)
def test_exponent_outside_field_raises(gen, exp):
    t = bracket2_AB(3, 2)
    f = ExactPoly.var(gen, exp) * ExactPoly.var(gen_A(1, 0))
    with pytest.raises(OverflowError):
        bracket_extend(t, f, ExactPoly.var(gen_B(0, 0)))
    with pytest.raises(OverflowError):
        bracket_extend(t, ExactPoly.var(gen_B(0, 0)), f)


def test_pullback_refuses_a_product_past_the_field():
    # each factor fits the field, but c_1(0)^2 would carry A(0,0)^8192
    c = gen_c(1, 1, 0)
    pull = pullback(bracket2_AB(3, 2), {c: ExactPoly.var(gen_A(0, 0), 4096)})
    assert bracket2_AB(3, 2).unpack(pull(ExactPoly.var(c))) == ExactPoly.var(gen_A(0, 0), 4096)
    for e in (2, 8):
        with pytest.raises(OverflowError):
            pull(ExactPoly.var(c, e))


@pytest.mark.parametrize(
    "build",
    [
        lambda: closure_verify(3, 2, 0),
        lambda: closure_verify(3, 2, 3),
        lambda: bracket2_c(3, 2, 0),
        lambda: bracket2_c(3, 2, 5),
        lambda: c_generators(3, 2, 0),
        lambda: level_entries(3, 2, 3),
    ],
    ids=["closure-0", "closure-3", "bracket2_c-0", "bracket2_c-5", "c_generators-0", "level_entries-3"],
)
def test_level_outside_the_reduction_is_rejected(build):
    with pytest.raises(ValueError, match="reduction level must satisfy 1 <= j <= M, got"):
        build()


def test_diagonal_entry_is_read_back_unchanged():
    # the reverse key of a diagonal pair is the pair itself: filling it with
    # the negated value would flip every later lookup
    g = gen_A(0, 0)
    t = BracketTable("custom", 3, 2, [g], lambda a, b: ExactPoly.const(1))
    assert t.entry(g, g) == ExactPoly.const(1)
    assert t.entry(g, g) == ExactPoly.const(1)


def test_foreign_generator_rejected_in_polynomials():
    t = bracket2_AB(3, 2)
    foreign = ExactPoly.var(gen_c(1, 1, 0)) * ExactPoly.var(gen_A(0, 0))
    with pytest.raises(ValueError):
        bracket_extend(t, foreign, ExactPoly.var(gen_B(0, 0)))


# --------------------------------------------------------- induced c-bracket


class TestInducedBracket:
    @pytest.mark.parametrize(
        "N,M",
        [(3, 1), (4, 1), (3, 2), (5, 2), (4, 3), (2, 3)],
    )
    def test_closure_all_levels(self, N, M):
        for j in range(1, M + 1):
            report = closure_verify(N, M, j)
            assert report["ok"], report["failures"][:3]
            n_gens = 2 * (M + 1 - j) * N
            assert report["cases"] == n_gens * (n_gens + 1) // 2

    def test_closure_covers_far_apart_band_indices(self):
        # the all-pairs sweep includes i1 < i2 + 3 (e.g. i1=1, i2=4)
        report = closure_verify(3, 2, 1)
        assert report["cases"] == 78  # all 12*13/2 pairs, none skipped

    def test_diagonal_pair_vanishes(self):
        assert not induced_bracket_c(3, 2, 1, (4, 1), (4, 1))
        assert not induced_bracket_c(5, 2, 1, (2, 3), (2, 3))

    def test_antisymmetry_via_swap(self):
        p = induced_bracket_c(3, 2, 1, (4, 1), (1, 2))
        q = induced_bracket_c(3, 2, 1, (1, 2), (4, 1))
        assert p == -q and p

    def test_pinned_pair_equals_expansion(self):
        # level 1 pair (c_4(1), c_1(1)) on (3,2): closed form == A,B route
        from dkp.lattice import reduction_levels

        lev = reduction_levels(3, 2)[1]
        expansion = {gen_c(1, i, k): p for (i, k), p in lev.items() if i > 0}
        closed = induced_bracket_c(3, 2, 1, (4, 1), (1, 1))
        t = bracket2_AB(3, 2)
        direct = bracket_extend(
            t, expansion[gen_c(1, 4, 1)], expansion[gen_c(1, 1, 1)]
        )
        assert closed.substitute(expansion) == direct

    def test_single_layer_closed_values(self):
        # via c_1 = -A, c_2 = -B: {c1(n), c1(n+1)} = -c2(n+1),
        # {c1(n), c2(n)} = c1(n)c2(n)... with the kappa=0, rho=delta-delta
        # single-layer tables.
        N = 4
        for n in range(N):
            c1 = lambda k: ExactPoly.var(gen_c(1, 1, k % N))
            c2 = lambda k: ExactPoly.var(gen_c(1, 2, k % N))
            assert induced_bracket_c(N, 1, 1, (1, (n + 1) % N), (1, n)) == c2(n + 1)
            assert induced_bracket_c(N, 1, 1, (2, n), (1, n)) == -(c1(n) * c2(n))
            assert induced_bracket_c(N, 1, 1, (2, n), (1, (n - 1) % N)) == (
                c1(n - 1) * c2(n)
            )
            # {c2(n-1), c2(n)} = -c2(n-1)c2(n); arguments here are swapped
            assert induced_bracket_c(N, 1, 1, (2, n), (2, (n - 1) % N)) == (
                c2(n - 1) * c2(n)
            )

    @pytest.mark.parametrize("N,M", [(3, 2), (5, 2), (4, 3)])
    def test_jacobi_bracket2_c(self, N, M):
        t = bracket2_c(N, M, 1)
        gens = [ExactPoly.var(g) for g in c_generators(N, M)]
        for x, y, z in itertools.combinations(gens, 3):
            assert not jacobi_defect(t, x, y, z)


# ------------------------------------------------------------------- bracket1


# N > M, N < M and M = 1 shapes, up to 1,764 ordered pairs on (7,3)
BRACKET1_TORI = [
    (1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (2, 3), (5, 2),
    (4, 3), (3, 4), (5, 3), (7, 2), (5, 4), (4, 5), (7, 3),
]


class TestBracket1:
    @pytest.mark.parametrize("N,M", BRACKET1_TORI)
    def test_closed_form_matches_the_trace_formula(self, N, M):
        gens = [(i, k) for i in range(1, 2 * M + 1) for k in range(N)]
        for g1, g2 in itertools.product(gens, repeat=2):
            literal = bracket1_c_literal(N, M, g1, g2) * BRACKET1_SIGN
            assert bracket1_c_pair(N, M, g1, g2) == literal, (g1, g2)

    @pytest.mark.parametrize("N", [3, 4])
    def test_single_layer_classical_values(self, N):
        # band variables carry c_1 = -A, c_2 = -B, so the classical
        # {A(n),B(n)}_1 = -B(n), {A(n-1),B(n)}_1 = +B(n) reads
        # {c_1(n),c_2(n)}_1 = +c_2(n), {c_1(n-1),c_2(n)}_1 = -c_2(n).
        for n in range(N):
            c2 = ExactPoly.var(gen_c(1, 2, n))
            assert bracket1_c_pair(N, 1, (1, n), (2, n)) == c2
            assert bracket1_c_pair(N, 1, (1, (n - 1) % N), (2, n)) == -c2
            assert bracket1_c_literal(N, 1, (1, n), (2, n)) == -c2

    def test_single_layer_zero_pattern(self):
        N = 4
        for n in range(N):
            for k in range(N):
                assert not bracket1_c_pair(N, 1, (1, n), (1, k))
                assert not bracket1_c_pair(N, 1, (2, n), (2, k))
                if k not in (n, (n + 1) % N):
                    assert not bracket1_c_pair(N, 1, (1, n), (2, k))

    def test_orientation_constant(self):
        assert BRACKET1_SIGN == -1
        p = bracket1_c_literal(3, 2, (1, 0), (3, 0))
        assert bracket1_c_pair(3, 2, (1, 0), (3, 0)) == -p

    def test_upper_lower_mixed_pair_vanishes(self):
        # (3,2): c_1 sits strictly above the diagonal, c_2..c_4 weakly below.
        for i_low in (2, 3, 4):
            for k in range(3):
                for l in range(3):
                    assert not bracket1_c_pair(3, 2, (1, k), (i_low, l))

    def test_self_pair_vanishes(self):
        for i in range(1, 5):
            assert not bracket1_c_pair(3, 2, (i, 1), (i, 1))

    @pytest.mark.parametrize("N,M", [(3, 2), (5, 2), (4, 3)])
    def test_jacobi_bracket1_c(self, N, M):
        t = bracket1_c(N, M)
        gens = [ExactPoly.var(g) for g in c_generators(N, M)]
        for x, y, z in itertools.combinations(gens, 3):
            assert not jacobi_defect(t, x, y, z)

    def test_table_antisymmetry(self):
        t = bracket1_c(3, 2)
        gens = c_generators(3, 2)
        for g1, g2 in itertools.combinations_with_replacement(gens, 2):
            assert t.entry(g1, g2) == -t.entry(g2, g1)


# ----------------------------------------------------------- identity suites


class TestIdentities:
    @pytest.mark.parametrize("N,M", [(3, 1), (3, 2), (5, 2), (4, 3), (2, 3)])
    def test_compatibility(self, N, M):
        report = verify_compatibility(N, M)
        assert report["ok"], report["failures"][:3]

    @pytest.mark.parametrize("N,M", [(3, 1), (3, 2), (5, 2), (4, 3)])
    def test_bracrel_flipped_orientation_exact(self, N, M):
        report = verify_bracrel(N, M)
        assert report["flipped_ok"], report["flipped_failures"][:3]

    def test_bracrel_printed_orientation_fails(self):
        # The printed difference orientation is incompatible with the
        # classical first-bracket orientation on every c_M-sensitive pair.
        report = verify_bracrel(3, 2)
        assert not report["ok"]
        assert len(report["failures"]) == 18

    def test_bracrel_printed_orientation_fails_on_single_layer(self):
        report = verify_bracrel(3, 1)
        assert (report["ok"], len(report["failures"]), report["cases"]) == (False, 6, 21)
        assert report["flipped_ok"]

    def test_case_counts_on_3_2(self):
        # every distinct triple of the 12 level-1 generators, every unordered
        # generator pair of the three tables (twice for the two c-tables)
        assert verify_compatibility(3, 2)["cases"] == 220
        assert verify_degree_of_bracket(3, 2)["cases"] == 234

    @pytest.mark.parametrize(
        "N,M,pairs",
        [
            (3, 1, [(2, 1), (3, 2)]),
            (3, 2, [(3, 1), (4, 2), (6, 4), (9, 7)]),
            (5, 2, [(3, 1), (4, 2), (5, 3), (6, 4), (8, 6), (10, 8), (13, 11), (15, 13)]),
            (4, 3, None),
            (2, 3, [(4, 1), (5, 2), (6, 3), (8, 5)]),
        ],
    )
    def test_ladder(self, N, M, pairs):
        report = verify_ladder(N, M)
        assert report["ok"], report["failures"][:3]
        if pairs is not None:
            assert report["pairs"] == pairs

    def test_ladder_cross_row_pair_documented(self):
        report = verify_ladder(2, 3)
        assert report["in_row"]["5->2"] is False
        assert all(v for k, v in report["in_row"].items() if k != "5->2")

    @pytest.mark.parametrize(
        "N,M,expected",
        [
            (3, 1, [3, 6]),
            (3, 2, [3, 6, 9, 12]),
            (5, 2, [5, 10, 15, 20]),
            (4, 3, [4, 8, 12, 16, 20, 24]),
            (2, 3, [2, 4, 6, 8, 10, 12]),
        ],
    )
    def test_casimir2(self, N, M, expected):
        report = verify_casimir2(N, M)
        assert report["ok"], report["failures"][:3]
        assert report["degrees"] == expected

    @pytest.mark.parametrize(
        "N,M,expected,agree",
        [
            (3, 1, [1, 6], True),
            (3, 2, [1, 2, 7, 12], True),
            (5, 2, [1, 2, 11, 20], True),
            (4, 3, [1, 2, 3, 10, 17, 24], True),
            (2, 3, [1, 2, 3, 5, 10, 12], False),
        ],
    )
    def test_casimir1(self, N, M, expected, agree):
        report = verify_casimir1(N, M)
        assert report["ok"], report["failures"][:3]
        assert report["degrees"] == expected
        assert report["sets_agree"] is agree
        if not agree:
            assert report["degree_rule_set"] == [1, 2, 3, 10, 12]

    @pytest.mark.parametrize("N,M", [(3, 2), (5, 2), (4, 3)])
    def test_involution(self, N, M):
        report = verify_involution(N, M)
        assert report["ok"], report["failures"][:3]

    def test_involution_pair_count(self):
        assert verify_involution(3, 2)["cases"] == 28

    @pytest.mark.parametrize("N,M", [(3, 1), (3, 2), (5, 2), (4, 3), (2, 3)])
    def test_qlink_exact_multiplier_law(self, N, M):
        report = qlink_report(N, M)
        assert report["exact_ok"]
        assert not report["slot_failures"]

    def test_qlink_literal_reading_fails_on_multiplicity(self):
        report = qlink_report(3, 2)
        assert not report["literal_unit_ok"]
        bad = [
            r["source_degree"]
            for r in report["rows"]
            if r.get("applicable") and not r["literal_unit_ok"]
        ]
        assert bad == [4]
        by_src = {r["source_degree"]: r for r in report["rows"]}
        assert by_src[4]["multiplier_expected"] == -2
        assert by_src[2]["target_constant"] == -1  # the beta^N slot

    def test_qlink_cross_row_failure_documented(self):
        report = qlink_report(2, 3)
        assert report["exact_ok"]
        by_src = {r["source_degree"]: r for r in report["rows"]}
        assert by_src[5]["in_row"] is False
        assert by_src[5]["literal_unit_ok"] is False

    @pytest.mark.parametrize("N,M", [(3, 2), (5, 2)])
    def test_degree_of_bracket(self, N, M):
        report = verify_degree_of_bracket(N, M)
        assert report["ok"], report["failures"][:3]

    @pytest.mark.parametrize("M,forces", [(3, False), (4, False), (5, True), (7, True)])
    def test_degree_obstruction_for_large_M(self, M, forces):
        report = first_bracket_degree_obstruction(M)
        assert report["forces_zero_bracket"] is forces
        assert report["all_negative"] is (M >= 5)
        assert report["target_degrees"] == {"AA": 2 - M, "AB": 3 - M, "BB": 4 - M}

    @pytest.mark.parametrize(
        "name,suite",
        [
            ("jacobi", verify_jacobi),
            ("closure", closure_verify),
            ("compatibility", verify_compatibility),
            ("bracrel", verify_bracrel),
            ("ladder", verify_ladder),
            ("involution", verify_involution),
            ("casimir2", verify_casimir2),
            ("casimir1", verify_casimir1),
            ("qlink", qlink_report),
            ("degree_of_bracket", verify_degree_of_bracket),
        ],
    )
    def test_suite_report_names_its_identity(self, name, suite):
        assert suite(3, 1)["identity"] == name

    def test_ledger_polys_pass_through_extension(self):
        # spot-check an involution pair by hand: {q_1, q_12}_2 = 0 on (3,2)
        curve = compute_curve(3, 2, "band")
        t2 = bracket2_c(3, 2, 1)
        assert not bracket_extend(t2, curve.q(1), curve.q(12))

"""Pipe-diagram combinatorics: enumeration, bijection, pairing, sum-zero."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp.curve import compute_curve
from dkp.pipes import (
    HORIZONTAL,
    LEFT_DOWN,
    UP_RIGHT,
    PipeDiagram,
    bracket_b0_check,
    decomposition_partners,
    diagram_from_support,
    enumerate_tpds,
    monomial_tpd_bijection,
    pairing,
    pairing_routes,
    product_key,
    pure_A_monomials,
    sum_zero_check,
    verify_pairing_consistency,
)
from dkp import pipes
from dkp.poisson import bracket2_AB, bracket_extend
from dkp.symalg import gen_B, poly_A
from dkp.torus import build_kappa

AC_TORI = [(3, 2), (5, 2), (4, 3)]
SMALL_TORI = [(3, 1), (4, 1), (2, 3)]

# Per-degree diagram counts, frozen from the cross-validated enumeration
# (they equal the pure-A monomial counts of the conserved quantities).
DIAGRAM_COUNTS = {
    (3, 1): {1: 3, 2: 3, 3: 1},
    (4, 1): {1: 4, 2: 6, 3: 4, 4: 1},
    (3, 2): {1: 6, 2: 3, 3: 2, 4: 3, 5: 0, 6: 1},
    (2, 3): {1: 6, 2: 3, 3: 2, 4: 3, 5: 0, 6: 1},
    (5, 2): {1: 10, 2: 5, 3: 20, 4: 10, 5: 2, 6: 10, 7: 0, 8: 5, 9: 0, 10: 1},
    (4, 3): {
        1: 12, 2: 30, 3: 4, 4: 3, 5: 48, 6: 6,
        7: 0, 8: 3, 9: 4, 10: 0, 11: 0, 12: 1,
    },
}


# sha256 over (degree, sorted horizontal, sorted left_down, sorted up_right)
# of every diagram in enumeration order, recorded from the support-scan
# enumerator that the row-by-row one replaced.
ENUMERATION_DIGESTS = {
    (4, 3): "cf602d91c92bc812447bcf7efb21576e44643f9d0d79a344be90ec897c8575b5",
    (3, 4): "71fa9e7f72d41b2542e9b81d698a02de7fd503c7b02ea72082e0ab66b89e991c",
    (5, 3): "70bf87d795cd1f51f56cc9875f22688cc1e37efd336bb8ef550efd2c737592af",
    (7, 2): "cb40b82e1b9b7f6e79906912ce70f59ecca309f229e68503cc67ace1c7a9a0c5",
    (5, 4): "ae498db8195c8ea485fd88ad2dd06ba18ae96024b2045bfd4429fe202dba5621",
    (7, 3): "d48ba1b4748ba82bdba01fa03173e2b8615cb9e9cde3b0987c54c85bf2439c95",
}


def realized_degrees(N: int, M: int) -> list[int]:
    return [d for d in range(1, N * M + 1) if enumerate_tpds(N, M, d)]


class TestPipeDiagram:
    def test_single_horizontal_forces_knee_chain(self):
        diag = diagram_from_support(3, 2, [(0, 0)])
        assert diag.horizontal == frozenset({(0, 0)})
        assert diag.left_down == frozenset({(1, 0), (2, 1)})
        assert diag.up_right == frozenset({(1, 1), (2, 0)})
        assert diag.degree == 1
        assert diag.knee_pairs == 2
        assert diag.winding == (1, 1)

    def test_full_row_is_a_single_loop(self):
        diag = diagram_from_support(3, 2, [(n, 1) for n in range(3)])
        assert diag.left_down == frozenset() and diag.up_right == frozenset()
        assert diag.degree == 3
        assert diag.winding == (1, 0)
        assert diag.site_map() == {
            "0,1": [HORIZONTAL],
            "1,1": [HORIZONTAL],
            "2,1": [HORIZONTAL],
        }

    def test_open_diagram_rejected(self):
        with pytest.raises(ValueError, match="not closed"):
            PipeDiagram(
                N=3, M=2,
                horizontal=frozenset({(0, 0)}),
                left_down=frozenset(),
                up_right=frozenset(),
            )

    def test_horizontal_knee_clash_rejected(self):
        with pytest.raises(ValueError, match="cannot share a site"):
            PipeDiagram(
                N=3, M=2,
                horizontal=frozenset({(0, 0)}),
                left_down=frozenset({(0, 0)}),
                up_right=frozenset(),
            )

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PipeDiagram(
                N=3, M=2,
                horizontal=frozenset({(3, 0)}),
                left_down=frozenset(),
                up_right=frozenset(),
            )

    def test_gcd_violation_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            enumerate_tpds(4, 2, 1)

    def test_both_knees_on_one_site_allowed(self):
        sites = frozenset((n, m) for n in range(3) for m in range(2))
        diag = PipeDiagram(
            N=3, M=2, horizontal=frozenset(), left_down=sites, up_right=sites
        )
        assert diag.degree == 0
        assert len(diag.pieces) == 12
        assert diag.winding == (2, 3)

    def test_monomial_is_product_over_horizontal(self):
        diag = diagram_from_support(3, 2, [(n, 1) for n in range(3)])
        assert diag.monomial() == poly_A(0, 1) * poly_A(1, 1) * poly_A(2, 1)

    def test_equality_and_hash(self):
        a = diagram_from_support(3, 2, [(0, 0)])
        b = diagram_from_support(3, 2, [(0, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != diagram_from_support(3, 2, [(0, 1)])

    def test_to_jsonable_shape(self):
        data = diagram_from_support(3, 2, [(0, 0)]).to_jsonable()
        assert data["N"] == 3 and data["M"] == 2
        assert data["degree"] == 1 and data["knee_pairs"] == 2
        assert data["winding"] == [1, 1]
        assert data["sites"]["0,0"] == [HORIZONTAL]
        assert data["sites"]["1,0"] == [LEFT_DOWN]
        assert data["sites"]["1,1"] == [UP_RIGHT]


class TestEnumeration:
    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_full_degree_is_the_all_horizontal_diagram(self, N, M):
        diagrams = enumerate_tpds(N, M, N * M)
        assert len(diagrams) == 1
        only = diagrams[0]
        assert len(only.horizontal) == N * M
        assert only.knee_pairs == 0

    @pytest.mark.parametrize("N,M", AC_TORI + SMALL_TORI)
    def test_degree_zero_diagrams(self, N, M):
        zero = enumerate_tpds(N, M, 0)
        assert len(zero) == 2
        sizes = sorted(len(d.pieces) for d in zero)
        assert sizes == [0, 2 * N * M]

    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_one_short_of_full_never_closes(self, N, M):
        assert enumerate_tpds(N, M, N * M - 1) == []

    @pytest.mark.parametrize("N,M", sorted(DIAGRAM_COUNTS))
    def test_per_degree_counts(self, N, M):
        counts = {d: len(enumerate_tpds(N, M, d)) for d in range(1, N * M + 1)}
        expected = DIAGRAM_COUNTS[(N, M)]
        assert {d: c for d, c in counts.items() if d in expected} == expected
        # degrees outside the frozen table are non-ledger degrees with no diagrams
        assert all(c == 0 for d, c in counts.items() if d not in expected)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="degree"):
            enumerate_tpds(3, 2, 7)
        with pytest.raises(ValueError, match="degree"):
            enumerate_tpds(3, 2, -1)

    def test_enumeration_deterministic(self):
        assert enumerate_tpds(3, 2, 2) == enumerate_tpds(3, 2, 2)

    @pytest.mark.parametrize("N,M", SMALL_TORI + [(3, 2), (5, 2)])
    def test_matches_brute_force_over_site_assignments(self, N, M):
        # every site gets none, horizontal or left-down; the up-right knees are
        # the left-down ones one row down; PipeDiagram keeps the closed ones
        sites = [(n, m) for n in range(N) for m in range(M)]
        found: dict[int, list[PipeDiagram]] = {d: [] for d in range(N * M + 1)}
        for pieces in itertools.product((None, HORIZONTAL, LEFT_DOWN), repeat=len(sites)):
            h = [s for s, piece in zip(sites, pieces) if piece == HORIZONTAL]
            ld = [s for s, piece in zip(sites, pieces) if piece == LEFT_DOWN]
            try:
                diag = PipeDiagram(N, M, h, ld, [(n, (m - 1) % M) for n, m in ld])
            except ValueError:
                continue
            found[diag.degree].append(diag)
        for d, diagrams in found.items():
            assert enumerate_tpds(N, M, d) == sorted(diagrams, key=lambda x: sorted(x.horizontal))

    @pytest.mark.parametrize("N,M", sorted(ENUMERATION_DIGESTS))
    def test_enumeration_digest_pinned(self, N, M):
        digest = hashlib.sha256()
        for d in range(N * M + 1):
            for diag in enumerate_tpds(N, M, d):
                key = (d, *(sorted(s) for s in (diag.horizontal, diag.left_down, diag.up_right)))
                digest.update(repr(key).encode())
        assert digest.hexdigest() == ENUMERATION_DIGESTS[(N, M)]

    @pytest.mark.parametrize("N", [3, 4])
    def test_toda_diagrams_are_row_loops_with_knee_filler(self, N):
        for degree in range(1, N + 1):
            diagrams = enumerate_tpds(N, 1, degree)
            assert len(diagrams) == len(list(itertools.combinations(range(N), degree)))
            for diag in diagrams:
                # a single row: knees fill every non-horizontal site, both at once
                assert diag.left_down == diag.up_right
                assert diag.knee_pairs == N - degree
                filled = {n for n, _ in diag.horizontal} | {n for n, _ in diag.left_down}
                assert filled == set(range(N))


class TestBijection:
    @pytest.mark.parametrize("N,M", AC_TORI + SMALL_TORI)
    def test_counts_match_per_degree(self, N, M):
        report = monomial_tpd_bijection(N, M)
        assert report["ok"] is True
        for d, row in report["per_degree"].items():
            assert row["monomials"] == row["diagrams"], (N, M, d)
        # every ledger degree above the site count keeps no pure-A monomial
        assert all(v == 0 for v in report["high_degree_monomials"].values())
        ledger = compute_curve(N, M, "AB").degrees()
        assert sorted(report["high_degree_monomials"]) == [d for d in ledger if d > N * M]

    @pytest.mark.parametrize("N,M", [(3, 2), (2, 3), (4, 3), (5, 2), (3, 4)])
    def test_b0_slots_restrict_the_ab_curve(self, N, M):
        # the bijection's B = 0 determinant against B = 0 applied afterwards
        b_zero = {gen_B(n, m): 0 for n in range(N) for m in range(M)}
        restricted = {
            ab: p.substitute(b_zero) for ab, p in compute_curve(N, M, "AB").coefficients.items()
        }
        slots = pipes._b0_slots(N, M)
        assert slots == {ab: p for ab, p in restricted.items() if p}
        assert slots[(M, 0)] == 1 and slots[(0, N)] == -1

    def test_duplicate_support_raises(self, monkeypatch):
        enumerate_all = pipes.enumerate_tpds
        monkeypatch.setattr(
            pipes, "enumerate_tpds", lambda N, M, d: enumerate_all(N, M, d) * 2
        )
        with pytest.raises(RuntimeError, match="degree 1 share a horizontal support"):
            monomial_tpd_bijection(3, 2)

    def test_pure_a_slot_above_the_site_count_raises(self, monkeypatch):
        # slot (-1, 1) of (3, 2) has degree 7 > NM = 6
        slots = pipes._b0_slots(3, 2)
        monkeypatch.setattr(pipes, "_b0_slots", lambda N, M: {**slots, (-1, 1): poly_A(0, 0)})
        with pytest.raises(RuntimeError, match="above the site count 6"):
            monomial_tpd_bijection(3, 2)

    @pytest.mark.parametrize("N,M,total", [(3, 2, 15), (5, 2, 63), (4, 3, 111)])
    def test_total_counts(self, N, M, total):
        report = monomial_tpd_bijection(N, M)
        assert report["total_monomials"] == total
        assert report["total_diagrams"] == total

    def test_maps_are_mutually_inverse(self):
        report = monomial_tpd_bijection(3, 2)
        fwd = report["monomial_to_diagram"]
        back = report["diagram_to_monomial"]
        assert len(fwd) == len(back) == report["total_monomials"]
        for support, diag in fwd.items():
            assert diag.horizontal == support
            assert back[diag] == support

    def test_all_coefficients_are_unit(self):
        for N, M in AC_TORI:
            report = monomial_tpd_bijection(N, M)
            assert set(report["monomial_coefficients"].values()) <= {1, -1}

    def test_full_row_monomial_maps_to_horizontal_loop(self):
        report = monomial_tpd_bijection(3, 2)
        row = frozenset((n, 1) for n in range(3))
        diag = report["monomial_to_diagram"][row]
        assert diag.horizontal == row and diag.knee_pairs == 0

    @pytest.mark.parametrize(
        "N,M,empty_degrees",
        [(3, 2, [5]), (5, 2, [7, 9]), (4, 3, [7, 10, 11])],
    )
    def test_degrees_with_no_monomials_have_no_diagrams(self, N, M, empty_degrees):
        report = monomial_tpd_bijection(N, M)
        for d in empty_degrees:
            row = report["per_degree"][d]
            assert row == {"monomials": 0, "diagrams": 0, "ok": True}

    @pytest.mark.parametrize("N,M", SMALL_TORI)
    def test_unit_coefficients_and_constant_slots_on_small_tori(self, N, M):
        report = monomial_tpd_bijection(N, M)
        assert set(report["monomial_coefficients"].values()) <= {1, -1}
        curve = compute_curve(N, M)
        consts = {ab: p.constant_value() for ab, p in curve.coefficients.items() if p.is_constant()}
        assert consts == {(M, 0): 1, (0, N): -1}

    def test_failing_support_returns_none(self):
        # (1,1) sits exactly where the knee chain from (0,0) must place an
        # up-right knee, so no closed diagram has this horizontal support
        assert diagram_from_support(3, 2, [(0, 0), (1, 1)]) is None

    def test_repeated_factor_rejected(self):
        square = poly_A(0, 0) * poly_A(0, 0)
        with pytest.raises(RuntimeError, match="repeated factor"):
            pure_A_monomials(square)

    def test_degree_zero_matches_constant_slots(self):
        # two degree-0 diagrams mirror the two constant determinant slots
        for N, M in AC_TORI:
            curve = compute_curve(N, M)
            consts = {
                (a, b): p.constant_value()
                for (a, b), p in curve.coefficients.items()
                if p.is_constant()
            }
            assert consts == {(M, 0): 1, (0, N): -1}
            assert len(enumerate_tpds(N, M, 0)) == 2


class TestPairing:
    @pytest.mark.parametrize(
        "N,M,diagrams,pairs",
        [(3, 2, 17, 289), (5, 2, 65, 4225), (4, 3, 113, 12769)],
    )
    def test_both_routes_agree_exhaustively(self, N, M, diagrams, pairs):
        report = verify_pairing_consistency(N, M)
        assert report["ok"] is True
        assert report["diagrams"] == diagrams
        assert report["pairs"] == pairs

    def test_self_pairing_vanishes(self):
        for diag in enumerate_tpds(3, 2, 2):
            assert pairing(diag, diag) == 0

    def test_row_loops_pair_to_zero(self):
        row0 = diagram_from_support(3, 2, [(n, 0) for n in range(3)])
        row1 = diagram_from_support(3, 2, [(n, 1) for n in range(3)])
        assert pairing(row0, row0) == 0
        assert pairing(row0, row1) == 0
        assert pairing(row1, row0) == 0

    def test_pinned_nonzero_pair(self):
        # the knee chain of {A(0,0)} puts an up-right knee on (1,1), so the
        # single-site diagrams at (0,0) and (1,1) intersect with value -1
        d_a = diagram_from_support(3, 2, [(0, 0)])
        d_c = diagram_from_support(3, 2, [(1, 1)])
        assert (1, 1) in d_a.up_right
        assert pairing(d_a, d_c) == -1
        assert pairing(d_c, d_a) == 1
        knee, kappa_sum = pairing_routes(d_a, d_c)
        assert knee == kappa_sum == -1

    def test_degree_zero_pairs_to_zero_with_everything(self):
        zero_diagrams = enumerate_tpds(3, 2, 0)
        others = [d for deg in (1, 2, 3) for d in enumerate_tpds(3, 2, deg)]
        for z in zero_diagrams:
            for other in others:
                assert pairing(z, other) == 0
                assert pairing(other, z) == 0

    def test_all_horizontal_pairs_to_zero(self):
        # every closed diagram has as many left-down as up-right knees
        full = enumerate_tpds(4, 3, 12)[0]
        for degree in (1, 2, 5):
            for other in enumerate_tpds(4, 3, degree):
                assert pairing(full, other) == 0

    def test_torus_mismatch(self):
        d1 = diagram_from_support(3, 2, [(0, 0)])
        d2 = diagram_from_support(5, 2, [(0, 0)])
        with pytest.raises(ValueError, match="different tori"):
            pairing(d1, d2)


class TestSumZero:
    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_every_product_group_sums_to_zero(self, N, M):
        for d1 in realized_degrees(N, M):
            for d2 in realized_degrees(N, M):
                report = sum_zero_check(N, M, d1, d2)
                assert report["ok"] is True, (N, M, d1, d2, report["nonzero_groups"][:1])

    def test_group_statistics_pinned(self):
        report = sum_zero_check(3, 2, 2, 4)
        assert report["pairs"] == 9
        assert report["max_group_size"] == 3
        assert report["ok"] is True

    @pytest.mark.parametrize("N,M,degrees,size", [(5, 2, (4, 6), 10), (4, 3, (5, 5), 8)])
    def test_largest_product_group_pinned(self, N, M, degrees, size):
        assert sum_zero_check(N, M, *degrees)["max_group_size"] == size

    def test_nonzero_pairings_counted_on_3_2(self):
        diagrams = [d for deg in realized_degrees(3, 2) for d in enumerate_tpds(3, 2, deg)]
        values = [pairing(a, b) for a in diagrams for b in diagrams]
        assert (len(values), sum(1 for k in values if k)) == (225, 24)

    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_nonzero_pairing_always_has_partner(self, N, M):
        degrees = realized_degrees(N, M)
        for d1 in degrees:
            for d2 in degrees:
                groups: dict = {}
                for a in enumerate_tpds(N, M, d1):
                    for b in enumerate_tpds(N, M, d2):
                        groups.setdefault(product_key(a, b), []).append(pairing(a, b))
                for members in groups.values():
                    if any(k != 0 for k in members):
                        assert len(members) >= 2

    def test_decomposition_partners_on_a_nonzero_pair(self):
        d_a = diagram_from_support(3, 2, [(0, 0)])
        d_c = diagram_from_support(3, 2, [(1, 1)])
        assert pairing(d_a, d_c) == -1
        partners = decomposition_partners(d_a, d_c)
        assert partners, "a nonzero-pairing pair must have at least one partner"
        # here the only partner is the transposed pair, which carries +1
        assert partners == [(d_c, d_a)]
        assert pairing(d_c, d_a) == 1

    def test_unique_decomposition_with_full_diagram(self):
        # degrees (12, 2) on (4,3): one degree-12 diagram, every product group
        # is a singleton, and all pairings vanish
        report = sum_zero_check(4, 3, 12, 2)
        assert report["groups"] == report["pairs"] == 30
        assert report["max_group_size"] == 1
        assert report["nonzero_pairings"] == 0
        assert report["ok"] is True
        full = enumerate_tpds(4, 3, 12)[0]
        some2 = enumerate_tpds(4, 3, 2)[0]
        assert decomposition_partners(full, some2) == []

    def test_two_member_groups_with_unit_pairings_exist(self):
        # degrees (4, 7) on (5,3): thousands of product groups decompose in
        # exactly two ways with pairings -1 and +1, and the sum-zero theorem
        # holds across every group
        report = sum_zero_check(5, 3, 4, 7)
        assert report["ok"] is True
        diags4 = enumerate_tpds(5, 3, 4)
        diags7 = enumerate_tpds(5, 3, 7)
        groups: dict = {}
        for a in diags4:
            for b in diags7:
                groups.setdefault(product_key(a, b), []).append(pairing(a, b))
        two_member_unit = sum(
            1 for ks in groups.values() if len(ks) == 2 and sorted(ks) == [-1, 1]
        )
        assert two_member_unit > 0


# Reference: the per-pair loop form of the two exhaustive checks.  The
# library computes them as integer matrix algebra; these loops are the oracle.

def reference_pairing_consistency(N, M, routes=pairing_routes):
    diagrams = [d for deg in range(0, N * M + 1) for d in enumerate_tpds(N, M, deg)]
    failures = []
    checked = 0
    for d1 in diagrams:
        for d2 in diagrams:
            knee, kappa_sum = routes(d1, d2)
            back, _ = routes(d2, d1)
            checked += 1
            if knee != kappa_sum or knee != -back:
                failures.append(
                    {
                        "d1": d1.site_map(),
                        "d2": d2.site_map(),
                        "knee": knee,
                        "kappa_sum": kappa_sum,
                        "reverse": back,
                    }
                )
    return {
        "N": N,
        "M": M,
        "diagrams": len(diagrams),
        "pairs": checked,
        "failures": failures,
        "ok": not failures,
    }


def reference_sum_zero(N, M, degree1, degree2, pair=pairing):
    diags1 = enumerate_tpds(N, M, degree1)
    diags2 = enumerate_tpds(N, M, degree2)
    groups = {}
    nonzero_pairings = 0
    for i, d1 in enumerate(diags1):
        for j, d2 in enumerate(diags2):
            k = pair(d1, d2)
            if k:
                nonzero_pairings += 1
            groups.setdefault(product_key(d1, d2), []).append((i, j, k))
    bad = []
    for key, members in groups.items():
        total = sum(k for _, _, k in members)
        if total:
            bad.append(
                {
                    "product": [f"{n},{m}:{piece}" for (n, m), piece in key],
                    "total": total,
                    "pairs": members,
                }
            )
    return {
        "N": N,
        "M": M,
        "degrees": [degree1, degree2],
        "pairs": len(diags1) * len(diags2),
        "groups": len(groups),
        "max_group_size": max((len(v) for v in groups.values()), default=0),
        "nonzero_pairings": nonzero_pairings,
        "nonzero_groups": bad,
        "ok": not bad,
    }


def reference_partners(d1, d2):
    key = product_key(d1, d2)
    return [
        (d3, d4)
        for d3 in enumerate_tpds(d1.N, d1.M, d1.degree)
        for d4 in enumerate_tpds(d2.N, d2.M, d2.degree)
        if not (d3 == d1 and d4 == d2) and product_key(d3, d4) == key
    ]


def _flip_one_kappa(monkeypatch, N, M):
    """Make pipes read a kappa table with its first nonzero entry negated."""
    kappa = build_kappa(N, M)
    (n, m), value = kappa.nonzero()[0]
    values = [list(row) for row in kappa.values]
    values[m][n] = -value
    flipped = dataclasses.replace(kappa, values=tuple(tuple(row) for row in values))
    monkeypatch.setattr(pipes, "build_kappa", lambda *_: flipped)


class TestMatrixFormOracle:
    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_consistency_matches_loops(self, N, M):
        assert verify_pairing_consistency(N, M) == reference_pairing_consistency(N, M)

    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_sum_zero_matches_loops_on_every_degree_pair(self, N, M):
        for d1 in range(N * M + 1):
            for d2 in range(N * M + 1):
                assert sum_zero_check(N, M, d1, d2) == reference_sum_zero(N, M, d1, d2)

    @pytest.mark.parametrize("degrees", [(4, 7), (7, 4), (5, 5), (2, 9), (0, 4)])
    def test_sum_zero_matches_loops_on_5_3(self, degrees):
        assert sum_zero_check(5, 3, *degrees) == reference_sum_zero(5, 3, *degrees)

    def test_partners_match_loops(self):
        for a in enumerate_tpds(3, 2, 1) + enumerate_tpds(3, 2, 4):
            for b in enumerate_tpds(3, 2, 2):
                assert decomposition_partners(a, b) == reference_partners(a, b)
                assert decomposition_partners(b, a) == reference_partners(b, a)

    def test_sum_zero_builds_each_count_matrix_once(self, monkeypatch):
        built = []
        piece_counts = pipes._piece_counts

        def counting(diagrams, N, M):
            built.append(len(diagrams))
            return piece_counts(diagrams, N, M)

        monkeypatch.setattr(pipes, "_piece_counts", counting)
        pipes._counts_cached.cache_clear()
        try:
            for d1 in range(7):
                for d2 in range(d1, 7):
                    sum_zero_check(3, 2, d1, d2)
            assert len(built) == 7
            counts = pipes._counts_cached(3, 2, 2)
            assert not counts.flags.writeable
            assert np.array_equal(counts, piece_counts(enumerate_tpds(3, 2, 2), 3, 2))
        finally:
            pipes._counts_cached.cache_clear()

    def test_pairing_matrices_are_int64(self):
        counts = pipes._piece_counts(enumerate_tpds(4, 3, 5), 4, 3)
        knee, kappa_sum = pipes._pairing_matrices(counts, counts, 4, 3)
        assert knee.dtype == kappa_sum.dtype == np.int64
        assert np.array_equal(knee, kappa_sum)


class TestMatrixFormMutations:
    @pytest.mark.parametrize("N,M", [(3, 2), (4, 3)])
    def test_flipped_kappa_entry_fails_consistency(self, monkeypatch, N, M):
        _flip_one_kappa(monkeypatch, N, M)
        report = verify_pairing_consistency(N, M)
        assert report["ok"] is False
        assert report == reference_pairing_consistency(N, M)

    def test_one_sided_pairing_fails_antisymmetry(self, monkeypatch):
        # both routes agree on the bumped pair, so only its reverse disagrees
        diagrams = [d for deg in range(7) for d in enumerate_tpds(3, 2, deg)]
        i, j = 4, 11
        bumped = (diagrams[i], diagrams[j])

        def routes(a, b):
            knee, kappa_sum = pairing_routes(a, b)
            step = (a, b) == bumped
            return knee + step, kappa_sum + step

        expected = reference_pairing_consistency(3, 2, routes=routes)
        original = pipes._pairing_matrices

        def perturbed(*args):
            knee, kappa_sum = original(*args)
            knee[i, j] += 1
            kappa_sum[i, j] += 1
            return knee, kappa_sum

        monkeypatch.setattr(pipes, "_pairing_matrices", perturbed)
        report = verify_pairing_consistency(3, 2)
        assert len(report["failures"]) == 2
        assert report == expected

    def test_flipped_kappa_entry_stops_sum_zero(self, monkeypatch):
        _flip_one_kappa(monkeypatch, 3, 2)
        with pytest.raises(RuntimeError, match="pairing routes disagree") as expected:
            reference_sum_zero(3, 2, 1, 1)
        with pytest.raises(RuntimeError, match="pairing routes disagree") as got:
            sum_zero_check(3, 2, 1, 1)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "N,M,degrees,targets",
        [
            (3, 2, (2, 4), [(0, 0)]),  # one pairing in one group
            (4, 3, (5, 5), [(40, 2), (3, 7), (3, 9)]),  # groups out of order
        ],
    )
    def test_perturbed_pairing_fails_its_group(self, monkeypatch, N, M, degrees, targets):
        diags1, diags2 = (enumerate_tpds(N, M, d) for d in degrees)
        bumped = {(diags1[i], diags2[j]) for i, j in targets}
        expected = reference_sum_zero(
            N, M, *degrees, pair=lambda a, b: pairing(a, b) + ((a, b) in bumped)
        )
        original = pipes._pairing_matrices

        def perturbed(*args):
            knee, kappa_sum = original(*args)
            for i, j in targets:
                knee[i, j] += 1
                kappa_sum[i, j] += 1
            return knee, kappa_sum

        monkeypatch.setattr(pipes, "_pairing_matrices", perturbed)
        report = sum_zero_check(N, M, *degrees)
        assert report["ok"] is False
        assert report == expected


class TestBracketAtBZero:
    def test_all_degree_pairs_on_3_2(self):
        degrees = realized_degrees(3, 2)
        for d1 in degrees:
            for d2 in degrees:
                report = bracket_b0_check(3, 2, d1, d2)
                assert report["ok"] is True, (d1, d2)

    @pytest.mark.parametrize("N,M,d1,d2", [(5, 2, 1, 3), (5, 2, 3, 3), (4, 3, 2, 5)])
    def test_spot_pairs_on_larger_tori(self, N, M, d1, d2):
        report = bracket_b0_check(N, M, d1, d2, limit=60)
        assert report["ok"] is True

    def test_substitution_is_applied_after_bracketing(self):
        # adjacent horizontal pieces generate B-terms in the raw bracket; the
        # identity needs them killed only after the bracket is taken
        d1 = diagram_from_support(3, 2, [(0, 0)])
        d2 = diagram_from_support(3, 2, [(1, 0)])
        table = bracket2_AB(3, 2)
        raw = bracket_extend(table, d1.monomial(), d2.monomial())
        b_zero = {gen_B(n, m): 0 for n in range(3) for m in range(2)}
        assert raw != raw.substitute(b_zero)
        assert raw.substitute(b_zero) == d1.monomial() * d2.monomial() * Fraction(
            pairing(d1, d2)
        )


class TestWindingObservation:
    # Empirical regression only: the implementation nowhere uses this.
    @pytest.mark.parametrize("N,M", AC_TORI)
    def test_winding_matches_ledger_slot(self, N, M):
        curve = compute_curve(N, M)
        for d in curve.degrees():
            if d > N * M:
                continue
            entry = curve.ledger[d]
            winds = {diag.winding for diag in enumerate_tpds(N, M, d)}
            if winds:
                assert winds == {(M - entry.alpha_exp, entry.beta_exp)}, (N, M, d)

    @pytest.mark.parametrize("N,M", AC_TORI + SMALL_TORI)
    def test_degree_zero_windings_match_constant_slots(self, N, M):
        empty, all_knees = sorted(enumerate_tpds(N, M, 0), key=lambda d: len(d.pieces))
        assert empty.winding == (M - M, 0)  # constant slot (M, 0)
        assert all_knees.winding == (M - 0, N)  # constant slot (0, N)


SITES_32 = [(n, m) for n in range(3) for m in range(2)]


class TestProperties:
    @given(support=st.sets(st.sampled_from(SITES_32), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_completion_roundtrip(self, support):
        diag = diagram_from_support(3, 2, support)
        if diag is None:
            return
        assert diag.horizontal == frozenset(support)
        assert diag.degree == len(support)
        assert len(diag.left_down) == len(diag.up_right)

    @given(
        s1=st.sets(st.sampled_from(SITES_32), max_size=6),
        s2=st.sets(st.sampled_from(SITES_32), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairing_antisymmetric_on_random_diagrams(self, s1, s2):
        d1 = diagram_from_support(3, 2, s1)
        d2 = diagram_from_support(3, 2, s2)
        if d1 is None or d2 is None:
            return
        assert pairing(d1, d2) == -pairing(d2, d1)
        assert product_key(d1, d2) == product_key(d2, d1)

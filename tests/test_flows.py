"""Numeric flow integration and conservation drift."""

import inspect
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import poisson_oracle as oracle
from flows_oracle import ColumnPoly
from dkp import curve as curve_module
from dkp import flows
from dkp.curve import band_curve, compute_curve
from dkp.flows import (
    CompiledPoly,
    KPStateNumeric,
    flow_rhs,
    integrate,
    state_index,
)
from dkp.lattice import level_entries, reduction_levels
from dkp.poisson import BracketTable, bracket2_AB, c_generators, pullback
from dkp.symalg import ExactPoly, gen_A, gen_B


def zero_state(N: int, M: int) -> KPStateNumeric:
    return KPStateNumeric(N, M, [[0.0] * N] * M, [[0.0] * N] * M)


class TestState:
    def test_random_in_range_and_deterministic(self):
        s1 = KPStateNumeric.random(3, 2, seed=5)
        s2 = KPStateNumeric.random(3, 2, seed=5)
        assert s1.A == s2.A and s1.B == s2.B
        for rows in (s1.A, s1.B):
            assert [len(row) for row in rows] == [3, 3]
            assert all(type(v) is float and 0.5 <= v <= 1.5 for row in rows for v in row)

    def test_flat_roundtrip(self):
        s = KPStateNumeric.random(3, 2, seed=1)
        r = KPStateNumeric.from_flat(3, 2, s.flat())
        assert r.A == s.A and r.B == s.B

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            KPStateNumeric(2, 1, [[1.0, math.inf]], [[0.0, 0.0]])

    @pytest.mark.parametrize(
        "A",
        [[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [[1.0, 2.0, 3.0], [4.0, 5.0]], [[1.0, 2.0, 3.0]]],
        ids=["transposed", "ragged", "one-row"],
    )
    def test_wrong_shape_rejected(self, A):
        with pytest.raises(ValueError, match="must each be 2 rows of 3 numbers"):
            KPStateNumeric(3, 2, A, [[1.0] * 3] * 2)

    def test_compiled_poly_matches_exact_evaluation(self):
        idx = state_index(3, 2)
        p = (
            ExactPoly.var(gen_A(0, 0)) * ExactPoly.var(gen_B(2, 1)) * 3
            - ExactPoly.var(gen_A(1, 1), 2)
            + ExactPoly.const(7)
        )
        c = CompiledPoly([p], idx)
        s = KPStateNumeric.random(3, 2, seed=9)
        flat = s.flat()
        want = 3 * flat[idx[gen_A(0, 0)]] * flat[idx[gen_B(2, 1)]] - flat[
            idx[gen_A(1, 1)]
        ] ** 2 + 7
        assert c(flat)[0] == pytest.approx(want, rel=1e-15)


def _random_poly(rng, gens, terms: int, top: int) -> ExactPoly:
    """Integer-coefficient polynomial over gens, each exponent at most top."""
    p = ExactPoly.zero()
    for _ in range(terms):
        mono = ExactPoly.const(int(rng.choice([-3, -2, -1, 1, 2, 5])))
        for g in rng.choice(len(gens), size=int(rng.integers(0, 4)), replace=False):
            mono = mono * ExactPoly.var(gens[g], int(rng.integers(1, top + 1)))
        p = p + mono
    return p


class TestStackedEvaluation:
    """One CompiledPoly call against ExactPoly.evaluate, polynomial by polynomial."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_evaluation(self, seed):
        N, M = 3, 2
        idx = state_index(N, M)
        gens = sorted(idx, key=idx.get)
        rng = np.random.default_rng(seed)
        flat = rng.uniform(0.5, 1.5, 2 * N * M).tolist()
        values = {g: flat[i] for g, i in idx.items()}
        # few generators, so each recurs across monomials and polynomials
        a, b = ExactPoly.var(gens[0]), ExactPoly.var(gens[7])
        polys = [
            ExactPoly.const(7),
            ExactPoly.zero(),
            a**4 * b - a * a * 3 + ExactPoly.const(-2),
            *(_random_poly(rng, gens[:5], int(rng.integers(1, 12)), 4) for _ in range(20)),
            ExactPoly.zero(),
        ]
        assert max(k for p in polys for mono in p.terms for _, k in mono) == 4
        got = CompiledPoly(polys, idx)(flat)
        assert len(got) == len(polys) and all(type(v) is float for v in got)
        for p, value in zip(polys, got):
            want = float(p.evaluate(values))
            # relative to the sum of the term magnitudes, which bounds the roundoff
            size = float(ExactPoly({m: abs(q) for m, q in p.terms.items()}).evaluate(values))
            assert abs(value - want) <= 1e-13 * size
        assert got[1] == got[-1] == 0.0

    def test_all_zero_family(self):
        idx = state_index(3, 2)
        got = CompiledPoly([ExactPoly.zero()] * 4, idx)([1.0] * 12)
        assert got == [0.0] * 4 and all(type(v) is float for v in got)


class TestLedgerDrift:
    @pytest.mark.parametrize("N,M", [(3, 2), (4, 3)])
    def test_matches_per_polynomial_loop(self, N, M):
        # The reference is the same composed route, state -> c(x) -> band q_d,
        # one polynomial at a time; TestBandRoute ties the values to the A,B curve.
        res = integrate(KPStateNumeric.random(N, M, seed=3), 1, 1e-3, 0.05, record_every=1)
        curve = compute_curve(N, M, "band")
        level = reduction_levels(N, M)[1]
        gens = c_generators(N, M, 1)
        entries = CompiledPoly([level[(g[2], g[3])] for g in gens], state_index(N, M))
        c_index = {g: i for i, g in enumerate(gens)}
        states = [KPStateNumeric(N, M, f["state"]["A"], f["state"]["B"]).flat() for f in res.trajectory]
        want = {}
        for d in curve.degrees():
            q = CompiledPoly([curve.q(d)], c_index)
            q0 = q(entries(states[0]))[0]
            drift = 0.0
            for flat in states[1:]:
                drift = max(drift, abs(q(entries(flat))[0] - q0) / max(abs(q0), 1e-12))
            want[d] = drift
        assert res.steps == 50 and len(states) == 51
        assert list(res.drift) == curve.degrees()
        for d in want:
            assert res.drift[d] == pytest.approx(want[d], rel=1e-12, abs=0)

    def test_nan_value_keeps_earlier_drift(self, monkeypatch):
        state = KPStateNumeric.random(3, 2, seed=5)
        before = integrate(state, "first", 1e-2, 0.02)  # two steps
        ledger = flows._compiled_ledger(3, 2)
        calls = []

        def third_step_nan(flat):
            # call 1 is q(0), calls 2-4 are steps 1-3, call 5 is q_final
            calls.append(None)
            values = ledger(flat)
            return [math.nan] * len(values) if len(calls) == 4 else values

        monkeypatch.setattr(flows, "_compiled_ledger", lambda N, M: third_step_nan)
        after = integrate(state, "first", 1e-2, 0.03)
        assert len(calls) == 5
        assert all(math.isfinite(v) for v in after.drift.values())
        assert after.drift == before.drift
        assert after.max_drift > 0


ROUTE_TORI = [(1, 2), (3, 2), (4, 1), (2, 3), (4, 3), (5, 2), (3, 4)]


@lru_cache(maxsize=None)
def _ab_curve(N, M):
    return compute_curve(N, M, "AB")


class TestBandRoute:
    """The flows read the band curve at c(x); these tie it to the A,B curve."""

    @pytest.mark.parametrize("N,M", ROUTE_TORI)
    def test_band_ledger_pulls_back_to_the_ab_ledger(self, N, M):
        ab, band = _ab_curve(N, M), compute_curve(N, M, "band")
        assert band.degrees() == ab.degrees()
        for d in ab.degrees():
            e, f = ab.ledger[d], band.ledger[d]
            assert (f.alpha_exp, f.beta_exp, f.is_casimir2, f.is_casimir1) == (
                e.alpha_exp,
                e.beta_exp,
                e.is_casimir2,
                e.is_casimir1,
            )
        table = bracket2_AB(N, M)
        level = reduction_levels(N, M)[1]
        expansion = {g: level[(g[2], g[3])] for g in c_generators(N, M, 1)}
        pull = pullback(table, expansion)
        for d in ab.degrees():
            assert table.unpack(pull(band.q(d))) == ab.q(d), d

    @pytest.mark.parametrize("N,M", ROUTE_TORI + [(5, 3)])
    def test_composed_ledger_matches_exact_ab_values(self, N, M):
        ab = _ab_curve(N, M)
        flat = KPStateNumeric.random(N, M, seed=21).flat()
        values = {g: Fraction(float(flat[i])) for g, i in state_index(N, M).items()}
        got = flows._compiled_ledger(N, M)(flat)
        assert len(got) == len(ab.degrees())
        for d, value in zip(ab.degrees(), got):
            exact = float(ab.q(d).evaluate(values))
            assert value == pytest.approx(exact, rel=1e-12, abs=0), d

    def test_integrate_builds_no_ab_curve(self, monkeypatch):
        modes = []
        compute = curve_module.compute_curve

        def recording(N, M, mode="AB"):
            modes.append(mode.lower())
            return compute(N, M, mode)

        monkeypatch.setattr(curve_module, "compute_curve", recording)
        for cached in (band_curve, level_entries, flows._compiled_ledger, flows._compiled_flow):
            cached.cache_clear()
        state = KPStateNumeric.random(3, 2, seed=1)
        integrate(state, 4, 1e-3, 0.002)
        integrate(state, "first", 1e-3, 0.002)
        assert modes == ["band"]
        assert not hasattr(flows, "compute_curve")


def _compiled_terms(compiled: CompiledPoly) -> dict:
    """(polynomial, sorted state indices of the factors) -> coefficient, read
    back from the rows of a CompiledPoly."""
    return {(owner, tuple(sorted(factors))): q for factors, owner, q in compiled.rows}


class TestCompiledFlow:
    """Ledger flow d is the field of q_d, read at every generator from one gradient."""

    @pytest.mark.parametrize("N,M", [(3, 2), (4, 3), (5, 2), (3, 4)])
    def test_rows_are_the_exact_field(self, N, M):
        index = state_index(N, M)
        for d in band_curve(N, M).degrees():
            want = {
                (i, tuple(sorted(index[g] for g, k in mono for _ in range(k)))): float(q)
                for i, row in enumerate(oracle.flow_rows(N, M, d))
                for mono, q in row.terms.items()
            }
            assert _compiled_terms(flows._compiled_flow(N, M, d)) == want, d

    def test_takes_the_gradient_of_q_d_once(self, monkeypatch):
        calls = []
        gradient = BracketTable._gradient

        def counting(self, p):
            calls.append(self.kind)
            return gradient(self, p)

        monkeypatch.setattr(BracketTable, "_gradient", counting)
        flows._compiled_flow.cache_clear()
        flows._compiled_flow(4, 3, 8)
        assert calls == ["bracket2_AB"]

    def test_flows_do_not_use_bracket_extend(self):
        assert not hasattr(flows, "bracket_extend")
        assert "bracket_extend" not in inspect.getsource(flows)


ORACLE_TORI = [(3, 2), (4, 3), (5, 3), (7, 2), (5, 4), (7, 3)]


class TestColumnOracle:
    """The straight-line evaluators do the numpy column evaluator's
    floating-point operations in its order, so their values are equal."""

    @staticmethod
    def _built(monkeypatch, build, *args) -> list[tuple[CompiledPoly, ColumnPoly]]:
        """Each evaluator `build` compiles, beside the column evaluator of
        the same polynomials."""
        pairs = []

        def recording(polys, index):
            pairs.append((CompiledPoly(polys, index), ColumnPoly(polys, index)))
            return pairs[-1][0]

        monkeypatch.setattr(flows, "CompiledPoly", recording)
        build.cache_clear()
        build(*args)
        return pairs

    @pytest.mark.parametrize("N,M", ORACLE_TORI)
    def test_ledger_tables(self, monkeypatch, N, M):
        (entries, entries_oracle), (ledger, ledger_oracle) = self._built(
            monkeypatch, flows._compiled_ledger, N, M
        )
        for seed in (0, 61):
            flat = KPStateNumeric.random(N, M, seed).flat()
            c = entries(flat)
            assert c == entries_oracle(flat).tolist()
            assert ledger(c) == ledger_oracle(c).tolist()

    @pytest.mark.parametrize("N,M", ORACLE_TORI)
    def test_degree_one_flow_table(self, monkeypatch, N, M):
        ((rhs, rhs_oracle),) = self._built(monkeypatch, flows._compiled_flow, N, M, 1)
        for seed in (0, 61):
            flat = KPStateNumeric.random(N, M, seed).flat()
            assert rhs(flat) == rhs_oracle(flat).tolist()


class TestSeed:
    """The seeded state is numpy's default_rng(seed).uniform(0.5, 1.5, (M, N)),
    A and then B, bit for bit."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(20261019).integers(0, 2**64, 200, dtype=np.uint64)
    ]

    @pytest.mark.parametrize("N,M", [(3, 2), (4, 3), (5, 3)])
    def test_matches_numpy_default_rng(self, N, M):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            want_A = rng.uniform(0.5, 1.5, (M, N)).tolist()
            want_B = rng.uniform(0.5, 1.5, (M, N)).tolist()
            state = KPStateNumeric.random(N, M, seed)
            assert (state.A, state.B) == (want_A, want_B), seed

    def test_seeds_past_64_bits_match_too(self):
        for seed in (2**64, 2**127 + 5, 3**200):
            rng = np.random.default_rng(seed)
            want = rng.uniform(0.5, 1.5, (2, 3)).tolist() + rng.uniform(0.5, 1.5, (2, 3)).tolist()
            state = KPStateNumeric.random(3, 2, seed)
            assert state.A + state.B == want, seed

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            KPStateNumeric.random(3, 2, -1)


class TestFlowRHS:
    def test_single_layer_closed_form(self):
        # dA(n) = B(n) - B(n+1); dB(n) = (A(n) - A(n-1)) B(n)
        N = 4
        s = KPStateNumeric.random(N, 1, seed=3)
        rhs = flow_rhs("first", s)
        A, B = s.A[0], s.B[0]
        for n in range(N):
            assert rhs[n] == pytest.approx(B[n] - B[(n + 1) % N], rel=1e-14)
            assert rhs[N + n] == pytest.approx(
                (A[n] - A[(n - 1) % N]) * B[n], rel=1e-14
            )

    def test_zero_A_degenerate_form(self):
        N, M = 3, 2
        rng = np.random.default_rng(11)
        s = KPStateNumeric(N, M, np.zeros((M, N)), rng.uniform(0.5, 1.5, (M, N)))
        rhs = flow_rhs("first", s)
        for m in range(M):
            for n in range(N):
                assert rhs[m * N + n] == pytest.approx(
                    s.B[m][n] - s.B[m][(n + 1) % N]
                )
                assert rhs[N * M + m * N + n] == 0.0

    @pytest.mark.parametrize("N,M", [(3, 2), (4, 1), (2, 3)])
    def test_two_code_paths_agree(self, N, M):
        s = KPStateNumeric.random(N, M, seed=7)
        direct = flow_rhs("first", s)
        bracket = flow_rhs(1, s)
        assert np.max(np.abs(direct - bracket)) < 1e-13

    def test_unknown_degree_rejected(self):
        s = KPStateNumeric.random(3, 2, seed=1)
        with pytest.raises(ValueError):
            flow_rhs(5, s)  # 5 is not a (3,2) ledger degree

    def test_casimir_degree_generates_zero_flow(self):
        s = KPStateNumeric.random(3, 2, seed=13)
        rhs = flow_rhs(3, s)  # q_3 is beta-free, a bracket-2 Casimir
        assert np.allclose(rhs, 0.0, atol=1e-15)
        s = KPStateNumeric.random(4, 3, seed=13)
        casimirs = compute_curve(4, 3, "band").casimir2_degrees()
        assert casimirs == [4, 8, 12, 16, 20, 24]
        for d in casimirs:
            assert np.allclose(flow_rhs(d, s), 0.0, atol=1e-15), d


class TestIntegration:
    def test_zero_state_stationary(self):
        res = integrate(zero_state(3, 2), "first", dt=1e-2, T=0.5)
        assert np.allclose(res.state.flat(), 0.0)
        assert res.max_drift == 0.0

    def test_drift_bound_and_order(self):
        seed = 20260817
        res = integrate(KPStateNumeric.random(3, 2, seed=seed), "first", 1e-3, 1.0)
        assert res.max_drift <= 1e-6
        res_half = integrate(
            KPStateNumeric.random(3, 2, seed=seed), "first", 5e-4, 1.0
        )
        # order-4 halving on the dominant quantity (linear q_1 sits at the
        # roundoff floor, so judge the max-drift quantity instead)
        d_star = max(res.drift, key=res.drift.get)
        ratio = res.drift[d_star] / res_half.drift[d_star]
        assert 8.0 <= ratio <= 32.0

    def test_ledger_flow_conserves(self):
        res = integrate(KPStateNumeric.random(3, 2, seed=2), 4, dt=1e-3, T=0.2)
        assert res.max_drift <= 1e-8

    def test_commuting_flows(self):
        seed, dt, T = 6, 1e-3, 0.1
        s0 = KPStateNumeric.random(3, 2, seed=seed)
        ab = integrate(integrate(s0, 1, dt, T).state, 4, dt, T).state.flat()
        s0 = KPStateNumeric.random(3, 2, seed=seed)
        ba = integrate(integrate(s0, 4, dt, T).state, 1, dt, T).state.flat()
        assert np.max(np.abs(np.subtract(ab, ba))) <= 1e-5

    def test_determinism(self):
        r1 = integrate(KPStateNumeric.random(3, 2, seed=4), "first", 1e-2, 0.3)
        r2 = integrate(KPStateNumeric.random(3, 2, seed=4), "first", 1e-2, 0.3)
        assert np.array_equal(r1.state.flat(), r2.state.flat())
        assert r1.drift == r2.drift

    def test_trajectory_recording(self):
        res = integrate(
            KPStateNumeric.random(3, 2, seed=8), "first", 1e-2, 0.1, record_every=5
        )
        assert res.steps == 10
        assert [frame["t"] for frame in res.trajectory] == pytest.approx(
            [0.0, 0.05, 0.1]
        )

    def test_nonfinite_abort(self):
        # a uniform state is a fixed point (kappa/rho rows sum to zero), so
        # blow-up needs asymmetric entries
        rng = np.random.default_rng(0)
        big = KPStateNumeric(
            3, 2, rng.uniform(0.5, 1.5, (2, 3)) * 1e160, rng.uniform(0.5, 1.5, (2, 3))
        )
        res = integrate(big, "first", 1.0, 3.0)
        assert res.blowup is not None
        assert res.steps == res.blowup["step"] - 1
        assert res.steps < 3  # stopped short of the three steps asked for
        assert all(map(math.isfinite, res.state.flat()))

    def test_bad_step_parameters(self):
        s = zero_state(3, 2)
        with pytest.raises(ValueError):
            integrate(s, "first", 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(s, "first", 1e-2, -1.0)
        with pytest.raises(ValueError, match="finite step count"):
            integrate(s, "first", 1e-300, 1e300)
        with pytest.raises(ValueError, match="at most 100,000,000 steps, got 1e"):
            integrate(s, "first", 1e-300, 1.0)
        with pytest.raises(ValueError, match="at most 100,000,000 steps"):
            integrate(s, "first", 1.0, 1e8 + 1)
        with pytest.raises(ValueError, match="whole number of steps, got 3.33333333"):
            integrate(s, "first", 0.3, 1.0)

    def test_initial_q_values_match_exact_curve(self):
        from fractions import Fraction

        s = KPStateNumeric.random(3, 2, seed=12)
        res = integrate(s, "first", 1e-2, 0.0)
        curve = compute_curve(3, 2, "AB")
        values = {}
        for m in range(2):
            for n in range(3):
                values[gen_A(n, m)] = Fraction(s.A[m][n])
                values[gen_B(n, m)] = Fraction(s.B[m][n])
        for d in curve.degrees():
            evaluated = curve.q(d).evaluate(values)
            exact = float(
                evaluated.constant_value() if hasattr(evaluated, "terms") else evaluated
            )
            assert res.q_initial[d] == pytest.approx(exact, rel=1e-12)

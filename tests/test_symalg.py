"""Ring axioms, calculus, and serialization for the exact polynomial core."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp.symalg import (
    ALPHA,
    BETA,
    ExactPoly,
    gen_A,
    gen_B,
    gen_c,
    gen_degree,
    poly_A,
    poly_B,
    poly_sum,
)

X = poly_A(0, 0)
Y = poly_A(1, 0)
Z = poly_B(0, 0)


def small_polys() -> st.SearchStrategy[ExactPoly]:
    gens = [gen_A(0, 0), gen_A(1, 0), gen_B(0, 0), BETA]
    mono = st.lists(
        st.tuples(st.sampled_from(gens), st.integers(min_value=1, max_value=3)),
        max_size=2,
    ).map(lambda ps: tuple(sorted(dict(ps).items())))
    term = st.tuples(mono, st.integers(min_value=-4, max_value=4))
    return st.lists(term, max_size=4).map(
        lambda ts: poly_sum(ExactPoly({m: q}) for m, q in ts)
    )


def test_constructor_drops_zeros():
    p = ExactPoly({((gen_A(0, 0), 1),): 0, (): 3})
    assert p.terms == {(): 3}
    assert not ExactPoly.const(0)


def test_basic_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) * (X + 1) == X**2 + 2 * X + 1
    assert (X + Y + Z) - (Y + Z) == X
    assert X * 0 == ExactPoly.zero()
    assert -(-X) == X


def test_scalar_coercion_and_fractions():
    p = X / 2 + X / 2
    assert p == X
    q = X / 3
    assert q.terms[((gen_A(0, 0), 1),)] == Fraction(1, 3)
    assert (q * 3) == X
    with pytest.raises(ZeroDivisionError):
        X / 0


def test_pow():
    assert X**0 == ExactPoly.const(1)
    assert X**3 == X * X * X
    assert (X + 1) ** 2 == X**2 + 2 * X + 1
    with pytest.raises(ValueError):
        (X + 1) ** -1


def test_alpha_inverse_allowed():
    inv = ExactPoly.var(ALPHA, -1)
    assert inv * ExactPoly.var(ALPHA) == ExactPoly.const(1)
    with pytest.raises(ValueError):
        ExactPoly.var(gen_A(0, 0), -1)


def test_degree_weights():
    N, M = 3, 2
    assert gen_degree(gen_A(2, 1), N, M) == 1
    assert gen_degree(gen_B(0, 0), N, M) == 2
    assert gen_degree(gen_c(2, 4, 1), N, M) == 4
    assert gen_degree(ALPHA, N, M) == N
    assert gen_degree(BETA, N, M) == M
    p = X * Z + ExactPoly.var(BETA) * X
    assert p.degree(N, M) == 3
    assert p.is_homogeneous(N, M)
    assert not (X + Z).is_homogeneous(N, M)
    with pytest.raises(ValueError):
        ExactPoly.zero().degree(N, M)


def test_alpha_beta_decomposition():
    a = ExactPoly.var(ALPHA)
    ainv = ExactPoly.var(ALPHA, -1)
    b = ExactPoly.var(BETA)
    p = a * X + b * b * 3 + ainv * Z - 5
    dec = p.alpha_beta_decomposition()
    assert dec[(1, 0)] == X
    assert dec[(0, 2)] == ExactPoly.const(3)
    assert dec[(-1, 0)] == Z
    assert dec[(0, 0)] == ExactPoly.const(-5)
    assert set(dec) == {(1, 0), (0, 2), (-1, 0), (0, 0)}


def test_coefficient():
    b = ExactPoly.var(BETA)
    p = b**2 * X + b * (X + Z) + Z
    assert p.coefficient(BETA, 2) == X
    assert p.coefficient(BETA, 1) == X + Z
    assert p.coefficient(BETA, 0) == Z


def test_partial_derivative():
    p = X**2 * Y + 3 * X + Z
    assert p.partial(gen_A(0, 0)) == 2 * X * Y + 3
    assert p.partial(gen_A(1, 0)) == X**2
    assert p.partial(gen_B(0, 0)) == ExactPoly.const(1)
    assert not p.partial(gen_B(5, 5))
    # Leibniz rule on products
    f, g = X + Z, X * Y
    lhs = (f * g).partial(gen_A(0, 0))
    assert lhs == f.partial(gen_A(0, 0)) * g + f * g.partial(gen_A(0, 0))


def test_substitute():
    p = X * Y + Z
    q = p.substitute({gen_A(0, 0): Y})
    assert q == Y * Y + Z
    r = p.substitute({gen_A(0, 0): ExactPoly.const(2), gen_B(0, 0): X + 1})
    assert r == 2 * Y + X + 1
    ai = ExactPoly.var(ALPHA, -2)
    s = ai.substitute({ALPHA: ExactPoly.const(Fraction(1, 3))})
    assert s == ExactPoly.const(9)


def test_evaluate():
    p = X**2 + 2 * Y + Z
    vals = {gen_A(0, 0): Fraction(1, 2), gen_A(1, 0): 3, gen_B(0, 0): -1}
    assert p.evaluate(vals) == Fraction(21, 4)
    q = ExactPoly.var(ALPHA, -1) * 4
    assert q.evaluate({ALPHA: 2}) == 2
    f = p.evaluate({gen_A(0, 0): 0.5, gen_A(1, 0): 3.0, gen_B(0, 0): -1.0})
    assert abs(f - 5.25) < 1e-12


def test_json_roundtrip():
    p = X * Y - Z / 3 + ExactPoly.var(ALPHA, -2) * 7
    q = ExactPoly.from_jsonable(json.loads(json.dumps(p.to_jsonable())))
    assert q == p
    assert not ExactPoly.from_jsonable(json.loads(json.dumps(ExactPoly.zero().to_jsonable())))


def test_repr_is_stable():
    p = X - Z
    assert repr(p) == repr(X - Z)
    assert repr(ExactPoly.zero()) == "0"
    assert "A[0][0]" in repr(X)


def test_poly_sum():
    parts = [X, Y, -X, Z]
    assert poly_sum(parts) == Y + Z
    assert not poly_sum([])


@settings(max_examples=80, deadline=None)
@given(p=small_polys(), q=small_polys(), r=small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ExactPoly.zero() == p
    assert p * ExactPoly.const(1) == p
    assert not p - p


@settings(max_examples=60, deadline=None)
@given(p=small_polys(), q=small_polys())
def test_partial_is_linear_and_leibniz(p, q):
    g = gen_A(0, 0)
    assert (p + q).partial(g) == p.partial(g) + q.partial(g)
    assert (p * q).partial(g) == p.partial(g) * q + p * q.partial(g)


@settings(max_examples=60, deadline=None)
@given(p=small_polys())
def test_evaluate_respects_substitute(p):
    vals = {
        gen_A(0, 0): Fraction(2, 3),
        gen_A(1, 0): -2,
        gen_B(0, 0): Fraction(1, 5),
        BETA: 3,
    }
    direct = p.evaluate(vals)
    subbed = p.substitute({g: ExactPoly.const(v) for g, v in vals.items()})
    assert subbed.is_constant()
    assert subbed.constant_value() == direct

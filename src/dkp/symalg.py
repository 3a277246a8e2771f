"""Sparse exact-arithmetic polynomials over the lattice variables.

Generators are plain tuples so they can key dicts and sort deterministically:

    ("A", n, m)      lattice variable of degree 1
    ("B", n, m)      lattice variable of degree 2
    ("c", j, i, k)   level-j band entry i at site k, degree i
    ("alpha",)       quasi-period multiplier, degree N (may appear inverted)
    ("beta",)        spectral shift, degree M

A polynomial is a dict from monomials (sorted tuples of (generator, exponent)
pairs, exponents nonzero) to nonzero int or Fraction coefficients.  Only
``alpha`` may carry negative exponents.  Everything stays exact; no floats
enter unless :meth:`ExactPoly.evaluate` is handed floats.  Results are built
once: an integral Fraction stays one (it equals, hashes and prints as its
int), and monomials stay sorted (a product sorts its merge; the other
operations drop or lower one factor of a sorted tuple).

``_twos_complement`` and ``_signed_fields`` are the codec of ints that pack
signed fields of one width, field i at bit width*i: ``poisson``'s monomial
keys and ``pipes``' pairing rows.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

Gen = tuple
Monomial = tuple  # tuple[tuple[Gen, int], ...]
Scalar = int | Fraction

ALPHA: Gen = ("alpha",)
BETA: Gen = ("beta",)


def gen_A(n: int, m: int) -> Gen:
    return ("A", n, m)


def gen_B(n: int, m: int) -> Gen:
    return ("B", n, m)


def gen_c(j: int, i: int, k: int) -> Gen:
    """Band entry generator: level j, band index i, lattice site k."""
    return ("c", j, i, k)


@lru_cache(maxsize=None)
def _bias(width: int, count: int) -> int:
    """2^(width-1) in each of `count` fields of `width` bits."""
    return int.from_bytes((1 << width - 1).to_bytes(width // 8, "little") * count, "little")


def _twos_complement(packed: int, width: int, count: int) -> int:
    """The int that holds each f_i of ``packed = sum f_i 2^(width*i)`` in two's complement."""
    # The bias lifts each field into [0, 2^width) with no carry; the xor flips it back.
    bias = _bias(width, count)
    return (packed + bias) ^ bias


def _signed_fields(word: int, width: int, count: int) -> memoryview:
    """The `count` signed fields of a ``_twos_complement`` int, read in ``sys.byteorder``."""
    return memoryview(word.to_bytes(width // 8 * count, sys.byteorder)).cast({16: "h", 32: "i"}[width])


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for g, e in m2:
        ne = acc.get(g, 0) + e
        if ne:
            acc[g] = ne
        else:
            del acc[g]
    return tuple(sorted(acc.items()))


class ExactPoly:
    """Immutable-by-convention sparse polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self.terms = {mono: q for mono, q in terms.items() if q} if terms else {}

    # constructors

    @classmethod
    def zero(cls) -> "ExactPoly":
        return cls()

    @classmethod
    def const(cls, q: Scalar) -> "ExactPoly":
        return cls({(): q})

    @classmethod
    def var(cls, gen: Gen, exp: int = 1) -> "ExactPoly":
        if exp == 0:
            return cls.const(1)
        if exp < 0 and gen != ALPHA:
            raise ValueError(f"negative exponent only allowed on alpha, got {gen!r}")
        return cls({((gen, exp),): 1})

    # ring structure

    def __add__(self, other: "ExactPoly | Scalar") -> "ExactPoly":
        acc = dict(self.terms)
        _add_into(acc, _coerce(other).terms)
        return _of(acc)

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return _of({m: -q for m, q in self.terms.items()})

    def __sub__(self, other: "ExactPoly | Scalar") -> "ExactPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "ExactPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "ExactPoly | Scalar") -> "ExactPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ExactPoly()
            return _of({m: q * other for m, q in self.terms.items()})
        acc: dict[Monomial, Scalar] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                nq = acc.get(mono, 0) + q1 * q2
                if nq:
                    acc[mono] = nq
                else:
                    acc.pop(mono, None)
        return _of(acc)

    __rmul__ = __mul__

    def __truediv__(self, q: Scalar) -> "ExactPoly":
        if not q:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / Fraction(q))

    def __pow__(self, e: int) -> "ExactPoly":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = ExactPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(sorted(self.terms.items()))

    # queries

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def coefficient(self, gen: Gen, exp: int) -> "ExactPoly":
        """The polynomial coefficient of gen**exp (gen removed)."""
        acc: dict[Monomial, Scalar] = {}
        for mono, q in self.terms.items():
            e, rest = _split(mono, gen)
            if e == exp:
                acc[rest] = q
        return _of(acc)

    def alpha_beta_decomposition(self) -> dict[tuple[int, int], "ExactPoly"]:
        """Split into coefficients of alpha**a beta**b."""
        acc: dict[tuple[int, int], dict[Monomial, Scalar]] = {}
        for mono, q in self.terms.items():
            a, rest = _split(mono, ALPHA)
            b, rest = _split(rest, BETA)
            acc.setdefault((a, b), {})[rest] = q
        return {ab: _of(t) for ab, t in acc.items()}

    # calculus and substitution

    def partial(self, gen: Gen) -> "ExactPoly":
        # distinct monomials stay distinct once gen's exponent is lowered
        acc: dict[Monomial, Scalar] = {}
        for mono, q in self.terms.items():
            for i, (g, e) in enumerate(mono):
                if g == gen:
                    lowered = ((g, e - 1),) if e != 1 else ()
                    acc[mono[:i] + lowered + mono[i + 1 :]] = q * e
                    break
        return _of(acc)

    def substitute(self, mapping: Mapping[Gen, "ExactPoly | Scalar"]) -> "ExactPoly":
        """Replace generators by polynomials (or scalars); others untouched."""
        out = ExactPoly()
        for mono, q in self.terms.items():
            term = ExactPoly.const(q)
            for g, e in mono:
                if g in mapping:
                    rep = _coerce(mapping[g])
                    if e < 0:
                        val = rep.constant_value()
                        term = term * (Fraction(1) / Fraction(val)) ** (-e)
                    else:
                        term = term * rep**e
                else:
                    term = term * ExactPoly.var(g, e)
            out = out + term
        return out

    def evaluate(self, values: Mapping[Gen, Scalar | float]) -> Scalar | float:
        total: Scalar | float = 0
        for mono, q in self.terms.items():
            acc: Scalar | float = q
            for g, e in mono:
                v = values[g]
                if e < 0 and isinstance(v, (int, Fraction)):
                    acc = acc * Fraction(v) ** e
                else:
                    acc = acc * v**e
            total = total + acc
        return total

    # serialization and display

    def to_jsonable(self) -> list:
        out = []
        for mono, q in sorted(self.terms.items()):
            f = Fraction(q)
            out.append([[[list(g), e] for g, e in mono], f.numerator, f.denominator])
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, q in sorted(self.terms.items()):
            factors = []
            for g, e in mono:
                name = g[0] + "".join(f"[{x}]" for x in g[1:])
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors) if factors else "1"
            if q == 1 and factors:
                chunks.append(body)
            elif q == -1 and factors:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{q}*{body}" if factors else str(q))
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")


def _coerce(x: "ExactPoly | Scalar") -> ExactPoly:
    if isinstance(x, ExactPoly):
        return x
    return ExactPoly.const(x)


def _of(terms: dict[Monomial, Scalar]) -> ExactPoly:
    """The polynomial that owns `terms`, whose coefficients are all nonzero."""
    out = ExactPoly.__new__(ExactPoly)
    out.terms = terms
    return out


def _add_into(acc: dict[Monomial, Scalar], terms: Mapping[Monomial, Scalar]) -> None:
    """acc += terms, dropping every coefficient that cancels."""
    for mono, q in terms.items():
        nq = acc.get(mono, 0) + q
        if nq:
            acc[mono] = nq
        else:
            acc.pop(mono, None)


def _split(mono: Monomial, gen: Gen) -> tuple[int, Monomial]:
    """gen's exponent in mono (0 if absent) and mono without gen, still sorted."""
    for i, (g, e) in enumerate(mono):
        if g == gen:
            return e, mono[:i] + mono[i + 1 :]
    return 0, mono


def poly_sum(polys: Iterable[ExactPoly]) -> ExactPoly:
    acc: dict[Monomial, Scalar] = {}
    for p in polys:
        _add_into(acc, p.terms)
    return _of(acc)

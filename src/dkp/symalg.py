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
enter unless :meth:`ExactPoly.evaluate` is handed floats.
"""

from __future__ import annotations

from fractions import Fraction
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


def gen_degree(gen: Gen, N: int, M: int) -> int:
    kind = gen[0]
    if kind == "A":
        return 1
    if kind == "B":
        return 2
    if kind == "c":
        return gen[2]
    if kind == "alpha":
        return N
    if kind == "beta":
        return M
    raise ValueError(f"unknown generator {gen!r}")


def _norm_scalar(q: Scalar) -> Scalar:
    if isinstance(q, Fraction) and q.denominator == 1:
        return int(q)
    return q


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
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, q in terms.items():
                q = _norm_scalar(q)
                if q:
                    clean[mono] = q
        self.terms = clean

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
        other = _coerce(other)
        acc = dict(self.terms)
        for mono, q in other.terms.items():
            nq = acc.get(mono, 0) + q
            if nq:
                acc[mono] = nq
            else:
                acc.pop(mono, None)
        out = ExactPoly.__new__(ExactPoly)
        out.terms = {m: _norm_scalar(q) for m, q in acc.items()}
        return out

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        out = ExactPoly.__new__(ExactPoly)
        out.terms = {m: -q for m, q in self.terms.items()}
        return out

    def __sub__(self, other: "ExactPoly | Scalar") -> "ExactPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "ExactPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "ExactPoly | Scalar") -> "ExactPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ExactPoly()
            out = ExactPoly.__new__(ExactPoly)
            out.terms = {m: _norm_scalar(q * other) for m, q in self.terms.items()}
            return out
        acc: dict[Monomial, Scalar] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                nq = acc.get(mono, 0) + q1 * q2
                if nq:
                    acc[mono] = nq
                else:
                    acc.pop(mono, None)
        out = ExactPoly.__new__(ExactPoly)
        out.terms = {m: _norm_scalar(q) for m, q in acc.items()}
        return out

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

    def variables(self) -> set[Gen]:
        return {g for mono in self.terms for g, _ in mono}

    def degree(self, N: int, M: int) -> int:
        """Max weighted degree; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(
            sum(gen_degree(g, N, M) * e for g, e in mono) for mono in self.terms
        )

    def is_homogeneous(self, N: int, M: int) -> bool:
        degs = {
            sum(gen_degree(g, N, M) * e for g, e in mono) for mono in self.terms
        }
        return len(degs) <= 1

    def coefficient(self, gen: Gen, exp: int) -> "ExactPoly":
        """The polynomial coefficient of gen**exp (gen removed)."""
        acc: dict[Monomial, Scalar] = {}
        for mono, q in self.terms.items():
            d = dict(mono)
            if d.pop(gen, 0) == exp:
                acc[tuple(sorted(d.items()))] = q
        return ExactPoly(acc)

    def alpha_beta_decomposition(self) -> dict[tuple[int, int], "ExactPoly"]:
        """Split into coefficients of alpha**a beta**b."""
        acc: dict[tuple[int, int], dict[Monomial, Scalar]] = {}
        for mono, q in self.terms.items():
            d = dict(mono)
            a = d.pop(ALPHA, 0)
            b = d.pop(BETA, 0)
            acc.setdefault((a, b), {})[tuple(sorted(d.items()))] = q
        return {ab: ExactPoly(t) for ab, t in acc.items()}

    # calculus and substitution

    def partial(self, gen: Gen) -> "ExactPoly":
        acc: dict[Monomial, Scalar] = {}
        for mono, q in self.terms.items():
            d = dict(mono)
            e = d.get(gen, 0)
            if not e:
                continue
            if e == 1:
                del d[gen]
            else:
                d[gen] = e - 1
            nm = tuple(sorted(d.items()))
            nq = acc.get(nm, 0) + q * e
            if nq:
                acc[nm] = nq
            else:
                acc.pop(nm, None)
        return ExactPoly(acc)

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
        return _norm_scalar(total) if isinstance(total, Fraction) else total

    # serialization and display

    def to_jsonable(self) -> list:
        out = []
        for mono, q in sorted(self.terms.items()):
            f = Fraction(q)
            out.append([[[list(g), e] for g, e in mono], f.numerator, f.denominator])
        return out

    @classmethod
    def from_jsonable(cls, data: Iterable) -> "ExactPoly":
        terms: dict[Monomial, Scalar] = {}
        for mono, num, den in data:
            key = tuple((tuple(g), e) for g, e in mono)
            terms[key] = _norm_scalar(Fraction(num, den))
        return cls(terms)

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


def poly_A(n: int, m: int) -> ExactPoly:
    return ExactPoly.var(gen_A(n, m))


def poly_B(n: int, m: int) -> ExactPoly:
    return ExactPoly.var(gen_B(n, m))


def poly_sum(polys: Iterable[ExactPoly]) -> ExactPoly:
    acc: dict[Monomial, Scalar] = {}
    for p in polys:
        for mono, q in p.terms.items():
            nq = acc.get(mono, 0) + q
            if nq:
                acc[mono] = nq
            else:
                acc.pop(mono, None)
    return ExactPoly(acc)

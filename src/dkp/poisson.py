"""Both Poisson brackets and the full battery of identity checks.

Bracket 2 lives in two coordinate systems:

* on the A, B generators, the quadratic sign-table bracket (kappa/rho/phi
  with the two delta-shifted B terms in {A, A});
* on the band variables c_i(k) of any reduction level, the induced closed
  form: a zeta-coefficient product term plus the rectangle sum f.

Bracket 1 lives on the level-1 band variables only, via the per-period
trace formula with the strictly-upper / weakly-lower split.  Its overall
orientation is pinned by the classical single-layer limit {A(n), B(n)}_1
= -B(n): the raw trace expression produces the opposite sign, so the
implementation negates it (BRACKET1_SIGN below); the identity suite keeps
both orientations visible in its reports.

A table extends to polynomials through one packed kernel,
``BracketTable._field_into``: the Hamiltonian field {x_a, g} = sum_b
dg/dx_b * {x_a, x_b} at the generator x_a.  {f, g} = sum_a df/dx_a *
{x_a, g} (``_bracket_into``); the Casimir, ladder, Jacobi and compatibility
suites and the ledger flows read fields directly.  Each table numbers its
generators (the universe, then alpha and beta), and a monomial is one int in
which exponent e of generator i contributes e << (i * 32), a signed 32-bit
field, so a monomial product is one int addition (the packed exponent
vectors of Monagan and Pearce, CASC 2007).  Exponents must stay below 2**29
in magnitude (OverflowError otherwise, never a wrapped result), and a
generator outside the table raises ValueError.  ``bracket_extend`` is
gradients -> kernel -> unpack into an ``ExactPoly``.  ``pullback`` takes a
band polynomial to A, B exactly, by packed products in the same packing;
``closure_verify`` and the ledger flows read through it.

Each bracket table (``bracket2_AB``, ``bracket2_c`` per level j,
``bracket1_c``) is built once per (N, M, j) per process and shared by every
suite.  Its one entry store, keyed by the generator-index pair (a, b), holds
{x_a, x_b} as an ``ExactPoly`` and packed, and fills {x_b, x_a} with it.
Its ledger store holds, per ledger degree d of the band curve, the packed
gradient of q_d and each field {x_a, q_d} once computed; the ladder,
involution and Casimir suites all read it, so each field is computed at
most once per table.  The suites stay packed: a packed bracket is zero when
no coefficient is nonzero, equal to another when the two dicts agree after
dropping zero coefficients.

All verification routines return plain-dict reports listing every failing
tuple; an empty failure list means the identity holds exactly.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from dkp.curve import SpectralCurve, band_curve
from dkp.lattice import BandMatrix, abstract_level, c_generators, level_entries
from dkp.symalg import (
    ALPHA,
    BETA,
    ExactPoly,
    Gen,
    Scalar,
    gen_A,
    gen_B,
    gen_c,
    gen_degree,
    poly_sum,
)
from dkp.torus import _require_torus, build_kappa, build_phi, build_rho, build_zeta

# Orientation of the first bracket relative to the literal trace formula;
# fixed so the single-layer limit reproduces {A(n), B(n)}_1 = -B(n).
BRACKET1_SIGN = -1

# Packed monomials (see bracket_extend): one signed field per generator.
_FIELD = 32
_HALF = 1 << (_FIELD - 1)
# Three exponents add up in one bracket term, so each stays below 2**29.
_EXP_LIMIT = 1 << (_FIELD - 3)

# A packed polynomial maps packed monomials to coefficients; a packed
# gradient maps a universe index a to the packed dp/dx_a.
Packed = dict[int, Scalar]
Gradient = dict[int, Packed]


# --------------------------------------------------------------------- tables


class BracketTable:
    """Antisymmetric generator-pair table with Leibniz extension support.

    For the packed bracket the table numbers its generators: the universe
    in its given order, then ``alpha`` and ``beta``, which bracket to zero
    with everything.  One entry store, keyed by the generator-index pair,
    holds each entry as an ``ExactPoly`` and packed; the packed entry
    gradients, read by the Jacobi and compatibility suites only, are cached
    apart, and so are the ledger gradients and fields (:meth:`_ledger_field`).
    """

    def __init__(
        self,
        kind: str,
        N: int,
        M: int,
        universe: Sequence[Gen],
        entry_fn: Callable[[Gen, Gen], ExactPoly],
    ):
        self.kind = kind
        self.N = N
        self.M = M
        self.universe = tuple(universe)
        self._entry_fn = entry_fn
        gens = self.universe + (ALPHA, BETA)
        self._index = {g: i for i, g in enumerate(self.universe)}
        self._unit = {g: 1 << (i * _FIELD) for i, g in enumerate(gens)}
        self._gens = gens
        self._order = sorted(range(len(gens)), key=gens.__getitem__)
        self._bias = sum(_HALF * u for u in self._unit.values())
        self._entries: dict[tuple[int, int], tuple[ExactPoly, Packed]] = {}
        self._entry_grads: dict[tuple[int, int], Gradient] = {}
        self._ledger_grads: dict[int, Gradient] = {}
        self._ledger_fields: dict[tuple[int, int], Packed] = {}

    def entry(self, g1: Gen, g2: Gen) -> ExactPoly:
        if g1 in (ALPHA, BETA) or g2 in (ALPHA, BETA):
            return ExactPoly.zero()
        for g in (g1, g2):
            if g not in self._index:
                raise ValueError(f"generator {g} outside the {self.kind} universe")
        return self._entry(self._index[g1], self._index[g2])[0]

    def _entry(self, a: int, b: int) -> tuple[ExactPoly, Packed]:
        """{x_a, x_b} as an ``ExactPoly`` and packed, computed once per table."""
        found = self._entries.get((a, b))
        if found is None:
            p = self._entry_fn(self.universe[a], self.universe[b])
            found = self._entries[(a, b)] = (p, self._pack(p))
            if a != b:
                self._entries[(b, a)] = (-p, {k: -q for k, q in found[1].items()})
        return found

    # packed monomials

    def _key(self, mono: tuple) -> int:
        """Pack a sorted-tuple monomial into one int."""
        key = 0
        for gen, e in mono:
            unit = self._unit.get(gen)
            if unit is None:
                raise ValueError(f"generator {gen} outside the {self.kind} universe")
            if not -_EXP_LIMIT < e < _EXP_LIMIT:
                raise OverflowError(
                    f"exponent {e} of {gen} does not fit the {_FIELD}-bit packed field"
                )
            key += e * unit
        return key

    def _mono(self, key: int) -> tuple:
        """Unpack a packed monomial into a sorted tuple of (generator, exponent)."""
        # The bias lifts every signed field to an unsigned 32-bit word.
        raw = (key + self._bias).to_bytes(4 * len(self._gens), sys.byteorder)
        words = memoryview(raw).cast("I")
        return tuple(
            (self._gens[i], words[i] - _HALF) for i in self._order if words[i] != _HALF
        )

    def unpack(self, p: Packed) -> ExactPoly:
        """The ``ExactPoly`` of a packed polynomial, zero coefficients dropped."""
        return ExactPoly({self._mono(k): q for k, q in p.items() if q})

    def _pack(self, p: ExactPoly) -> Packed:
        return {self._key(mono): q for mono, q in p.terms.items()}

    def _gradient(self, p: ExactPoly) -> Gradient:
        """Packed dp/dx_a for every universe generator x_a that p contains."""
        unit, index = self._unit, self._index
        grad: Gradient = {}
        for mono, q in p.terms.items():
            key = self._key(mono)
            for gen, e in mono:
                a = index.get(gen)
                if a is not None:
                    # distinct monomials stay distinct after the same derivative
                    grad.setdefault(a, {})[key - unit[gen]] = q * e
        return grad

    def _entry_gradient(self, a: int, b: int) -> Gradient:
        """The packed gradient of {x_a, x_b}, computed once per table."""
        grad = self._entry_grads.get((a, b))
        if grad is None:
            grad = self._entry_grads[(a, b)] = self._gradient(self._entry(a, b)[0])
        return grad

    def _field_into(self, acc: Packed, dg: Gradient, a: int) -> None:
        """acc += {x_a, g} = sum_b dg/dx_b * {x_a, x_b}, all packed.

        The one bracket kernel: the Hamiltonian field of g, read at the
        generator x_a.  dg is a packed gradient (from :meth:`_gradient` or
        :meth:`_entry_gradient`), and zero coefficients may remain in acc.
        """
        entries = self._entries
        for b, dgb in dg.items():
            # the store first: a method call per (a, b) costs more than the lookup
            entry = (entries.get((a, b)) or self._entry(a, b))[1]
            if entry:
                _mul_into(acc, dgb, entry)

    def _field(self, dg: Gradient, a: int) -> Packed:
        """{x_a, g} as a new packed dict without zero coefficients."""
        acc: Packed = {}
        self._field_into(acc, dg, a)
        return _nonzero(acc)

    def _ledger_gradient(self, d: int) -> Gradient:
        """The packed gradient of ledger entry q_d of the torus's band curve,
        computed once per table.  Only the level-1 c tables contain its
        generators."""
        grad = self._ledger_grads.get(d)
        if grad is None:
            grad = self._ledger_grads[d] = self._gradient(band_curve(self.N, self.M).q(d))
        return grad

    def _ledger_field(self, d: int, a: int) -> Packed:
        """{x_a, q_d} without zero coefficients, computed once per table."""
        field = self._ledger_fields.get((d, a))
        if field is None:
            field = self._ledger_fields[(d, a)] = self._field(self._ledger_gradient(d), a)
        return field

    def _bracket_into(self, acc: Packed, df: Gradient, dg: Gradient) -> None:
        """acc += {f, g} = sum_a df/dx_a * {x_a, g}, all packed (zero
        coefficients may remain in acc)."""
        for a, dfa in df.items():
            field = self._field(dg, a)
            if field:
                _mul_into(acc, dfa, field)


def _mul_into(acc: Packed, p: Packed, q: Packed) -> None:
    """acc += p * q on packed polynomials (zero coefficients may remain)."""
    get = acc.get
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _nonzero(p: Packed) -> Packed:
    """p without its zero coefficients: equal polynomials give equal dicts."""
    return {k: q for k, q in p.items() if q}


def _same_packing(t1: BracketTable, t2: BracketTable) -> None:
    """Packed data of two tables mix only when they number generators alike."""
    assert t1.universe == t2.universe, (
        f"{t1.kind} and {t2.kind} number their generators differently"
    )


def bracket_extend(table: BracketTable, f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Bilinear + Leibniz extension of a generator table to polynomials.

    Computed in gradient form, {f, g} = sum_a df/dx_a * sum_b dg/dx_b *
    {x_a, x_b}, with a and b over the table's universe (alpha and beta are
    passive: they bracket to zero).  Inside, a monomial is one int: exponent
    e of generator i contributes e << (i * 32), a signed 32-bit field, so a
    monomial product is an int addition and alpha**-1 packs like any other
    factor.  Only the result is unpacked into a sorted-tuple ``ExactPoly``.

    Raises ``ValueError`` for a generator outside the table and
    ``OverflowError`` for an exponent of magnitude 2**29 or more in f, g or
    a table entry (three such exponents add up in one result monomial, and
    the sum must stay inside the field).
    """
    acc: Packed = {}
    table._bracket_into(acc, table._gradient(f), table._gradient(g))
    return table.unpack(acc)


def pullback(table: BracketTable, expansion: Mapping[Gen, ExactPoly]) -> Callable[[ExactPoly], Packed]:
    """The exact substitution p -> p(expansion), packed in ``table``'s packing.

    Every generator of p must be a key of ``expansion``.  Each expansion is
    packed once, and each monomial is expanded once per returned function,
    by packed products, so polynomials over shared monomials (the
    closed-form entries of one level, say) share the work.  With one
    level's A,B entries as ``expansion`` this is the ring homomorphism
    c -> c(A, B) of the block row reduction.
    """
    packed = {g: table._pack(p) for g, p in expansion.items()}
    expanded: dict[tuple, Packed] = {}

    def expand(mono: tuple) -> Packed:
        out: Packed = {0: 1}
        for gen, e in mono:
            for _ in range(e):
                prod: Packed = {}
                _mul_into(prod, out, packed[gen])
                out = prod
        return out

    def substitute(p: ExactPoly) -> Packed:
        acc: Packed = {}
        for mono, q in p.terms.items():
            sub = expanded.get(mono)
            if sub is None:
                sub = expanded[mono] = expand(mono)
            for k, c in sub.items():
                acc[k] = acc.get(k, 0) + q * c
        return acc

    return substitute


# ------------------------------------------------------------- bracket2 on A,B


def ab_generators(N: int, M: int) -> list[Gen]:
    gens = [gen_A(n, m) for m in range(M) for n in range(N)]
    gens += [gen_B(n, m) for m in range(M) for n in range(N)]
    return gens


@lru_cache(maxsize=None)
def bracket2_AB(N: int, M: int) -> BracketTable:
    """The quadratic sign-table bracket on the A, B generators."""
    _require_torus(N, M)
    kappa = build_kappa(N, M)
    rho = build_rho(N, M)
    phi = build_phi(N, M)

    def entry(g1: Gen, g2: Gen) -> ExactPoly:
        kind1, k, l = g1[0], g1[1], g1[2]
        kind2, n, m = g2[0], g2[1], g2[2]
        p1, p2 = ExactPoly.var(g1), ExactPoly.var(g2)
        if kind1 == "A" and kind2 == "A":
            out = ExactPoly.const(kappa(k - n, l - m)) * p1 * p2
            if (k - (n - 1)) % N == 0 and (l - m) % M == 0:
                out = out + ExactPoly.var(gen_B(n % N, m % M))
            if (k - (n + 1)) % N == 0 and (l - m) % M == 0:
                out = out - ExactPoly.var(gen_B((n + 1) % N, m % M))
            return out
        if kind1 == "A" and kind2 == "B":
            return ExactPoly.const(rho(k - n, l - m)) * p1 * p2
        if kind1 == "B" and kind2 == "A":
            return -entry(g2, g1)
        return ExactPoly.const(phi(k - n, l - m)) * p1 * p2

    return BracketTable("bracket2_AB", N, M, ab_generators(N, M), entry)


def first_flow_rhs_AB(N: int, M: int) -> dict[Gen, ExactPoly]:
    """Right sides of the first-flow evolution equations on every A, B."""
    _require_torus(N, M)
    kappa = build_kappa(N, M)
    rho = build_rho(N, M)
    out: dict[Gen, ExactPoly] = {}
    for m in range(M):
        for n in range(N):
            kap_sum = poly_sum(
                ExactPoly.const(kappa(k - n, l - m)) * ExactPoly.var(gen_A(k, l))
                for l in range(M)
                for k in range(N)
            )
            rho_sum = poly_sum(
                ExactPoly.const(rho(k - n, l - m)) * ExactPoly.var(gen_A(k, l))
                for l in range(M)
                for k in range(N)
            )
            out[gen_A(n, m)] = (
                ExactPoly.var(gen_B(n, m))
                - ExactPoly.var(gen_B((n + 1) % N, m))
                + kap_sum * ExactPoly.var(gen_A(n, m))
            )
            out[gen_B(n, m)] = rho_sum * ExactPoly.var(gen_B(n, m))
    return out


# --------------------------------------------------------- bracket2 on c-level


def induced_bracket_c(
    N: int, M: int, j: int, g1: tuple[int, int], g2: tuple[int, int]
) -> ExactPoly:
    """Closed-form level-j bracket {c_i1(k1), c_i2(k2)} in level-j variables.

    g1 = (i1, k1), g2 = (i2, k2) with band indices 1..2(M+1-j); the i1 < i2
    case is resolved by antisymmetry.
    """
    _require_torus(N, M)
    i1, k1 = g1
    i2, k2 = g2
    if i1 < i2:
        return -induced_bracket_c(N, M, j, g2, g1)
    top = 2 * (M + 1 - j)

    def cpoly(i: int, k: int) -> ExactPoly:
        if i == 0:
            return ExactPoly.const(1)
        if i < 0 or i > top:
            return ExactPoly.zero()
        return ExactPoly.var(gen_c(j, i, k % N))

    zeta = build_zeta(N, M, i1 - 1, i2 - 1)
    out = (
        ExactPoly.const(zeta(k1 - k2, 0))
        * cpoly(i1, k1)
        * cpoly(i2, k2)
    )
    bound = (2 * M + abs(k1 - k2)) // N + 1
    for l in range(-bound, bound + 1):
        k2s = k2 + l * N
        coef = 0
        if k2s <= k1 and k2s - i2 <= k1 - i1:
            coef += 1
        if k2s >= k1 and k2s - i2 >= k1 - i1:
            coef -= 1
        if not coef:
            continue
        idx1 = k1 - k2s + i2
        idx2 = k2s - k1 + i1
        term = cpoly(idx1, k1) * cpoly(idx2, k2s)
        if term:
            out = out + (term if coef > 0 else -term)
    return out


@lru_cache(maxsize=None)
def bracket2_c(N: int, M: int, j: int) -> BracketTable:
    """Closed-form induced bracket as a table over level-j c-generators."""

    def entry(g1: Gen, g2: Gen) -> ExactPoly:
        return induced_bracket_c(N, M, j, (g1[2], g1[3]), (g2[2], g2[3]))

    return BracketTable("bracket2_c", N, M, c_generators(N, M, j), entry)


def closure_verify(N: int, M: int, j: int = 1) -> dict:
    """Check the closed form against the A,B computation for every pair.

    Each level-j variable is expanded into its A,B polynomial, bracketed
    with the sign-table bracket, and compared against the closed form with
    the same expansion substituted in.  The A,B side is sum_x dc_a/dx *
    {x, c_b}, with each field {x, c_b} computed once per b.
    """
    _require_torus(N, M)
    expansion = level_entries(N, M, j)
    table = bracket2_AB(N, M)
    closed_form = bracket2_c(N, M, j)
    gens = c_generators(N, M, j)
    grads = [table._gradient(expansion[g]) for g in gens]
    xs = set().union(*grads)  # the A, B generators some c_a depends on
    fields = [{x: table._field(dg, x) for x in xs} for dg in grads]
    substitute = pullback(table, expansion)
    failures = []
    cases = 0
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            g1, g2 = gens[a], gens[b]
            cases += 1
            closed = substitute(closed_form.entry(g1, g2))
            direct: Packed = {}
            for x, dax in grads[a].items():
                _mul_into(direct, dax, fields[b][x])
            if _nonzero(closed) != _nonzero(direct):
                failures.append({"pair": [list(g1), list(g2)]})
    return {
        "identity": "closure",
        "N": N,
        "M": M,
        "level": j,
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


# ------------------------------------------------------------------- bracket1


def _elementary_band(N: int, M: int, i: int, k: int) -> BandMatrix:
    return BandMatrix(N, {(M - i, k % N): ExactPoly.const(1)})


@lru_cache(maxsize=None)
def _abstract_band_transpose(N: int, M: int) -> BandMatrix:
    """The transposed abstract level-1 band, built once per torus and only read."""
    return BandMatrix.from_band_entries(N, M, abstract_level(N, M, 1)).transpose()


def bracket1_c_literal(
    N: int, M: int, g1: tuple[int, int], g2: tuple[int, int]
) -> ExactPoly:
    """The trace formula exactly as written, with R+ strictly upper."""
    _require_torus(N, M)
    e1 = _elementary_band(N, M, *g1)
    e2 = _elementary_band(N, M, *g2)
    expr = (
        e1.upper_part().commutator(e2.upper_part())
        - e1.lower_part().commutator(e2.lower_part())
    ) * _abstract_band_transpose(N, M)
    return expr.trace_per_period()


def bracket1_c_pair(N: int, M: int, g1: tuple[int, int], g2: tuple[int, int]) -> ExactPoly:
    return bracket1_c_literal(N, M, g1, g2) * BRACKET1_SIGN


@lru_cache(maxsize=None)
def bracket1_c(N: int, M: int) -> BracketTable:
    """First bracket on the level-1 band variables, classically oriented."""

    def entry(g1: Gen, g2: Gen) -> ExactPoly:
        return bracket1_c_pair(N, M, (g1[2], g1[3]), (g2[2], g2[3]))

    return BracketTable("bracket1_c", N, M, c_generators(N, M, 1), entry)


# ------------------------------------------------------------ identity suites


def _cyclic_into(
    acc: Packed, outer: BracketTable, inner: BracketTable, triple: tuple[int, int, int]
) -> None:
    """acc += {x_a, {x_b, x_c}_inner}_outer summed over the cyclic orders of
    the generator triple, from the cached packed entry gradients."""
    x, y, z = triple
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        outer._field_into(acc, inner._entry_gradient(b, c), a)


def _triple_repr(gens: Sequence[Gen], triple: tuple[int, int, int]) -> list[str]:
    return [repr(ExactPoly.var(gens[t])) for t in triple]


def verify_compatibility(N: int, M: int) -> dict:
    """Mixed Jacobiator of the bracket pair over all distinct generator triples."""
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    _same_packing(t1, t2)
    gens = c_generators(N, M, 1)
    failures = []
    cases = 0
    for triple in itertools.combinations(range(len(gens)), 3):
        cases += 1
        defect: Packed = {}
        _cyclic_into(defect, t2, t1, triple)
        _cyclic_into(defect, t1, t2, triple)
        if any(defect.values()):
            failures.append({"triple": _triple_repr(gens, triple)})
    return {
        "identity": "compatibility",
        "N": N,
        "M": M,
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


def verify_bracrel(N: int, M: int) -> dict:
    """Substitution identity on generator pairs, in both orientations.

    literal: { , }_1 = { , }_2 - { , }_2 with every c_M(h) shifted by +1;
    flipped: { , }_1 equals the negative of that difference.
    """
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    gens = c_generators(N, M, 1)
    shift = {
        gen_c(1, M, h): ExactPoly.var(gen_c(1, M, h)) + ExactPoly.const(1)
        for h in range(N)
    }
    literal_failures = []
    flipped_failures = []
    cases = 0
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            g1, g2 = gens[a], gens[b]
            cases += 1
            lhs = t1.entry(g1, g2)
            p2 = t2.entry(g1, g2)
            diff = p2 - p2.substitute(shift)
            if lhs != diff:
                literal_failures.append({"pair": [list(g1), list(g2)]})
            if lhs != -diff:
                flipped_failures.append({"pair": [list(g1), list(g2)]})
    return {
        "identity": "bracrel",
        "N": N,
        "M": M,
        "cases": cases,
        "failures": literal_failures,
        "ok": not literal_failures,
        "flipped_failures": flipped_failures,
        "flipped_ok": not flipped_failures,
    }


def ladder_pairs(curve: SpectralCurve) -> list[tuple[int, int]]:
    """(upper degree, lower degree) pairs d -> d-M present in the ledger."""
    degrees = set(curve.degrees())
    return sorted((d, d - curve.M) for d in degrees if d - curve.M in degrees)


def verify_ladder(N: int, M: int) -> dict:
    """{q_{i+M}, g}_1 = {q_i, g}_2 on every generator, for every ledger pair."""
    curve = band_curve(N, M)
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    # The two sides are compared as packed dicts, keyed alike only when both
    # tables number c_generators(N, M, 1) in the same order.
    _same_packing(t1, t2)
    gens = c_generators(N, M, 1)
    failures = []
    cases = 0
    pairs = ladder_pairs(curve)
    in_row = {}
    for hi, lo in pairs:
        ehi, elo = curve.ledger[hi], curve.ledger[lo]
        in_row[(hi, lo)] = (ehi.alpha_exp, ehi.beta_exp + 1) == (
            elo.alpha_exp,
            elo.beta_exp,
        )
        for c, g in enumerate(gens):
            cases += 1
            if t1._ledger_field(hi, c) != t2._ledger_field(lo, c):
                failures.append({"pair_degrees": [hi, lo], "generator": repr(ExactPoly.var(g))})
    return {
        "identity": "ladder",
        "N": N,
        "M": M,
        "pairs": pairs,
        "in_row": {f"{hi}->{lo}": v for (hi, lo), v in in_row.items()},
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


def verify_involution(N: int, M: int) -> dict:
    """{q_i, q_j} = 0 for all ledger pairs, under both brackets."""
    curve = band_curve(N, M)
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    degrees = curve.degrees()
    # {q_i, q_j} = sum_a dq_i/dx_a * {x_a, q_j}, inside each table's packing.
    # Every field of both tables is filled here, once, and the Casimir suites
    # read it from the same ledger stores.
    gens = range(len(t1.universe))
    fields = {(t, d, a): t._ledger_field(d, a) for t in (t1, t2) for d in degrees for a in gens}
    failures = []
    cases = 0
    for d1, d2 in itertools.combinations(degrees, 2):
        cases += 1
        for table, bracket in ((t2, 2), (t1, 1)):
            acc: Packed = {}
            for a, dfa in table._ledger_gradient(d1).items():
                _mul_into(acc, dfa, fields[(table, d2, a)])
            if any(acc.values()):
                failures.append({"pair_degrees": [d1, d2], "bracket": bracket})
    return {
        "identity": "involution",
        "N": N,
        "M": M,
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


def _casimir_suite(
    curve: SpectralCurve, table: BracketTable, casimirs: list[int]
) -> tuple[int, list, dict[int, bool]]:
    """Vanishing on the Casimir set, plus a nonvanishing witness off it."""
    failures = []
    cases = 0
    witnesses: dict[int, bool] = {}
    gens = range(len(table.universe))
    for d in curve.degrees():
        if d in casimirs:
            for c in gens:
                cases += 1
                if table._ledger_field(d, c):
                    failures.append(
                        {"degree": d, "generator": repr(ExactPoly.var(table.universe[c]))}
                    )
        else:
            cases += 1
            found = any(table._ledger_field(d, c) for c in gens)
            witnesses[d] = found
            if not found:
                failures.append({"degree": d, "reason": "unexpected Casimir"})
    return cases, failures, witnesses


def verify_casimir2(N: int, M: int) -> dict:
    """Beta-free ledger entries kill bracket 2; all others move something."""
    curve = band_curve(N, M)
    t2 = bracket2_c(N, M, 1)
    expected_set = [k * N for k in range(1, 2 * M + 1)]
    casimirs = curve.casimir2_degrees()
    cases, failures, witnesses = _casimir_suite(curve, t2, casimirs)
    if casimirs != expected_set:
        failures.append(
            {"reason": "set mismatch", "got": casimirs, "expected": expected_set}
        )
    return {
        "identity": "casimir2",
        "N": N,
        "M": M,
        "degrees": casimirs,
        "cases": cases,
        "noncasimir_witnesses": witnesses,
        "failures": failures,
        "ok": not failures,
    }


def verify_casimir1(N: int, M: int) -> dict:
    """Row-rightmost ledger entries kill bracket 1; all others move something.

    The Casimir set is the rightmost slot of each alpha-row.  On tori with
    N > M this coincides with the degrees d whose partner d - M is not in
    the ledger; the report carries that degree-rule set for comparison.
    """
    curve = band_curve(N, M)
    t1 = bracket1_c(N, M)
    casimirs = curve.casimir1_degrees()
    degrees = set(curve.degrees())
    degree_rule = sorted(d for d in degrees if d - M not in degrees)
    cases, failures, witnesses = _casimir_suite(curve, t1, casimirs)
    return {
        "identity": "casimir1",
        "N": N,
        "M": M,
        "degrees": casimirs,
        "degree_rule_set": degree_rule,
        "sets_agree": casimirs == degree_rule,
        "cases": cases,
        "noncasimir_witnesses": witnesses,
        "failures": failures,
        "ok": not failures,
    }


def qlink_report(N: int, M: int) -> dict:
    """The c_M-derivative relation between determinant slots.

    The diagonal carries c_M(k) and beta only through c_M(k) - beta, so for
    every slot (a, b): sum_k d(slot a,b)/dc_M(k) = -(b+1) * (slot a,b+1),
    where the target is the full determinant coefficient — a ledger entry,
    a constant (the pure beta^N slot), or zero.  That exact law is checked
    over every slot (``exact_ok``, ``slot_checks``).

    ``rows`` views it through the ledger: a pair is *applicable* when both
    degrees d and d-M are conserved quantities, and there the unit-
    multiplier reading |q_{d-M}| = |sum_k dq_d/dc_M(k)| is judged
    separately (``literal_unit_ok``) — it fails wherever b + 1 > 1.
    """
    curve = band_curve(N, M)
    slots = set(curve.coefficients)
    slots |= {(a, b - 1) for (a, b) in slots if b >= 1}
    derivs = {
        (a, b): poly_sum(curve.poly(a, b).partial(gen_c(1, M, k)) for k in range(N))
        for a, b in slots
    }
    # the exact law, once per slot; every ledger row's slot is one of them
    exact = {(a, b): derivs[(a, b)] == curve.poly(a, b + 1) * -(b + 1) for a, b in slots}
    rows = []
    literal_ok = True
    for d in curve.degrees():
        entry = curve.ledger[d]
        a, b = entry.alpha_exp, entry.beta_exp
        deriv = derivs[(a, b)]
        target_poly = curve.poly(a, b + 1)
        row = {
            "source_degree": d,
            "slot": [a, b],
            "multiplier_expected": -(b + 1),
            "exact_ok": exact[(a, b)],
        }
        target_degree = d - M
        if target_degree in curve.ledger:
            lpoly = curve.q(target_degree)
            literal = deriv == lpoly or deriv == -lpoly
            literal_ok &= literal
            row["target_degree"] = target_degree
            row["applicable"] = True
            row["in_row"] = (
                curve.ledger[target_degree].alpha_exp,
                curve.ledger[target_degree].beta_exp,
            ) == (a, b + 1)
            row["literal_unit_ok"] = literal
        else:
            row["target_degree"] = None
            row["applicable"] = False
            row["target_constant"] = (
                target_poly.constant_value() if target_poly.is_constant() else None
            )
        rows.append(row)
    slot_failures = [{"slot": [a, b]} for a, b in sorted(slots) if not exact[(a, b)]]
    return {
        "identity": "qlink",
        "N": N,
        "M": M,
        "rows": rows,
        "slot_checks": len(slots),
        "slot_failures": slot_failures,
        "exact_ok": not slot_failures,
        "literal_unit_ok": literal_ok,
        "ok": not slot_failures,
    }


def verify_degree_of_bracket(N: int, M: int) -> dict:
    """Homogeneity degrees: bracket2 shifts by 0, bracket1 by -M."""
    failures = []
    cases = 0
    t_ab = bracket2_AB(N, M)
    for g1, g2 in itertools.combinations_with_replacement(ab_generators(N, M), 2):
        cases += 1
        p = t_ab.entry(g1, g2)
        want = gen_degree(g1, N, M) + gen_degree(g2, N, M)
        if p and (not p.is_homogeneous(N, M) or p.degree(N, M) != want):
            failures.append({"table": "bracket2_AB", "pair": [list(g1), list(g2)]})
    t2 = bracket2_c(N, M, 1)
    t1 = bracket1_c(N, M)
    for g1, g2 in itertools.combinations_with_replacement(c_generators(N, M, 1), 2):
        cases += 2
        want = gen_degree(g1, N, M) + gen_degree(g2, N, M)
        p = t2.entry(g1, g2)
        if p and (not p.is_homogeneous(N, M) or p.degree(N, M) != want):
            failures.append({"table": "bracket2_c", "pair": [list(g1), list(g2)]})
        p = t1.entry(g1, g2)
        if p and (not p.is_homogeneous(N, M) or p.degree(N, M) != want - M):
            failures.append({"table": "bracket1_c", "pair": [list(g1), list(g2)]})
    return {
        "identity": "degree_of_bracket",
        "N": N,
        "M": M,
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


def first_bracket_degree_obstruction(M: int) -> dict:
    """Degree counting behind the no-first-bracket-on-A,B statement.

    A bracket of degree -M sends a generator pair to degree
    deg(g) + deg(h) - M; with deg A = 1, deg B = 2 the largest pair degree
    is 4, so for M >= 5 every entry of a homogeneous degree -M bracket on
    the A, B generators would have negative degree and must vanish.
    """
    targets = {"AA": 2 - M, "AB": 3 - M, "BB": 4 - M}
    return {
        "M": M,
        "target_degrees": targets,
        "all_negative": all(v < 0 for v in targets.values()),
        "forces_zero_bracket": M >= 5,
    }


def verify_jacobi(N: int, M: int) -> dict:
    """Jacobi identity over all distinct generator triples of all three tables.

    Trilinearity plus full antisymmetry of the Jacobiator make the distinct
    unordered triples sufficient; triples with a repeated generator vanish
    identically.
    """
    _require_torus(N, M)
    tables = {
        "bracket2_AB": bracket2_AB(N, M),
        "bracket2_c": bracket2_c(N, M, 1),
        "bracket1_c": bracket1_c(N, M),
    }
    failures = []
    cases = 0
    per_table: dict[str, int] = {}
    for name, table in tables.items():
        start = cases
        for triple in itertools.combinations(range(len(table.universe)), 3):
            cases += 1
            defect: Packed = {}
            _cyclic_into(defect, table, table, triple)
            if any(defect.values()):
                failures.append({"table": name, "triple": _triple_repr(table.universe, triple)})
        per_table[name] = cases - start
    return {
        "identity": "jacobi",
        "N": N,
        "M": M,
        "tables": per_table,
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }


"""Both Poisson brackets and the full battery of identity checks.

Bracket 2 lives in two coordinate systems:

* on the A, B generators, the quadratic sign-table bracket (kappa/rho/phi
  with the two delta-shifted B terms in {A, A});
* on the band variables c_i(k) of any reduction level, the induced closed
  form: a zeta-coefficient product term plus the rectangle sum f.

Bracket 1 lives on the level-1 band variables only.  It is the per-period
trace formula with the strictly-upper / weakly-lower split, read in closed
form: an elementary band times an elementary band is elementary, and the
trace against C^T picks out one band entry, so each entry is at most two
signed band entries c_i(k), with c_0 = 1 (``bracket1_c_pair`` gives the
derivation).  The formula as written, on band matrices, is
``bracket1_c_literal`` in ``tests/poisson_oracle.py``, the reference the
closed form is tested against.  The overall orientation is pinned by the
classical single-layer limit {A(n), B(n)}_1 = -B(n): the raw trace
expression produces the opposite sign, so the implementation negates it
(BRACKET1_SIGN below); the substitution check of AC07 (``verify_bracrel``
in the same oracle module) reports both orientations.

A table extends to polynomials through one packed kernel,
``BracketTable._field_into``: the Hamiltonian field {x_a, g} = sum_b
dg/dx_b * {x_a, x_b} at the generator x_a, which the Casimir, ladder,
Jacobi and compatibility suites and the ledger flows read directly.  Each
table numbers its generators (the universe, then alpha and beta), and a
monomial is one int in which exponent e of generator i contributes
e << (i * 16), a signed 16-bit field (``symalg._FIELD``, the one width of
every packed int in ``dkp``), so a monomial product is one int addition
(the packed exponent vectors of Monagan and Pearce, CASC 2007).  A key is
read back through ``symalg``'s packed-field codec.  Exponents must stay
below 2**13 in magnitude (OverflowError otherwise, never a wrapped result),
and a generator outside the table raises ValueError.
The full bracket {f, g} = sum_a df/dx_a * {x_a, g}, unpacked into an
``ExactPoly``, is ``bracket_extend`` in ``tests/poisson_oracle.py``, the
case-by-case reference the packed suites are tested against.  ``pullback``
takes a band polynomial to A, B exactly, by packed products in the same
packing, and raises OverflowError for a monomial whose product could pass
the same bound; ``closure_verify`` and the ledger flows read through it.

Each bracket table (``bracket2_AB``, ``bracket2_c`` per level j,
``bracket1_c``) is built once per (N, M, j) per process and shared by every
suite.  Its one entry store, keyed by the generator-index pair (a, b), holds
{x_a, x_b} as an ``ExactPoly`` and packed, and fills {x_b, x_a} with it.
Its ledger fields hold each field {x_a, q_d} that a suite asked for, for
ledger degree d of the band curve.  The ledger store (``_ledger_store``) is
kept once per universe, so both level-1 tables read one: it holds each q_d
packed once, and its packed gradient from the same pass, for the fields and
for the sigma premise alike.  The ladder, involution and Casimir suites all
read these, so no field is computed and no ledger entry is packed twice.
The suites stay packed: a packed bracket is zero when no
coefficient is nonzero, equal to another when the two dicts agree after
dropping zero coefficients.

The site shift sigma: c_i(k) -> c_i(k+1), A(n,m) -> A(n+1,m),
B(n,m) -> B(n+1,m) is a ring automorphism, so an identity holds at a
generator pair or triple exactly when it holds at the shifted one.  Each
table checks once, exactly, that sigma is its symmetry
(``BracketTable._symmetric``): its universe is laid out block-major and
site-minor, so sigma relabels packed keys within blocks, and
{sigma x_a, sigma x_b} = sigma {x_a, x_b} on all G^2 entries; the first
level-1 table to ask also checks sigma q_d = q_d for every ledger degree,
and keeps the answer in the ledger store of its universe, and
``closure_verify`` checks c(sigma x) = sigma c(x) on every expansion.
Where the premises hold, each suite loops over the site-0 "first"
generators only: the orbit member whose smallest index sits in the first
band block, shifted to site 0, is still the smallest.  ``cases`` still
counts every case, and if a representative fails the loop reruns over every
first generator, so the failure records keep their bytes and order.
``verify_involution`` reads involution from the Lenard-Magri chains, whose
premises the ladder and Casimir fields already hold, and brackets every
pair outright only when one of them fails.

All verification routines return plain-dict reports listing every failing
tuple; an empty failure list means the identity holds exactly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from dkp.curve import SpectralCurve, band_curve
from dkp.lattice import c_generators, level_entries
from dkp.symalg import (
    ALPHA,
    BETA,
    ExactPoly,
    Gen,
    Scalar,
    _FIELD,
    _bias,
    _signed_fields,
    _twos_complement,
    gen_A,
    gen_B,
    gen_c,
    poly_sum,
)
from dkp.torus import _require_torus, build_kappa, build_phi, build_rho, build_zeta

# Orientation of the first bracket relative to the literal trace formula;
# fixed so the single-layer limit reproduces {A(n), B(n)}_1 = -B(n).
BRACKET1_SIGN = -1

# Packed monomials (see the module docstring): one signed ``symalg._FIELD``
# per generator.  Three exponents add up in one bracket term, so each stays
# below 2**13.
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
    apart, and so are the ledger fields (:meth:`_ledger_field`).  The packed
    ledger entries and their gradients are kept once per universe, for every
    table over it (:meth:`_ledger`).
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
        self._entries: dict[tuple[int, int], tuple[ExactPoly, Packed]] = {}
        self._entry_grads: dict[tuple[int, int], Gradient] = {}
        self._ledger_fields: dict[tuple[int, int], Packed] = {}
        self._symmetric_cache: dict[bool, bool] = {}
        # sigma on generator indices, for a universe laid out block-major and
        # site-minor: b*N + k -> b*N + (k+1) % N, alpha and beta fixed
        G = len(self.universe)
        self._sigma = [a - a % N + (a + 1) % N for a in range(G)] + [G, G + 1]
        ones = [((1 << _FIELD) - 1) << (a * _FIELD) for a in range(G + 2)]
        last = sum(ones[N - 1:G:N])
        self._sigma_masks = (sum(ones[:G]) - last, last, ones[G] | ones[G + 1])

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
        count = len(self._gens)
        fields = _signed_fields(_twos_complement(key, count), count)
        return tuple((self._gens[i], fields[i]) for i in self._order if fields[i])

    def unpack(self, p: Packed) -> ExactPoly:
        """The ``ExactPoly`` of a packed polynomial, zero coefficients dropped."""
        return ExactPoly({self._mono(k): q for k, q in p.items() if q})

    def _pack(self, p: ExactPoly) -> Packed:
        return {self._key(mono): q for mono, q in p.terms.items()}

    def _gradient(self, p: ExactPoly) -> Gradient:
        """Packed dp/dx_a for every universe generator x_a that p contains."""
        return self._packed_gradient(p)[1]

    def _packed_gradient(self, p: ExactPoly) -> tuple[Packed, Gradient]:
        """p packed, and its packed gradient, from one packing of each monomial."""
        unit, index = self._unit, self._index
        packed: Packed = {}
        grad: Gradient = {}
        for mono, q in p.terms.items():
            key = self._key(mono)
            packed[key] = q
            for gen, e in mono:
                a = index.get(gen)
                if a is not None:
                    # distinct monomials stay distinct after the same derivative
                    grad.setdefault(a, {})[key - unit[gen]] = q * e
        return packed, grad

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

    def _ledger(self, d: int) -> tuple[Packed, Gradient]:
        """Ledger entry q_d of the torus's band curve, packed, and its packed
        gradient, built once per universe (``_ledger_store``).  Only the
        level-1 c tables contain its generators."""
        store = _ledger_store(self.N, self.M, self.universe)
        found = store.get(d)
        if found is None:
            found = store[d] = self._packed_gradient(band_curve(self.N, self.M).q(d))
        return found

    def _ledger_field(self, d: int, a: int) -> Packed:
        """{x_a, q_d} without zero coefficients, computed once per table."""
        field = self._ledger_fields.get((d, a))
        if field is None:
            field = self._ledger_fields[(d, a)] = self._field(self._ledger(d)[1], a)
        return field

    # the site shift sigma

    def _shift(self, p: Packed) -> Packed:
        """sigma p on packed keys, valid for a universe laid out block-major
        and site-minor: in two's complement (``symalg``'s codec) each block's
        N fields move up one place, its last field to its first."""
        count, N = len(self._gens), self.N
        bias = _bias(count)
        inner, last, fixed = self._sigma_masks
        out: Packed = {}
        for key, q in p.items():
            w = _twos_complement(key, count)
            w = (w & fixed) | (w & inner) << _FIELD | (w & last) >> (_FIELD * (N - 1))
            out[(w ^ bias) - bias] = q
        return out

    def _symmetric(self, ledger: bool = False) -> bool:
        """Whether sigma is a symmetry of the table, checked exactly once.

        The universe must be laid out block-major and site-minor (entry
        b*N + k is sigma^k of entry b*N), and {sigma x_a, sigma x_b} =
        sigma {x_a, x_b} must hold on all G^2 entries; with ``ledger``, also
        sigma q_d = q_d for every ledger degree d of the band curve, which is
        checked once per universe and kept in its ledger store.
        """
        found = self._symmetric_cache.get(ledger)
        if found is None:
            u, N, sigma = self.universe, self.N, self._sigma
            if ledger:
                store = _ledger_store(self.N, self.M, u)
                if store.sigma is None and self._symmetric():
                    qs = (self._ledger(d)[0] for d in band_curve(self.N, self.M).degrees())
                    store.sigma = all(self._shift(q) == q for q in qs)
                found = self._symmetric() and store.sigma
            else:
                found = len(u) % N == 0 and all(
                    u[sigma[a]] == _site_shift(g, N) for a, g in enumerate(u)
                ) and all(
                    self._entry(sigma[a], sigma[b])[1] == self._shift(self._entry(a, b)[1])
                    for a in range(len(u))
                    for b in range(len(u))
                )
            self._symmetric_cache[ledger] = found
        return found


class _LedgerStore(dict[int, tuple[Packed, Gradient]]):
    """Per ledger degree d, q_d packed and its packed gradient, in the packing
    of every table over one universe, which ``BracketTable._ledger`` fills;
    ``sigma`` is whether sigma q_d = q_d for every d, once a table has checked."""

    sigma: bool | None = None


@lru_cache(maxsize=None)
def _ledger_store(N: int, M: int, universe: tuple[Gen, ...]) -> _LedgerStore:
    """The ledger store of ``universe``: one per universe."""
    return _LedgerStore()


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


def _site_shift(g: Gen, N: int) -> Gen:
    """sigma g: c_i(k) -> c_i(k+1), A(n,m) -> A(n+1,m), B likewise."""
    if g[0] == "c":
        return gen_c(g[1], g[2], (g[3] + 1) % N)
    return (g[0], (g[1] + 1) % N, g[2])


def _firsts(tables: Sequence[BracketTable], ledger: bool = False) -> range:
    """The first generators of an orbit loop: the site-0 indices when sigma is
    a symmetry of every table (``BracketTable._symmetric``), else all."""
    G, N = len(tables[0].universe), tables[0].N
    return range(0, G, N) if all(t._symmetric(ledger) for t in tables) else range(G)


def _orbit_loop(loop: Callable[[range], list], firsts: range) -> list:
    """The failures of loop(firsts); if an orbit representative fails, those
    of loop over every first generator, so records keep their bytes and order."""
    failures = loop(firsts)
    if failures and firsts.step > 1:
        failures = loop(range(firsts.stop))
    return failures


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
    # a product of expansions adds up at most e times each largest |exponent|
    largest = {
        g: max((abs(e) for mono in p.terms for _, e in mono), default=0)
        for g, p in expansion.items()
    }
    expanded: dict[tuple, Packed] = {}

    def expand(mono: tuple) -> Packed:
        bound = sum(e * largest[gen] for gen, e in mono)
        if bound >= _EXP_LIMIT:
            raise OverflowError(
                f"expanding {ExactPoly({mono: 1})} may give exponent {bound}, "
                f"past the {_FIELD}-bit packed field"
            )
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
    _require_torus(N, M)

    def entry(g1: Gen, g2: Gen) -> ExactPoly:
        return induced_bracket_c(N, M, j, (g1[2], g1[3]), (g2[2], g2[3]))

    return BracketTable("bracket2_c", N, M, c_generators(N, M, j), entry)


def closure_verify(N: int, M: int, j: int = 1) -> dict:
    """Check the closed form against the A,B computation for every pair.

    Each level-j variable is expanded into its A,B polynomial, bracketed
    with the sign-table bracket, and compared against the closed form with
    the same expansion substituted in.  The A,B side is sum_x dc_a/dx *
    {x, c_b}, with each field {x, c_b} computed at most once.  When sigma is a
    symmetry of both tables and c(sigma x) = sigma c(x) on every expansion,
    sigma carries the check at a pair to the check at the shifted pair, so
    only the pairs whose first generator sits at site 0 are checked.
    """
    _require_torus(N, M)
    expansion = level_entries(N, M, j)
    table = bracket2_AB(N, M)
    closed_form = bracket2_c(N, M, j)
    gens = c_generators(N, M, j)
    packed, grads = zip(*(table._packed_gradient(expansion[g]) for g in gens))
    fields: dict[tuple[int, int], Packed] = {}  # (b, x) -> {x, c_b}
    substitute = pullback(table, expansion)
    firsts = _firsts((closed_form, table))
    if firsts.step > 1:
        sigma = closed_form._sigma
        if any(packed[sigma[a]] != table._shift(p) for a, p in enumerate(packed)):
            firsts = range(len(gens))

    def loop(firsts: range) -> list:
        failures = []
        for a in firsts:
            for b in range(a, len(gens)):
                g1, g2 = gens[a], gens[b]
                closed = substitute(closed_form.entry(g1, g2))
                direct: Packed = {}
                for x, dax in grads[a].items():
                    field = fields.get((b, x))
                    if field is None:
                        field = fields[(b, x)] = table._field(grads[b], x)
                    _mul_into(direct, dax, field)
                if _nonzero(closed) != _nonzero(direct):
                    failures.append({"pair": [list(g1), list(g2)]})
        return failures

    failures = _orbit_loop(loop, firsts)
    return {
        "identity": "closure",
        "N": N,
        "M": M,
        "level": j,
        "cases": len(gens) * (len(gens) + 1) // 2,
        "failures": failures,
        "ok": not failures,
    }


# ------------------------------------------------------------------- bracket1


def bracket1_c_pair(N: int, M: int, g1: tuple[int, int], g2: tuple[int, int]) -> ExactPoly:
    """{c_i1(k1), c_i2(k2)}_1 on the level-1 band, in closed form.

    With congruences mod N, c_0 = 1 and c_i = 0 for i outside [0, 2M]:

        {c_i1(k1), c_i2(k2)}_1 = BRACKET1_SIGN * s * ([k2 = k1 + M - i1] c_{i1+i2-M}(k1)
                                                   - [k1 = k2 + M - i2] c_{i1+i2-M}(k2))

    where s = +1 if i1, i2 < M, s = -1 if i1, i2 >= M, and s = 0 otherwise.

    Derivation from the trace formula tr([E1+, E2+] - [E1-, E2-]) C^T per
    period, with E1, E2 the gradients of c_i1(k1), c_i2(k2).  The gradient
    of c_i(k) is the N-periodic elementary band E with a 1 at (k, k + M - i):
    strictly upper (E+ = E) when i < M, weakly lower (E- = E) when i >= M.
    So both commutators vanish for a mixed pair, and otherwise one of them
    is [E1, E2], with the sign s.  A product of elementary bands is
    elementary: E1 E2 has its 1 at (k1, k1 + 2M - i1 - i2) when
    k1 + M - i1 = k2, and E2 E1 has its 1 at (k2, k2 + 2M - i1 - i2) when
    k2 + M - i2 = k1.  An elementary X with its 1 at (k, k + o) gives
    tr X C^T = C(k, k + o) = c_{M-o}(k), here c_{i1+i2-M}.  The literal
    formula is ``bracket1_c_literal`` in ``tests/poisson_oracle.py``.
    """
    _require_torus(N, M)
    (i1, k1), (i2, k2) = g1, g2
    i = i1 + i2 - M
    if (i1 < M) != (i2 < M) or not 0 <= i <= 2 * M:
        return ExactPoly.zero()

    def c(k: int) -> ExactPoly:
        return ExactPoly.var(gen_c(1, i, k % N)) if i else ExactPoly.const(1)

    out = ExactPoly.zero()
    if (k2 - k1 - M + i1) % N == 0:
        out = out + c(k1)
    if (k1 - k2 - M + i2) % N == 0:
        out = out - c(k2)
    return out * (BRACKET1_SIGN if i1 < M else -BRACKET1_SIGN)


@lru_cache(maxsize=None)
def bracket1_c(N: int, M: int) -> BracketTable:
    """First bracket on the level-1 band variables, classically oriented."""
    _require_torus(N, M)

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
    """Mixed Jacobiator of the bracket pair over all distinct generator triples.

    The Jacobiator is fully antisymmetric, and sigma carries it at a triple
    to the shifted triple; each orbit holds a triple whose smallest index
    sits at site 0, so with sigma a symmetry of both tables those suffice.
    """
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    _same_packing(t1, t2)
    gens = c_generators(N, M, 1)

    def loop(firsts: range) -> list:
        failures = []
        for a in firsts:
            for b, c in itertools.combinations(range(a + 1, len(gens)), 2):
                defect: Packed = {}
                _cyclic_into(defect, t2, t1, (a, b, c))
                _cyclic_into(defect, t1, t2, (a, b, c))
                if any(defect.values()):
                    failures.append({"triple": _triple_repr(gens, (a, b, c))})
        return failures

    failures = _orbit_loop(loop, _firsts((t1, t2)))
    return {
        "identity": "compatibility",
        "N": N,
        "M": M,
        "cases": math.comb(len(gens), 3),
        "failures": failures,
        "ok": not failures,
    }


def ladder_pairs(curve: SpectralCurve) -> list[tuple[int, int]]:
    """(upper degree, lower degree) pairs d -> d-M present in the ledger."""
    degrees = set(curve.degrees())
    return sorted((d, d - curve.M) for d in degrees if d - curve.M in degrees)


def verify_ladder(N: int, M: int) -> dict:
    """{q_{i+M}, g}_1 = {q_i, g}_2 on every generator, for every ledger pair.

    With sigma a symmetry of both tables and of the ledger, the field at
    sigma^k x is sigma^k of the field at x, so the site-0 generators suffice.
    """
    curve = band_curve(N, M)
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    # The two sides are compared as packed dicts, keyed alike only when both
    # tables number c_generators(N, M, 1) in the same order.
    _same_packing(t1, t2)
    gens = c_generators(N, M, 1)
    pairs = ladder_pairs(curve)
    in_row = {}
    for hi, lo in pairs:
        ehi, elo = curve.ledger[hi], curve.ledger[lo]
        in_row[(hi, lo)] = (ehi.alpha_exp, ehi.beta_exp + 1) == (
            elo.alpha_exp,
            elo.beta_exp,
        )

    def loop(firsts: range) -> list:
        return [
            {"pair_degrees": [hi, lo], "generator": repr(ExactPoly.var(gens[c]))}
            for hi, lo in pairs
            for c in firsts
            if t1._ledger_field(hi, c) != t2._ledger_field(lo, c)
        ]

    failures = _orbit_loop(loop, _firsts((t1, t2), ledger=True))
    return {
        "identity": "ladder",
        "N": N,
        "M": M,
        "pairs": pairs,
        "in_row": {f"{hi}->{lo}": v for (hi, lo), v in in_row.items()},
        "cases": len(pairs) * len(gens),
        "failures": failures,
        "ok": not failures,
    }


def verify_involution(N: int, M: int) -> dict:
    """{q_i, q_j} = 0 for all ledger pairs, under both brackets.

    Read from the Lenard-Magri chains (Magri, J. Math. Phys. 19, 1156,
    1978): the chains are ``ladder_pairs`` with step M, a chain bottom is a
    degree b with b - M outside the ledger, a chain top a degree a with
    a + M outside it.  Given the ladder {g, q_{i+M}}_1 = {g, q_i}_2 on every
    pair, bracket-1 Casimirs at the bottoms, bracket-2 Casimirs at the tops,
    and both tables antisymmetric:

    1. {q_a, q_b}_1 = {q_a, q_{b-M}}_2 = -{q_{b-M}, q_a}_2 = {q_{a+M}, q_{b-M}}_1.
    2. Each step moves a up its chain and b down its chain.
    3. The steps end at zero: b reaches a bottom (a bracket-1 Casimir) or a
       reaches a top (a bracket-2 Casimir), or the pair meets itself.
    4. {q_a, q_b}_2 = -{q_b, q_{a+M}}_1 = 0 by one more ladder step, or q_a
       is a top.

    The premises are checked exactly on the fields the ladder and Casimir
    suites share (site 0 only when sigma is a symmetry, as there).  If any
    fails, every pair is bracketed outright (``_involution_products``), so
    the failure records are those of the full product route.
    """
    curve = band_curve(N, M)
    t1 = bracket1_c(N, M)
    t2 = bracket2_c(N, M, 1)
    degrees = curve.degrees()
    failures = [] if _chains_close(curve, t1, t2) else _involution_products(curve, t1, t2)
    return {
        "identity": "involution",
        "N": N,
        "M": M,
        "cases": math.comb(len(degrees), 2),
        "failures": failures,
        "ok": not failures,
    }


def _chains_close(curve: SpectralCurve, t1: BracketTable, t2: BracketTable) -> bool:
    """Every premise of the chain proof in ``verify_involution``."""
    if t1.universe != t2.universe:
        return False
    pairs = ladder_pairs(curve)
    bottoms = sorted(set(curve.degrees()) - {hi for hi, _ in pairs})
    tops = sorted(set(curve.degrees()) - {lo for _, lo in pairs})
    firsts = _firsts((t1, t2), ledger=True)
    gens = range(len(t1.universe))
    return (
        not any(t._entry(a, a)[1] for t in (t1, t2) for a in gens)
        and set(bottoms) <= set(curve.casimir1_degrees())
        and set(tops) <= set(curve.casimir2_degrees())
        and not any(t1._ledger_field(d, c) for d in bottoms for c in firsts)
        and not any(t2._ledger_field(d, c) for d in tops for c in firsts)
        and all(t1._ledger_field(hi, c) == t2._ledger_field(lo, c) for hi, lo in pairs for c in firsts)
    )


def _involution_products(curve: SpectralCurve, t1: BracketTable, t2: BracketTable) -> list:
    """The failures of {q_i, q_j} = sum_a dq_i/dx_a * {x_a, q_j}, formed for
    every ledger pair under both brackets, inside each table's packing."""
    degrees = curve.degrees()
    # Every field of both tables is filled here, once, and the Casimir suites
    # read it from the same ledger stores.
    gens = range(len(t1.universe))
    fields = {(t, d, a): t._ledger_field(d, a) for t in (t1, t2) for d in degrees for a in gens}
    failures = []
    for d1, d2 in itertools.combinations(degrees, 2):
        for table, bracket in ((t2, 2), (t1, 1)):
            acc: Packed = {}
            for a, dfa in table._ledger(d1)[1].items():
                _mul_into(acc, dfa, fields[(table, d2, a)])
            if any(acc.values()):
                failures.append({"pair_degrees": [d1, d2], "bracket": bracket})
    return failures


def _casimir_suite(
    curve: SpectralCurve, table: BracketTable, casimirs: list[int]
) -> tuple[int, list, dict[int, bool]]:
    """Vanishing on the Casimir set, plus a nonvanishing witness off it,
    both read at the site-0 generators when sigma is a symmetry."""
    witnesses: dict[int, bool] = {}
    universe = table.universe

    def loop(firsts: range) -> list:
        failures = []
        for d in curve.degrees():
            if d in casimirs:
                for c in firsts:
                    if table._ledger_field(d, c):
                        failures.append({"degree": d, "generator": repr(ExactPoly.var(universe[c]))})
            else:
                found = witnesses[d] = any(table._ledger_field(d, c) for c in firsts)
                if not found:
                    failures.append({"degree": d, "reason": "unexpected Casimir"})
        return failures

    failures = _orbit_loop(loop, _firsts((table,), ledger=True))
    cases = sum(len(universe) if d in casimirs else 1 for d in curve.degrees())
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


def verify_jacobi(N: int, M: int) -> dict:
    """Jacobi identity over all distinct generator triples of all three tables.

    Trilinearity plus full antisymmetry of the Jacobiator make the distinct
    unordered triples sufficient; triples with a repeated generator vanish
    identically.  Where sigma is a symmetry of a table, the triples whose
    smallest index sits at site 0 suffice, as in ``verify_compatibility``.
    """
    _require_torus(N, M)
    tables = {
        "bracket2_AB": bracket2_AB(N, M),
        "bracket2_c": bracket2_c(N, M, 1),
        "bracket1_c": bracket1_c(N, M),
    }
    failures = []
    per_table: dict[str, int] = {}
    for name, table in tables.items():
        G = len(table.universe)

        def loop(firsts: range) -> list:
            found = []
            for a in firsts:
                for b, c in itertools.combinations(range(a + 1, G), 2):
                    defect: Packed = {}
                    _cyclic_into(defect, table, table, (a, b, c))
                    if any(defect.values()):
                        found.append({"table": name, "triple": _triple_repr(table.universe, (a, b, c))})
            return found

        failures += _orbit_loop(loop, _firsts((table,)))
        per_table[name] = math.comb(G, 3)
    return {
        "identity": "jacobi",
        "N": N,
        "M": M,
        "tables": per_table,
        "cases": sum(per_table.values()),
        "failures": failures,
        "ok": not failures,
    }

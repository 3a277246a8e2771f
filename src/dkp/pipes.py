"""Toroidal pipe diagrams and the combinatorics of the spectral determinant at B = 0.

A pipe diagram assigns to each torus site a subset of three local pieces —
a horizontal segment, a left-down knee, or an up-right knee — such that the
pieces join into closed loops.  Each site has four ports (N, S, E, W); the
pieces connect ports as

    horizontal       W <-> E
    left-down knee   W <-> S
    up-right knee    N <-> E

and ports abut across neighbouring sites: the E port of (n, m) meets the W
port of (n+1, m), and the S port of (n, m) meets the N port of (n, m-1).
A diagram is *closed* when every used port is matched by its abutting
neighbour's port.  The only site allowed to carry two pieces is one holding
both knees.  The *degree* of a diagram is its number of horizontal pieces.

Closed diagrams of degree d are in bijection with the pure-A monomials of
the degree-d conserved quantity of the spectral curve after the substitution
B = 0: the horizontal pieces sit exactly at the sites whose A-variables occur
in the monomial, and no two closed diagrams of positive degree share their
horizontal sites, which `monomial_tpd_bijection` checks.  It never forms
the full A, B curve: B = 0 is a ring homomorphism, so it commutes with the
determinant, and `monomial_tpd_bijection` sets B = 0 in the level-1 band
and computes the determinant at B = 0 directly.  The intersection pairing

    <d1, d2> = #{sites: d1 left-down knee and d2 horizontal}
             - #{sites: d1 up-right knee and d2 horizontal}
             = #{sites: d1 horizontal and d2 up-right knee}
             - #{sites: d1 horizontal and d2 left-down knee}

(the two forms agree because the pairing is antisymmetric) equals the
kappa-weighted sum over horizontal pairs — the coefficient the second
Poisson bracket of the corresponding monomials produces at B = 0 — is
antisymmetric, and sums to zero over every family of ordered diagram pairs
sharing the same product (the multiset union of placed pieces).  Note the
orientation: it is the knees of the *first* diagram against the horizontal
pieces of the *second* that count positively for left-down; with the roles
written the other way round the count comes out with the opposite sign on
every pair, which the exhaustive cross-check against the bracket rules out.
All of this is verified mechanically at desk scale by the test suite.

The exhaustive checks run on packed Python ints.  Number the diagrams of
all degrees in `enumerate_tpds` order; row r of the 0/1 matrices H, L and R
marks diagram r's horizontal, left-down and up-right pieces over the sites
n*M + m, and K is the circulant kappa matrix, K[s, t] = kappa(s - t).  Then,
over all ordered pairs at once,

    knee route    P = (L - R) H^T
    kappa route   P = H K H^T
    antisymmetry  P = -P^T

Row i of P is one int whose signed 16-bit field j (``symalg._FIELD``), at
bit 16*j, is entry (i, j).
With hcol[t] column t of H packed so, row i of the kappa route is the sum
over H_i of kcol[s] = sum_t kappa(s - t) hcol[t].  A closed diagram's R is
its L one row down, so row i of the knee route is the sum over (n, m) in L_i
of hcol[nM+m] - hcol[nM+(m-1)%M], and column i the sum over H_i of
lcol[nM+m] - lcol[nM+(m+1)%M]; each check on a row is one int equality.
No row is stored: the columns are packed once per degree, with its product
codes, and once over all degrees (``_columns``), and both checks stream
their rows from them (``_pairing_rows``).  The pairing check decodes only a
failing row, and a sum-zero block (d1, d2) gathers the rows of degree d1
against the columns of degree d2, so it holds one block of rows.
The 16-bit field holds the exact bound (NM)^2 max|kappa| on every torus with
NM <= 181, far past any torus the enumeration reaches; a larger bound raises
OverflowError, so no value is ever wrapped.  A pair's product is keyed by
the sum of its diagrams' codes, which give each entry of the [H | L] count
row a 2-bit field; a summed entry is at most 2, so equal sums are equal
products.  ``tests/pipes_oracle.py`` computes one entry by both routes, one
pair at a time.

The diagrams are built row by row from the port rules alone.  A site uses
no ports, W-E (horizontal), W-S (left-down), N-E (up-right) or all four
(both knees); the left-down knees of row m feed the up-right knees of row
m-1, and row 0 feeds row M-1.  Given the sites of a row that take a pipe
from above, its filling is forced except where a site takes a pipe from the
west but none from above, which is then horizontal or left-down.  The
enumeration walks rows M-1, ..., 0 down from each of the 2^N sets of pipes
entering the top row, keeps the walks whose last row feeds the first, and
sorts each degree by sorted horizontal support; every diagram of every
degree is built this one way, once per torus.  Degree 0 has two diagrams,
the empty one and the single all-knee cycle; they correspond to the
constant terms of the determinant and are excluded from the monomial
bijection, which concerns the nonconstant ledger entries.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterator, Sequence

from .curve import _curve_slots, slot_degree
from .lattice import reduction_levels
from .symalg import ExactPoly, Scalar, _FIELD, _signed_fields, _twos_complement
from .torus import SignFunction, _require_torus, build_kappa

Site = tuple[int, int]

HORIZONTAL = "horizontal"
LEFT_DOWN = "left-down-knee"
UP_RIGHT = "up-right-knee"

__all__ = [
    "HORIZONTAL",
    "LEFT_DOWN",
    "UP_RIGHT",
    "PipeDiagram",
    "enumerate_tpds",
    "monomial_tpd_bijection",
    "product_key",
    "pure_A_monomials",
    "sum_zero_check",
    "verify_pairing_consistency",
]


def _ports_closed(
    N: int,
    M: int,
    horizontal: frozenset[Site],
    left_down: frozenset[Site],
    up_right: frozenset[Site],
) -> bool:
    """Check that every used port is matched by the abutting neighbour."""
    for n in range(N):
        for m in range(M):
            site = (n, m)
            east = ((n + 1) % N, m)
            uses_e = site in horizontal or site in up_right
            feeds_w = east in horizontal or east in left_down
            if uses_e != feeds_w:
                return False
            below = (n, (m - 1) % M)
            uses_s = site in left_down
            feeds_n = below in up_right
            if uses_s != feeds_n:
                return False
    return True


@dataclass(frozen=True)
class PipeDiagram:
    """A closed assignment of pipe pieces to the sites of an N x M torus.

    Pieces are stored as three site sets.  A site may carry at most one
    horizontal piece; the only two-piece combination allowed is a left-down
    knee together with an up-right knee.  Closure of the joined loops is
    enforced at construction time.
    """

    N: int
    M: int
    horizontal: frozenset[Site]
    left_down: frozenset[Site]
    up_right: frozenset[Site]

    def __post_init__(self) -> None:
        _require_torus(self.N, self.M)
        for name in ("horizontal", "left_down", "up_right"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        for sites in (self.horizontal, self.left_down, self.up_right):
            for n, m in sites:
                if not (0 <= n < self.N and 0 <= m < self.M):
                    raise ValueError(f"site ({n}, {m}) outside the {self.N}x{self.M} torus")
        clash = self.horizontal & (self.left_down | self.up_right)
        if clash:
            raise ValueError(
                "a horizontal piece cannot share a site with a knee: " f"{sorted(clash)}"
            )
        if not _ports_closed(self.N, self.M, self.horizontal, self.left_down, self.up_right):
            raise ValueError("pipe diagram is not closed")

    @property
    def degree(self) -> int:
        return len(self.horizontal)

    @property
    def knee_pairs(self) -> int:
        return len(self.left_down)

    @cached_property
    def pieces(self) -> tuple[tuple[Site, str], ...]:
        """All placed pieces as a sorted tuple of (site, piece-name)."""
        out: list[tuple[Site, str]] = []
        out.extend((s, HORIZONTAL) for s in self.horizontal)
        out.extend((s, LEFT_DOWN) for s in self.left_down)
        out.extend((s, UP_RIGHT) for s in self.up_right)
        return tuple(sorted(out))

    @cached_property
    def winding(self) -> tuple[int, int]:
        """Net (eastward, southward) loop windings of the joined diagram.

        Every horizontal piece and every up-right knee advances one step
        east; every left-down knee advances one step south.  For a closed
        diagram both totals are multiples of the respective period.
        """
        east, east_rem = divmod(len(self.horizontal) + len(self.up_right), self.N)
        south, south_rem = divmod(len(self.left_down), self.M)
        if east_rem or south_rem:  # unreachable for a closed diagram
            raise AssertionError("closed diagram with fractional winding")
        return east, south

    def site_map(self) -> dict[str, list[str]]:
        """JSON-friendly map from "n,m" to the list of pieces at that site."""
        per_site: dict[Site, list[str]] = {}
        for site, piece in self.pieces:
            per_site.setdefault(site, []).append(piece)
        return {f"{n},{m}": pieces for (n, m), pieces in sorted(per_site.items())}

    def to_jsonable(self) -> dict:
        return {
            "N": self.N,
            "M": self.M,
            "degree": self.degree,
            "knee_pairs": self.knee_pairs,
            "winding": list(self.winding),
            "sites": self.site_map(),
        }


def _row_fillings(N: int, above: frozenset[int]) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """The (horizontal, left-down) sites of every filling of a row whose sites
    `above` take a pipe from above (see the module docstring)."""
    out = []
    for wrap in (False, True):  # whether a pipe runs east from the last site into the first
        partial = [((), (), wrap)]
        for n in range(N):
            step = []
            for h, ld, west in partial:
                if n in above:
                    step.append((h, ld + (n,) * west, True))
                elif west:
                    step += [(h + (n,), ld, True), (h, ld + (n,), False)]
                else:
                    step.append((h, ld, False))
            partial = step
        out += [(h, frozenset(ld)) for h, ld, west in partial if west == wrap]
    return out


@lru_cache(maxsize=None)
def _tpds(N: int, M: int) -> tuple[tuple[PipeDiagram, ...], ...]:
    """Every closed diagram of the torus, indexed by degree (see the module docstring)."""
    tops = [frozenset(n for n in range(N) if v >> n & 1) for v in range(2**N)]
    fillings = {above: _row_fillings(N, above) for above in tops}
    by_degree: list[list[PipeDiagram]] = [[] for _ in range(N * M + 1)]
    for first in tops:
        walks = [((), first)]  # fillings of rows M-1, M-2, ..., and the pipes into the next row
        for m in range(M - 1, -1, -1):
            walks = [
                (rows + (f,), f[1])
                for rows, above in walks
                for f in fillings[above]
                if m or f[1] == first  # the last row must feed the first
            ]
        for rows, _ in walks:
            h = [(n, M - 1 - r) for r, (row_h, _) in enumerate(rows) for n in row_h]
            ld = [(n, M - 1 - r) for r, (_, row_ld) in enumerate(rows) for n in row_ld]
            by_degree[len(h)].append(PipeDiagram(N, M, h, ld, [(n, (m - 1) % M) for n, m in ld]))
    return tuple(tuple(sorted(ds, key=lambda d: sorted(d.horizontal))) for ds in by_degree)


def enumerate_tpds(N: int, M: int, degree: int) -> list[PipeDiagram]:
    """All closed diagrams of the given degree, sorted by sorted horizontal support.

    The two degree-0 diagrams share the empty support; the empty diagram
    comes first, then the all-knee cycle.
    """
    _require_torus(N, M)
    if not 0 <= degree <= N * M:
        raise ValueError(f"degree must lie in [0, {N * M}], got {degree}")
    return list(_tpds(N, M)[degree])


def pure_A_monomials(poly: ExactPoly) -> list[tuple[frozenset[Site], Scalar]]:
    """The terms of `poly` that survive B = 0, as (site support, coefficient).

    Every surviving monomial must be squarefree in the A-variables so that
    its support determines it; a repeated factor would have no diagram
    counterpart and raises.
    """
    out: list[tuple[frozenset[Site], Scalar]] = []
    for mono, coeff in poly:
        if any(gen[0] != "A" for gen, _ in mono):
            continue
        if any(exp != 1 for _, exp in mono):
            raise RuntimeError(f"pure-A monomial with a repeated factor: {mono}")
        out.append((frozenset((gen[1], gen[2]) for gen, _ in mono), coeff))
    return out


def _b0_slots(N: int, M: int) -> dict[tuple[int, int], ExactPoly]:
    """The normalized spectral-curve slots at B = 0, from the determinant of
    the level-1 band with B set to 0 (see the module docstring).  B enters
    the band only with positive exponents: B = 0 drops every term with a B."""
    band = {
        key: ExactPoly({mono: q for mono, q in p.terms.items() if all(g[0] != "B" for g, _ in mono)})
        for key, p in reduction_levels(N, M)[1].items()
    }
    return _curve_slots(N, M, band)


def monomial_tpd_bijection(N: int, M: int) -> dict:
    """Match the pure-A monomials of every conserved quantity with diagrams.

    For each degree d from 1 to NM the monomials of q_d surviving B = 0 are
    looked up by support in the enumeration of degree d and the counts are
    compared; the report carries both directions of the map and per-degree
    counts.  A ledger degree above NM that keeps a monomial at B = 0 raises
    (a squarefree pure-A monomial has at most NM factors).  Two
    diagrams of one degree sharing a support, or a monomial with no closed
    diagram, raise: either would break the bijection.
    """
    _require_torus(N, M)
    NM = N * M
    supports_by_degree: dict[int, list[frozenset[Site]]] = {d: [] for d in range(1, NM + 1)}
    coeffs_by_support: dict[frozenset[Site], Scalar] = {}
    for (a, b), poly in _b0_slots(N, M).items():
        if poly.is_constant():
            continue  # the degree-0 slots (M, 0) and (0, N)
        d = slot_degree(N, M, a, b)
        if d > NM:
            raise RuntimeError(
                f"q_{d} kept a pure-A monomial of degree above the site count {NM}"
            )
        for support, coeff in pure_A_monomials(poly):
            if len(support) != d:
                raise RuntimeError(
                    f"pure-A monomial of q_{d} has {len(support)} factors, expected {d}"
                )
            supports_by_degree[d].append(support)
            coeffs_by_support[support] = coeff

    per_degree: dict[int, dict] = {}
    monomial_to_diagram: dict[frozenset[Site], PipeDiagram] = {}
    diagram_to_monomial: dict[PipeDiagram, frozenset[Site]] = {}
    ok = True
    for d in range(1, NM + 1):
        diagrams = enumerate_tpds(N, M, d)
        supports = supports_by_degree[d]
        if len(set(supports)) != len(supports):  # pragma: no cover - dict keys of a poly
            raise RuntimeError(f"q_{d} supports collide at degree {d}")
        enumerated = {diag.horizontal: diag for diag in diagrams}
        if len(enumerated) != len(diagrams):
            raise RuntimeError(f"two closed diagrams of degree {d} share a horizontal support")
        for support in supports:
            diag = enumerated.get(support)
            if diag is None:
                raise RuntimeError(
                    f"monomial with support {sorted(support)} has no closed diagram"
                )
            monomial_to_diagram[support] = diag
            diagram_to_monomial[diag] = support
        matched = len(supports) == len(diagrams)
        per_degree[d] = {
            "monomials": len(supports),
            "diagrams": len(diagrams),
            "ok": matched,
        }
        ok = ok and matched
    return {
        "N": N,
        "M": M,
        "per_degree": per_degree,
        "total_monomials": sum(r["monomials"] for r in per_degree.values()),
        "total_diagrams": sum(r["diagrams"] for r in per_degree.values()),
        "monomial_to_diagram": monomial_to_diagram,
        "diagram_to_monomial": diagram_to_monomial,
        "monomial_coefficients": coeffs_by_support,
        "ok": ok,
    }


def _same_torus(d1: PipeDiagram, d2: PipeDiagram) -> None:
    if (d1.N, d1.M) != (d2.N, d2.M):
        raise ValueError(
            f"diagrams live on different tori: ({d1.N}, {d1.M}) vs ({d2.N}, {d2.M})"
        )


def product_key(d1: PipeDiagram, d2: PipeDiagram) -> tuple[tuple[Site, str], ...]:
    """Canonical key for the product: the multiset union of placed pieces."""
    _same_torus(d1, d2)
    return tuple(sorted(d1.pieces + d2.pieces))


def _code(d: PipeDiagram) -> int:
    """The product code of a diagram.  It leaves R out: a product's R row is
    its L row moved one row down, as each left-down knee feeds an up-right one."""
    NM = d.N * d.M
    return sum(1 << 2 * (n * d.M + m) for n, m in d.horizontal) + sum(
        1 << 2 * (NM + n * d.M + m) for n, m in d.left_down
    )


def _diagrams(N: int, M: int, degree: int | None) -> Sequence[PipeDiagram]:
    """The diagrams of one degree, or of every degree when `degree` is None."""
    tpds = _tpds(N, M)
    return [d for ds in tpds for d in ds] if degree is None else tpds[degree]


@lru_cache(maxsize=None)
def _columns(kappa: SignFunction, degree: int | None) -> tuple[tuple[int, ...], ...]:
    """The product codes of the diagrams of `degree` (of every degree when
    None), and the columns over them that pairing rows gather, per site
    s = n*M + m: ``hcol[s] - hcol[s below]``, ``kcol[s]`` and
    ``lcol[s] - lcol[s above]``, fields ``_FIELD`` bits apart."""
    N, M = kappa.N, kappa.M
    # a knee entry is at most NM, a kappa entry at most (NM)^2 max|kappa|
    bound = N * M * max(1, N * M * max(abs(v) for row in kappa.values for v in row))
    if bound >= 1 << _FIELD - 1:
        raise OverflowError(f"pairing bound {bound} does not fit a {_FIELD}-bit field")
    diagrams = _diagrams(N, M, degree)
    sites = [(n, m) for n in range(N) for m in range(M)]  # site n*M + m

    def columns(pieces: str) -> list[int]:
        cols = [bytearray(_FIELD // 8 * len(diagrams)) for _ in sites]
        for j, d in enumerate(diagrams):
            for n, m in getattr(d, pieces):
                cols[n * M + m][_FIELD // 8 * j] = 1
        return [int.from_bytes(c, "little") for c in cols]

    hcol, lcol = columns("horizontal"), columns("left_down")
    return (
        tuple(map(_code, diagrams)),
        tuple(hcol[n * M + m] - hcol[n * M + (m - 1) % M] for n, m in sites),
        tuple(sum(kappa(n - p, m - q) * h for (p, q), h in zip(sites, hcol)) for n, m in sites),
        tuple(lcol[n * M + m] - lcol[n * M + (m + 1) % M] for n, m in sites),
    )


def _pairing_rows(
    kappa: SignFunction, degree1: int | None, degree2: int | None
) -> Iterator[tuple[int, int, int]]:
    """Per diagram of `degree1`, in order: its packed row of ``(L - R) H^T``,
    its packed row of ``H K H^T`` and its packed column of ``(L - R) H^T``
    over the diagrams of `degree2`; None stands for every degree."""
    M = kappa.M
    site = {(n, m): n * M + m for n in range(kappa.N) for m in range(M)}.__getitem__
    _, knee_rows, kappa_rows, knee_cols = _columns(kappa, degree2)
    for d in _diagrams(kappa.N, M, degree1):
        h = list(map(site, d.horizontal))
        yield (
            sum(map(knee_rows.__getitem__, map(site, d.left_down))),
            sum(map(kappa_rows.__getitem__, h)),
            sum(map(knee_cols.__getitem__, h)),
        )


def _decode(row: int, count: int) -> memoryview:
    """The `count` signed fields of a packed row."""
    return _signed_fields(_twos_complement(row, count), count)


def verify_pairing_consistency(N: int, M: int) -> dict:
    """Cross-check both pairing formulas and antisymmetry on all diagram pairs."""
    _require_torus(N, M)
    diagrams = _diagrams(N, M, None)
    count = len(diagrams)
    failures = []
    rows = _pairing_rows(build_kappa(N, M), None, None)
    for d1, (knee, kappa_sum, reverse) in zip(diagrams, rows):
        if knee == kappa_sum == -reverse:
            continue
        knee, kappa_sum, reverse = (_decode(row, count) for row in (knee, kappa_sum, reverse))
        failures += [
            {
                "d1": d1.site_map(),
                "d2": d2.site_map(),
                "knee": k,
                "kappa_sum": kappa_sum[j],
                "reverse": reverse[j],
            }
            for j, (d2, k) in enumerate(zip(diagrams, knee))
            if k != kappa_sum[j] or k != -reverse[j]
        ]
    return {
        "N": N,
        "M": M,
        "diagrams": count,
        "pairs": count**2,
        "failures": failures,
        "ok": not failures,
    }


def sum_zero_check(N: int, M: int, degree1: int, degree2: int) -> dict:
    """Group ordered diagram pairs by product; every group must sum to zero.

    Groups are numbered in the order of their first pair, and a group's
    pairs are listed in pair order.
    """
    _require_torus(N, M)
    diags1 = enumerate_tpds(N, M, degree1)
    diags2 = enumerate_tpds(N, M, degree2)
    report = {"N": N, "M": M, "degrees": [degree1, degree2], "pairs": len(diags1) * len(diags2)}
    if not report["pairs"]:  # a degree without diagrams: no pair, no group
        empty = {"groups": 0, "max_group_size": 0, "nonzero_pairings": 0, "nonzero_groups": []}
        return {**report, **empty, "ok": True}
    kappa = build_kappa(N, M)
    codes1, codes2 = _columns(kappa, degree1)[0], _columns(kappa, degree2)[0]
    rows = []  # the block's knee rows, decoded
    for knee, kappa_sum, _ in _pairing_rows(kappa, degree1, degree2):
        rows.append(_decode(knee, len(diags2)))
        if knee != kappa_sum:
            for k, q in zip(rows[-1], _decode(kappa_sum, len(diags2))):
                if k != q:
                    raise RuntimeError(f"pairing routes disagree: knee count {k}, kappa sum {q}")
    sizes: Counter[int] = Counter()
    totals: defaultdict[int, int] = defaultdict(int)  # over the nonzero pairings only
    nonzero = 0
    for c1, row in zip(codes1, rows):
        keys = list(map(c1.__add__, codes2))
        sizes.update(keys)
        values = list(compress(row, row))
        nonzero += len(values)
        for key, k in zip(compress(keys, row), values):
            totals[key] += k
    records: dict[int, dict] = {}
    if any(totals.values()):  # rebuild the failure records, groups in order of first pair
        for i, (c1, row) in enumerate(zip(codes1, rows)):
            for j, (c2, k) in enumerate(zip(codes2, row)):
                if totals.get(c1 + c2):
                    if c1 + c2 not in records:
                        pieces = product_key(diags1[i], diags2[j])
                        product = [f"{n},{m}:{piece}" for (n, m), piece in pieces]
                        records[c1 + c2] = {"product": product, "total": totals[c1 + c2], "pairs": []}
                    records[c1 + c2]["pairs"].append((i, j, k))
    return {
        **report,
        "groups": len(sizes),
        "max_group_size": max(sizes.values()),
        "nonzero_pairings": nonzero,
        "nonzero_groups": list(records.values()),
        "ok": not records,
    }


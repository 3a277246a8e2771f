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

The exhaustive checks run as integer matrix algebra.  Row r of the int64
matrices H, L and R is the 0/1 indicator of diagram r's horizontal,
left-down and up-right pieces over the sites n*M + m, and K is the
circulant kappa matrix, K[s, t] = kappa(s - t).  Then, over all ordered
pairs at once,

    knee route    P = (L - R) H^T
    kappa route   P = H K H^T
    antisymmetry  P = -P^T

and the product of a pair is the sum of the two diagrams' [H | L | R]
count rows (each entry at most 2), so grouping pairs by product is grouping
equal summed rows.  The arithmetic is exact: no float enters, every entry
is bounded by NM on the knee route and by (NM)^2 max|kappa| on the kappa
route, and a group total adds at most one knee entry per pair, all far
inside int64.  `pairing` computes a single entry by both routes.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .curve import _curve_slots, realizable_degrees, slot_degree
from .lattice import reduction_levels
from .symalg import ExactPoly, Gen, Scalar, gen_B, poly_A
from .torus import _require_torus, build_kappa

Site = tuple[int, int]

HORIZONTAL = "horizontal"
LEFT_DOWN = "left-down-knee"
UP_RIGHT = "up-right-knee"

__all__ = [
    "HORIZONTAL",
    "LEFT_DOWN",
    "UP_RIGHT",
    "PipeDiagram",
    "bracket_b0_check",
    "decomposition_partners",
    "diagram_from_support",
    "enumerate_tpds",
    "monomial_tpd_bijection",
    "pairing",
    "pairing_routes",
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

    def monomial(self) -> ExactPoly:
        """The product of A-variables over the horizontal sites."""
        poly = ExactPoly.const(1)
        for n, m in sorted(self.horizontal):
            poly = poly * poly_A(n, m)
        return poly

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


def diagram_from_support(N: int, M: int, support: Iterable[Site]) -> PipeDiagram | None:
    """The first closed diagram, in `enumerate_tpds` order, whose horizontal
    pieces sit at `support`; None when no closed diagram has that support.

    Every support of positive degree has at most one diagram; the empty
    support has two, and this returns the empty diagram.  The first call on a
    torus enumerates all of its diagrams.
    """
    _require_torus(N, M)
    h = frozenset((n % N, m % M) for n, m in support)
    return next((d for d in _tpds(N, M)[len(h)] if d.horizontal == h), None)


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


def _b_zero(N: int, M: int) -> dict[Gen, int]:
    """The substitution B = 0 on every site of the torus."""
    return {gen_B(n, m): 0 for n in range(N) for m in range(M)}


def _b0_slots(N: int, M: int) -> dict[tuple[int, int], ExactPoly]:
    """The normalized spectral-curve slots at B = 0, from the determinant of
    the level-1 band with B set to 0 (see the module docstring)."""
    b_zero = _b_zero(N, M)
    band = {key: p.substitute(b_zero) for key, p in reduction_levels(N, M)[1].items()}
    return _curve_slots(N, M, band)


def monomial_tpd_bijection(N: int, M: int) -> dict:
    """Match the pure-A monomials of every conserved quantity with diagrams.

    For each degree d from 1 to NM the monomials of q_d surviving B = 0 are
    looked up by support in the enumeration of degree d and the counts are
    compared; the report carries both directions of the map and per-degree
    counts.  Ledger degrees above NM are checked to have no surviving
    monomial (a squarefree pure-A monomial has at most NM factors).  Two
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
    high_degrees = {d: 0 for d in sorted(realizable_degrees(N, M)) if d > NM}

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
        "high_degree_monomials": high_degrees,
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


def pairing_routes(d1: PipeDiagram, d2: PipeDiagram) -> tuple[int, int]:
    """The intersection pairing by both formulas: (knee count, kappa sum).

    Knee route: left-down knees of d1 on horizontal sites of d2 count +1,
    up-right knees of d1 on horizontal sites of d2 count -1.
    """
    _same_torus(d1, d2)
    knee = sum(1 for s in d2.horizontal if s in d1.left_down) - sum(
        1 for s in d2.horizontal if s in d1.up_right
    )
    kappa = build_kappa(d1.N, d1.M)
    kappa_sum = sum(kappa(n - i, m - j) for n, m in d1.horizontal for i, j in d2.horizontal)
    return knee, kappa_sum


def pairing(d1: PipeDiagram, d2: PipeDiagram) -> int:
    """The intersection pairing <d1, d2>, cross-checked between both routes."""
    knee, kappa_sum = pairing_routes(d1, d2)
    if knee != kappa_sum:  # pragma: no cover - the two formulas provably agree
        raise RuntimeError(
            f"pairing routes disagree: knee count {knee}, kappa sum {kappa_sum}"
        )
    return knee


def product_key(d1: PipeDiagram, d2: PipeDiagram) -> tuple[tuple[Site, str], ...]:
    """Canonical key for the product: the multiset union of placed pieces."""
    _same_torus(d1, d2)
    return tuple(sorted(d1.pieces + d2.pieces))


# Matrix form.  A diagram is a (3, NM) 0/1 count row: its horizontal,
# left-down and up-right pieces (in the sorted order of the piece names)
# at site n*M + m.  Every array is int64 or int8; no float is involved.

_PIECE_ORDER = (HORIZONTAL, LEFT_DOWN, UP_RIGHT)


def _piece_counts(diagrams: Sequence[PipeDiagram], N: int, M: int) -> np.ndarray:
    """Stack the diagrams' count rows into an int64 array of shape (len, 3, NM)."""
    counts = np.zeros((len(diagrams), 3, N * M), dtype=np.int64)
    for r, diag in enumerate(diagrams):
        for k, sites in enumerate((diag.horizontal, diag.left_down, diag.up_right)):
            counts[r, k, [n * M + m for n, m in sites]] = 1
    return counts


@lru_cache(maxsize=None)
def _counts_cached(N: int, M: int, degree: int) -> np.ndarray:
    """The read-only count rows of ``enumerate_tpds(N, M, degree)``."""
    counts = _piece_counts(_tpds(N, M)[degree], N, M)
    counts.flags.writeable = False
    return counts


def _pairing_matrices(
    counts1: np.ndarray, counts2: np.ndarray, N: int, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both routes for every ordered pair: ``(L1 - R1) H2^T`` and ``H1 K H2^T``."""
    values = np.array(build_kappa(N, M).values, dtype=np.int64)  # values[m][n]
    n, m = np.divmod(np.arange(N * M), M)
    K = values[(m[:, None] - m) % M, (n[:, None] - n) % N]
    H1, L1, R1 = counts1[:, 0], counts1[:, 1], counts1[:, 2]
    H2 = counts2[:, 0]
    return (L1 - R1) @ H2.T, H1 @ K @ H2.T


def _product_groups(counts1: np.ndarray, counts2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the ordered pairs of two diagram lists by product.

    Pair (i, j) has flat index ``i * len(counts2) + j``.  Returns the product
    count row of each group, shape (groups, 3, NM), and the group of each
    pair.  Groups are numbered in the order of their first pair.
    """
    shape = counts1.shape[1:]
    keys = counts1.astype(np.int8)[:, None] + counts2.astype(np.int8)[None, :]  # entries <= 2
    keys = keys.reshape(len(counts1) * len(counts2), shape[0] * shape[1])
    packed = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return keys[first[order]].reshape(-1, *shape), rank[inverse.ravel()]


def verify_pairing_consistency(N: int, M: int) -> dict:
    """Cross-check both pairing formulas and antisymmetry on all diagram pairs."""
    _require_torus(N, M)
    degrees = range(N * M + 1)
    diagrams = [d for deg in degrees for d in enumerate_tpds(N, M, deg)]
    counts = np.concatenate([_counts_cached(N, M, deg) for deg in degrees])
    knee, kappa_sum = _pairing_matrices(counts, counts, N, M)
    bad = np.argwhere((knee != kappa_sum) | (knee != -knee.T))
    failures = [
        {
            "d1": diagrams[i].site_map(),
            "d2": diagrams[j].site_map(),
            "knee": int(knee[i, j]),
            "kappa_sum": int(kappa_sum[i, j]),
            "reverse": int(knee[j, i]),
        }
        for i, j in bad
    ]
    return {
        "N": N,
        "M": M,
        "diagrams": len(diagrams),
        "pairs": len(diagrams) ** 2,
        "failures": failures,
        "ok": not failures,
    }


def sum_zero_check(N: int, M: int, degree1: int, degree2: int) -> dict:
    """Group ordered diagram pairs by product; every group must sum to zero."""
    _require_torus(N, M)
    diags1 = enumerate_tpds(N, M, degree1)
    diags2 = enumerate_tpds(N, M, degree2)
    counts1 = _counts_cached(N, M, degree1)
    counts2 = _counts_cached(N, M, degree2)
    knee, kappa_sum = _pairing_matrices(counts1, counts2, N, M)
    disagree = np.argwhere(knee != kappa_sum)
    if len(disagree):
        i, j = disagree[0]
        raise RuntimeError(
            f"pairing routes disagree: knee count {knee[i, j]}, kappa sum {kappa_sum[i, j]}"
        )
    keys, group = _product_groups(counts1, counts2)
    values = knee.ravel()
    totals = np.zeros(len(keys), dtype=np.int64)
    np.add.at(totals, group, values)
    bad = []
    for g in np.flatnonzero(totals):
        flat = np.flatnonzero(group == g)
        members = [(*divmod(int(f), len(diags2)), int(values[f])) for f in flat]
        bad.append(
            {
                "product": [
                    f"{s // M},{s % M}:{piece}"
                    for s in range(N * M)
                    for k, piece in enumerate(_PIECE_ORDER)
                    for _ in range(keys[g, k, s])
                ],
                "total": int(totals[g]),
                "pairs": members,
            }
        )
    return {
        "N": N,
        "M": M,
        "degrees": [degree1, degree2],
        "pairs": len(diags1) * len(diags2),
        "groups": len(keys),
        "max_group_size": int(np.bincount(group).max()) if len(group) else 0,
        "nonzero_pairings": int(np.count_nonzero(knee)),
        "nonzero_groups": bad,
        "ok": not bad,
    }


def decomposition_partners(
    d1: PipeDiagram, d2: PipeDiagram
) -> list[tuple[PipeDiagram, PipeDiagram]]:
    """All other ordered pairs with the same degrees and the same product."""
    _same_torus(d1, d2)
    N, M = d1.N, d1.M
    diags1 = enumerate_tpds(N, M, d1.degree)
    diags2 = enumerate_tpds(N, M, d2.degree)
    _, group = _product_groups(_counts_cached(N, M, d1.degree), _counts_cached(N, M, d2.degree))
    own = diags1.index(d1) * len(diags2) + diags2.index(d2)
    return [
        (diags1[f // len(diags2)], diags2[f % len(diags2)])
        for f in np.flatnonzero(group == group[own])
        if f != own
    ]


def bracket_b0_check(
    N: int, M: int, degree1: int, degree2: int, limit: int | None = None
) -> dict:
    """Verify {m1, m2} restricted to B = 0 equals pairing * m1 * m2.

    m1, m2 are the monomials of the diagrams (products of A over horizontal
    sites).  The bracket of two A-products also generates B-terms; they are
    killed by substituting B = 0 after bracketing, and what survives must be
    exactly the intersection pairing times the product monomial.
    """
    from .poisson import bracket2_AB, bracket_extend

    _require_torus(N, M)
    table = bracket2_AB(N, M)
    b_zero = _b_zero(N, M)
    diags1 = enumerate_tpds(N, M, degree1)
    diags2 = enumerate_tpds(N, M, degree2)
    pairs = [(d1, d2) for d1 in diags1 for d2 in diags2]
    if limit is not None:
        pairs = pairs[:limit]
    failures = []
    for d1, d2 in pairs:
        m1 = d1.monomial()
        m2 = d2.monomial()
        lhs = bracket_extend(table, m1, m2).substitute(b_zero)
        rhs = m1 * m2 * Fraction(pairing(d1, d2))
        if lhs != rhs:
            failures.append({"d1": d1.site_map(), "d2": d2.site_map()})
    return {
        "N": N,
        "M": M,
        "degrees": [degree1, degree2],
        "pairs": len(pairs),
        "failures": failures,
        "ok": not failures,
    }

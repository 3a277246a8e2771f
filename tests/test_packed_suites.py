"""The packed identity suites against the per-case ``ExactPoly`` route.

``poisson_oracle`` runs every suite case by case through ``bracket_extend``
and ``ExactPoly`` sums.  The packed suites must report the same cases and the
same failures, on the true tables and on tables with one planted error.
"""

import dataclasses

import pytest

import poisson_oracle as oracle
from dkp import poisson
from dkp.curve import band_curve
from dkp.poisson import BracketTable, c_generators
from dkp.symalg import ExactPoly, gen_c

TORI = [(3, 2), (4, 3), (5, 2), (3, 4)]

# suite -> (packed suite, oracle, report keys both must agree on)
SUITES = {
    "jacobi": (poisson.verify_jacobi, oracle.jacobi, ("cases", "failures", "tables")),
    "compatibility": (poisson.verify_compatibility, oracle.compatibility, ("cases", "failures")),
    "ladder": (poisson.verify_ladder, oracle.ladder, ("cases", "failures")),
    "involution": (poisson.verify_involution, oracle.involution, ("cases", "failures")),
    "casimir1": (
        poisson.verify_casimir1, oracle.casimir1, ("cases", "failures", "noncasimir_witnesses"),
    ),
    "casimir2": (
        poisson.verify_casimir2, oracle.casimir2, ("cases", "failures", "noncasimir_witnesses"),
    ),
}


def _agree(packed: dict, reference: dict, keys) -> None:
    for key in keys:
        assert packed[key] == reference[key], key


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("N,M", TORI)
def test_packed_suite_matches_oracle(N, M, suite):
    packed, reference, keys = SUITES[suite]
    _agree(packed(N, M), reference(N, M), keys)


@pytest.mark.parametrize("N,M", TORI)
def test_packed_closure_matches_oracle(N, M):
    for j in range(1, M + 1):
        _agree(poisson.closure_verify(N, M, j), oracle.closure(N, M, j), ("cases", "failures"))


# ------------------------------------------------------------ planted errors


def _mutant(table: BracketTable, g1, g2, change) -> BracketTable:
    """A fresh table equal to ``table`` except {g1, g2} -> change({g1, g2}),
    with {g2, g1} changed to match, so the mutant stays antisymmetric."""

    def entry(a, b):
        p = table.entry(a, b)
        if (a, b) == (g1, g2):
            return change(p)
        if (a, b) == (g2, g1):
            return -change(-p)
        return p

    return BracketTable(table.kind, table.N, table.M, table.universe, entry)


def _first_pair(table: BracketTable, keep):
    """The first generator pair, in universe order, whose entry passes keep."""
    gens = table.universe
    return next(
        (g1, g2) for i, g1 in enumerate(gens) for g2 in gens[i + 1:] if keep(table.entry(g1, g2))
    )


@pytest.fixture
def flipped_bracket1(monkeypatch):
    """bracket1_c on (3,2) with the sign of its first nonconstant entry flipped.

    (A flipped constant entry has zero gradient, so every Jacobiator of the
    table alone still vanishes.)"""
    true = poisson.bracket1_c(3, 2)
    g1, g2 = _first_pair(true, lambda p: not p.is_constant())
    mutant = _mutant(true, g1, g2, lambda p: -p)
    monkeypatch.setattr(poisson, "bracket1_c", lambda N, M: mutant)
    return mutant


@pytest.mark.parametrize("suite", ["jacobi", "compatibility"])
def test_flipped_bracket1_sign_fails_the_oracle_triples(flipped_bracket1, suite):
    packed, reference, keys = SUITES[suite]
    got, want = packed(3, 2), reference(3, 2)
    assert want["failures"], "the planted sign flip must break some triple"
    assert not got["ok"]
    _agree(got, want, keys)


@pytest.mark.parametrize("suite", ["ladder", "involution", "casimir1"])
def test_flipped_bracket1_sign_agrees_with_oracle(flipped_bracket1, suite):
    packed, reference, keys = SUITES[suite]
    _agree(packed(3, 2), reference(3, 2), keys)


def test_perturbed_bracket2_entry_fails_closure_on_that_pair(monkeypatch):
    true = poisson.bracket2_c(3, 2, 1)
    g1, g2 = _first_pair(true, bool)
    mutant = _mutant(true, g1, g2, lambda p: p + ExactPoly.var(g1) * ExactPoly.var(g2))
    monkeypatch.setattr(poisson, "bracket2_c", lambda N, M, j: mutant if j == 1 else true)
    got = poisson.closure_verify(3, 2, 1)
    assert got["failures"] == [{"pair": [list(g1), list(g2)]}]
    _agree(got, oracle.closure(3, 2, 1), ("cases", "failures"))


# ------------------------------------------- planted faults against sigma


def _clear_level1_caches() -> None:
    """Drop the cached level-1 tables and the ledger stores they read."""
    poisson.bracket1_c.cache_clear()
    poisson.bracket2_c.cache_clear()
    poisson._ledger_store.cache_clear()


@pytest.fixture
def fresh_tables():
    """Empty the table caches before and after: a test that swaps the band
    curve must not leave ledger stores filled from it behind."""
    _clear_level1_caches()
    yield
    _clear_level1_caches()


def _swap_curve(monkeypatch, curve) -> None:
    """Both routes read ``curve`` as the torus's band curve."""
    monkeypatch.setattr(poisson, "band_curve", lambda N, M: curve)
    monkeypatch.setattr(oracle, "compute_curve", lambda N, M, mode="AB": curve)


def _with_q(curve, d: int, poly: ExactPoly):
    """``curve`` with ledger entry q_d replaced by ``poly``."""
    entry = dataclasses.replace(curve.ledger[d], poly=poly)
    return dataclasses.replace(curve, ledger={**curve.ledger, d: entry})


def test_bracket2_sign_flipped_at_one_site_breaks_equivariance(monkeypatch):
    # both generators off site 0, so no site-0 field of the ledger sees the
    # flip: only the equivariance check sends ladder past site 0 to it
    true = poisson.bracket2_c(3, 2, 1)
    pairs = [(g1, g2) for g1 in true.universe for g2 in true.universe if g1[3] == g2[3] == 1]
    g1, g2 = next((g1, g2) for g1, g2 in pairs if g1 < g2 and not true.entry(g1, g2).is_constant())
    mutant = _mutant(true, g1, g2, lambda p: -p)
    monkeypatch.setattr(poisson, "bracket2_c", lambda N, M, j: mutant if j == 1 else true)
    assert true._symmetric() and not mutant._symmetric()
    for suite in ("jacobi", "compatibility", "ladder", "involution", "casimir1", "casimir2"):
        packed, reference, keys = SUITES[suite]
        got, want = packed(3, 2), reference(3, 2)
        if suite == "ladder":
            assert want["failures"]
        _agree(got, want, keys)
    got = poisson.closure_verify(3, 2, 1)
    assert got["failures"]
    _agree(got, oracle.closure(3, 2, 1), ("cases", "failures"))


def test_sign_flipped_on_a_whole_orbit_reruns_every_first_generator(monkeypatch):
    # sigma stays a symmetry, so the suites start on site-0 representatives;
    # one failing representative reruns the loop on every first generator
    true = poisson.bracket1_c(3, 2)
    g1, g2 = _first_pair(true, lambda p: not p.is_constant())
    orbit = {(g1, g2)}
    for _ in range(2):
        g1, g2 = poisson._site_shift(g1, 3), poisson._site_shift(g2, 3)
        orbit.add((g1, g2))

    def entry(a, b):
        p = true.entry(a, b)
        return -p if (a, b) in orbit or (b, a) in orbit else p

    mutant = BracketTable(true.kind, 3, 2, true.universe, entry)
    monkeypatch.setattr(poisson, "bracket1_c", lambda N, M: mutant)
    assert mutant._symmetric(ledger=True)
    for suite in ("jacobi", "compatibility", "ladder", "involution", "casimir1"):
        packed, reference, keys = SUITES[suite]
        got, want = packed(3, 2), reference(3, 2)
        if suite in ("jacobi", "compatibility"):
            assert len(want["failures"]) > 1
        _agree(got, want, keys)


def test_ledger_coefficient_perturbed_at_one_site_breaks_invariance(monkeypatch, fresh_tables):
    # the term -c_1(0) c_4(4) of q_5 on (5,2) brackets to zero with every
    # site-0 generator under both brackets: only the invariance check sends
    # the ledger suites past site 0, where its double breaks them
    curve = band_curve(5, 2)
    mono = ((gen_c(1, 1, 0), 1), (gen_c(1, 4, 4), 1))
    assert curve.q(5).terms[mono] == -1
    _swap_curve(monkeypatch, _with_q(curve, 5, curve.q(5) - ExactPoly({mono: 1})))
    assert poisson.bracket1_c(5, 2)._symmetric()
    assert not poisson.bracket1_c(5, 2)._symmetric(ledger=True)
    assert not poisson.bracket2_c(5, 2, 1)._symmetric(ledger=True)
    for suite in ("ladder", "involution", "casimir1", "casimir2"):
        packed, reference, keys = SUITES[suite]
        got, want = packed(5, 2), reference(5, 2)
        if suite in ("ladder", "casimir2"):
            assert want["failures"], suite
        _agree(got, want, keys)


def test_ledger_invariance_is_checked_once_per_universe(monkeypatch, fresh_tables):
    # both level-1 tables share one universe and its ledger store: the first
    # table's sigma q_d = q_d answer is kept there, so the second shifts no
    # ledger entry, and checks only its own G^2 premise
    t1, t2 = poisson.bracket1_c(5, 2), poisson.bracket2_c(5, 2, 1)
    assert t1.universe == t2.universe
    assert t1._symmetric(ledger=True) and t2._symmetric()
    shifted = []
    shift = BracketTable._shift
    monkeypatch.setattr(BracketTable, "_shift", lambda self, p: shifted.append(p) or shift(self, p))
    assert t2._symmetric(ledger=True)
    assert shifted == []


def test_expansion_perturbed_at_one_site_fails_closure_on_that_pair(monkeypatch):
    # c_2(2) + 1 at level 2 of (3,2) breaks the closed form on one pair only,
    # and that pair's first generator sits at site 1: only the check of
    # c(sigma x) = sigma c(x) sends closure past the site-0 pairs to it
    N, M, j = 3, 2, 2
    g = gen_c(j, 2, 2)
    expansion = dict(poisson.level_entries(N, M, j))
    expansion[g] = expansion[g] + ExactPoly.const(1)
    levels = dict(oracle.reduction_levels(N, M))
    levels[j] = {**levels[j], (g[2], g[3]): expansion[g]}
    monkeypatch.setattr(poisson, "level_entries", lambda N, M, j: expansion)
    monkeypatch.setattr(oracle, "reduction_levels", lambda N, M: levels)
    got = poisson.closure_verify(N, M, j)
    assert got["failures"] == [{"pair": [list(gen_c(j, 1, 1)), list(gen_c(j, 1, 2))]}]
    _agree(got, oracle.closure(N, M, j), ("cases", "failures"))


def _broken_chain(curve, premise: str):
    """``curve`` with one premise of the chain proof broken and involution kept.

    bottom: q_b + q_e, b a chain bottom and e a bracket-2 but not a bracket-1
    Casimir; top: q_t + q_e the other way round (the ladder holds in both);
    ladder: 2 q_hi for the first ladder pair (the Casimirs hold)."""
    c1, c2 = curve.casimir1_degrees(), curve.casimir2_degrees()
    if premise == "ladder":
        d = poisson.ladder_pairs(curve)[0][0]
        return _with_q(curve, d, curve.q(d) * 2)
    ends, others = (c1, c2) if premise == "bottom" else (c2, c1)
    d, e = ends[0], next(e for e in others if e not in ends)
    return _with_q(curve, d, curve.q(d) + curve.q(e))


@pytest.mark.parametrize("premise", ["bottom", "top", "ladder"])
def test_broken_chain_takes_the_product_route(monkeypatch, fresh_tables, premise):
    _swap_curve(monkeypatch, _broken_chain(band_curve(3, 2), premise))
    routes = []
    products = poisson._involution_products
    monkeypatch.setattr(
        poisson, "_involution_products", lambda *args: routes.append(args) or products(*args)
    )
    got, want = poisson.verify_involution(3, 2), oracle.involution(3, 2)
    assert len(routes) == 1
    _agree(got, want, ("cases", "failures"))
    broken = {"bottom": poisson.verify_casimir1, "top": poisson.verify_casimir2}
    assert not broken.get(premise, poisson.verify_ladder)(3, 2)["ok"]
    assert poisson.verify_ladder(3, 2)["ok"] == (premise != "ladder")


@pytest.mark.parametrize("N,M", TORI + [(5, 3), (4, 5)])
def test_chain_route_agrees_with_the_product_route(N, M):
    curve = band_curve(N, M)
    t1, t2 = poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)
    assert poisson._chains_close(curve, t1, t2)
    assert poisson._involution_products(curve, t1, t2) == poisson.verify_involution(N, M)["failures"]


# ------------------------------------------- packings and the field contract


def test_mixing_tables_numbered_differently_is_refused(monkeypatch):
    # ladder and compatibility compare or add packed data of bracket1_c and
    # bracket2_c, which is valid only if both number c_generators alike;
    # involution brackets inside each table's own packing, so it must give
    # the same report either way
    true = poisson.bracket2_c(3, 2, 1)
    want = poisson.verify_involution(3, 2)
    reordered = BracketTable(true.kind, 3, 2, true.universe[::-1], true.entry)
    monkeypatch.setattr(poisson, "bracket2_c", lambda N, M, j: reordered)
    for suite in (poisson.verify_ladder, poisson.verify_compatibility):
        with pytest.raises(AssertionError, match="number their generators differently"):
            suite(3, 2)
    assert poisson.verify_involution(3, 2) == want


def test_both_tables_number_the_level_1_generators_alike():
    for N, M in TORI:
        gens = tuple(c_generators(N, M, 1))
        assert poisson.bracket1_c(N, M).universe == gens
        assert poisson.bracket2_c(N, M, 1).universe == gens


@pytest.mark.parametrize(
    "bad,error",
    [
        (lambda g: ExactPoly.var(g, 2**29), OverflowError),
        (lambda g: ExactPoly.var(("A", 0, 0)), ValueError),
    ],
    ids=["exponent-outside-field", "generator-outside-universe"],
)
@pytest.mark.parametrize(
    "suite",
    [poisson.verify_jacobi, poisson.verify_compatibility, poisson.verify_ladder],
    ids=["jacobi", "compatibility", "ladder"],
)
def test_cached_entry_path_keeps_the_field_contract(monkeypatch, bad, error, suite):
    true = poisson.bracket1_c(3, 2)
    g1, g2 = true.universe[0], true.universe[1]
    mutant = _mutant(true, g1, g2, lambda p: p + bad(g1))
    monkeypatch.setattr(poisson, "bracket1_c", lambda N, M: mutant)
    with pytest.raises(error):
        suite(3, 2)


# ------------------------------------------------------------ field counts


def _count_fields(monkeypatch) -> list[str]:
    """Record the table kind of every ``BracketTable._field_into`` call."""
    calls = []
    field_into = BracketTable._field_into

    def counting(self, acc, dg, a):
        calls.append(self.kind)
        field_into(self, acc, dg, a)

    monkeypatch.setattr(BracketTable, "_field_into", counting)
    return calls


def _fresh_level1_tables(N, M) -> tuple[BracketTable, BracketTable]:
    """New bracket1_c and bracket2_c tables, with empty ledger stores."""
    _clear_level1_caches()
    return poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1)


@pytest.mark.parametrize("N,M", TORI)
def test_closure_takes_each_field_once_per_level(monkeypatch, N, M):
    # {x, c_b} once per (b, x): at most |c-generators| * |A,B universe| fields
    calls = _count_fields(monkeypatch)
    universe = len(poisson.bracket2_AB(N, M).universe)
    for j in range(1, M + 1):
        calls.clear()
        poisson.closure_verify(N, M, j)
        assert 0 < len(calls) <= len(c_generators(N, M, j)) * universe, j


@pytest.mark.parametrize("N,M", TORI)
def test_casimir_after_involution_computes_no_field(monkeypatch, N, M):
    _fresh_level1_tables(N, M)
    poisson.verify_involution(N, M)
    calls = _count_fields(monkeypatch)
    poisson.verify_casimir1(N, M)
    poisson.verify_casimir2(N, M)
    assert calls == []


def _reversed_level1_tables(monkeypatch, N, M) -> tuple[BracketTable, BracketTable]:
    """Both level-1 tables with their universe reversed: numbered alike, but
    not laid out block-major and site-minor, so no suite uses sigma."""
    tables = [
        BracketTable(t.kind, N, M, t.universe[::-1], t._entry_fn)
        for t in (poisson.bracket1_c(N, M), poisson.bracket2_c(N, M, 1))
    ]
    assert not any(t._symmetric() for t in tables)
    monkeypatch.setattr(poisson, "bracket1_c", lambda N, M: tables[0])
    monkeypatch.setattr(poisson, "bracket2_c", lambda N, M, j: tables[1])
    return tables[0], tables[1]


def _level1_tables(monkeypatch, N, M, laid_out: bool) -> tuple[BracketTable, BracketTable, range]:
    """Fresh level-1 tables, and the generators the ledger suites read: the
    site-0 ones when sigma is a symmetry, all of them when a premise fails."""
    if laid_out:
        t1, t2 = _fresh_level1_tables(N, M)
        assert t1._symmetric(ledger=True) and t2._symmetric(ledger=True)
        return t1, t2, range(0, len(t1.universe), N)
    t1, t2 = _reversed_level1_tables(monkeypatch, N, M)
    return t1, t2, range(len(t1.universe))


def _ledger_suites_compute_each_field_once(monkeypatch, N, M, laid_out: bool) -> None:
    t1, t2, firsts = _level1_tables(monkeypatch, N, M, laid_out)
    calls = _count_fields(monkeypatch)
    for suite in (
        poisson.verify_ladder,
        poisson.verify_involution,
        poisson.verify_casimir1,
        poisson.verify_casimir2,
    ):
        assert suite(N, M)["ok"]
    degrees = band_curve(N, M).degrees()
    fields = {(d, a) for d in degrees for a in firsts}
    assert set(t1._ledger_fields) == set(t2._ledger_fields) == fields
    assert len(calls) == 2 * len(fields)


@pytest.mark.parametrize("N,M", TORI)
def test_ledger_suites_compute_each_field_once(monkeypatch, N, M):
    # every degree's field at every site-0 generator, once
    _ledger_suites_compute_each_field_once(monkeypatch, N, M, laid_out=True)


@pytest.mark.parametrize("N,M", TORI)
def test_ledger_suites_without_sigma_compute_every_field_once(monkeypatch, N, M):
    _ledger_suites_compute_each_field_once(monkeypatch, N, M, laid_out=False)


def _casimir_alone_stops_at_the_first_witness(monkeypatch, N, M, laid_out: bool) -> None:
    # a Casimir degree takes the field at every first generator; any other
    # degree takes them in order up to the first nonzero one, its witness
    t1, t2, firsts = _level1_tables(monkeypatch, N, M, laid_out)
    calls = _count_fields(monkeypatch)
    poisson.verify_casimir1(N, M)
    poisson.verify_casimir2(N, M)
    curve = band_curve(N, M)
    for table, casimirs in ((t1, curve.casimir1_degrees()), (t2, curve.casimir2_degrees())):
        for d in curve.degrees():
            taken = [table._ledger_fields[(d, a)] for a in firsts if (d, a) in table._ledger_fields]
            if d in casimirs:
                assert len(taken) == len(firsts), d
            else:
                assert not any(taken[:-1]) and taken[-1], d
                assert all((d, a) in table._ledger_fields for a in firsts[: len(taken)]), d
        assert all(a in firsts for _, a in table._ledger_fields)
    assert len(calls) == len(t1._ledger_fields) + len(t2._ledger_fields)


@pytest.mark.parametrize("N,M", TORI)
def test_casimir_alone_stops_at_the_first_witness(monkeypatch, N, M):
    _casimir_alone_stops_at_the_first_witness(monkeypatch, N, M, laid_out=True)


@pytest.mark.parametrize("N,M", TORI)
def test_casimir_alone_without_sigma_stops_at_the_first_witness(monkeypatch, N, M):
    _casimir_alone_stops_at_the_first_witness(monkeypatch, N, M, laid_out=False)

"""The packed identity suites against the per-case ``ExactPoly`` route.

``poisson_oracle`` runs every suite case by case through ``bracket_extend``
and ``ExactPoly`` sums.  The packed suites must report the same cases and the
same failures, on the true tables and on tables with one planted error.
"""

import pytest

import poisson_oracle as oracle
from dkp import poisson
from dkp.curve import band_curve
from dkp.poisson import BracketTable, c_generators
from dkp.symalg import ExactPoly

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
    poisson.bracket1_c.cache_clear()
    poisson.bracket2_c.cache_clear()
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


@pytest.mark.parametrize("N,M", TORI)
def test_ledger_suites_compute_each_field_once(monkeypatch, N, M):
    t1, t2 = _fresh_level1_tables(N, M)
    calls = _count_fields(monkeypatch)
    for suite in (
        poisson.verify_ladder,
        poisson.verify_involution,
        poisson.verify_casimir1,
        poisson.verify_casimir2,
    ):
        suite(N, M)
    fields = len(t1.universe) * len(band_curve(N, M).degrees())
    assert len(t1._ledger_fields) == len(t2._ledger_fields) == fields
    assert len(calls) == 2 * fields


@pytest.mark.parametrize("N,M", TORI)
def test_casimir_alone_stops_at_the_first_witness(monkeypatch, N, M):
    # a Casimir degree takes every field; any other degree takes fields in
    # generator order up to the first nonzero one, its witness
    t1, t2 = _fresh_level1_tables(N, M)
    calls = _count_fields(monkeypatch)
    poisson.verify_casimir1(N, M)
    poisson.verify_casimir2(N, M)
    curve = band_curve(N, M)
    gens = len(t1.universe)
    for table, casimirs in ((t1, curve.casimir1_degrees()), (t2, curve.casimir2_degrees())):
        for d in curve.degrees():
            taken = [table._ledger_fields[(d, a)] for a in range(gens) if (d, a) in table._ledger_fields]
            if d in casimirs:
                assert len(taken) == gens, d
            else:
                assert not any(taken[:-1]) and taken[-1], d
                assert all((d, a) in table._ledger_fields for a in range(len(taken))), d
    assert len(calls) == len(t1._ledger_fields) + len(t2._ledger_fields)

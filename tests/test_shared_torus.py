"""One torus validator, per-torus objects built once, no unused imports, and no code the program does not run."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from dkp import curve, lattice, poisson
from dkp.cli import RunConfig, build_parser, main
from dkp.curve import band_curve, compute_curve
from dkp.flows import KPStateNumeric
from dkp.lattice import reduction_levels
from dkp.pipes import enumerate_tpds
from dkp.poisson import bracket2_AB
from dkp.torus import build_kappa

SRC = Path(__file__).resolve().parents[1] / "src" / "dkp"

ENTRY_POINTS = {
    "torus.build_kappa": build_kappa,
    "lattice.reduction_levels": reduction_levels,
    "curve.compute_curve": compute_curve,
    "curve.band_curve": band_curve,
    "poisson.bracket2_AB": bracket2_AB,
    "flows.KPStateNumeric.random": lambda N, M: KPStateNumeric.random(N, M, seed=0),
    "pipes.enumerate_tpds": lambda N, M: enumerate_tpds(N, M, 1),
    "cli.RunConfig": lambda N, M: RunConfig(command="check", N=N, M=M),
}

@pytest.mark.parametrize("N,M,message", [(4, 2, "coprime"), (0, 3, "positive")])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_module_rejects_a_bad_torus_alike(entry, N, M, message):
    with pytest.raises(ValueError, match=f"torus dimensions must be {message}, got"):
        ENTRY_POINTS[entry](N, M)


def test_check_builds_each_bracket_table_once(monkeypatch, capsys):
    for builder in (poisson.bracket2_AB, poisson.bracket2_c, poisson.bracket1_c):
        builder.cache_clear()
    built = []
    init = poisson.BracketTable.__init__

    def counting_init(self, kind, N, M, universe, entry_fn):
        built.append(kind)
        init(self, kind, N, M, universe, entry_fn)

    monkeypatch.setattr(poisson.BracketTable, "__init__", counting_init)
    N, M = 3, 4
    assert main(["check", "--N", str(N), "--M", str(M), "--suite", "all"]) == 0
    capsys.readouterr()
    # bracket2_AB, bracket1_c, and bracket2_c at each level 1..M
    assert len(built) == M + 2
    assert sorted(built) == sorted(["bracket2_AB", "bracket1_c"] + ["bracket2_c"] * M)


def test_check_builds_the_band_curve_once_and_no_ab_curve(monkeypatch, capsys):
    band_curve.cache_clear()
    modes = []
    compute = curve.compute_curve

    def recording(N, M, mode="AB"):
        modes.append(mode.lower())
        return compute(N, M, mode)

    monkeypatch.setattr(curve, "compute_curve", recording)
    assert main(["check", "--N", "3", "--M", "4", "--suite", "all"]) == 0
    capsys.readouterr()
    assert modes == ["band"]


def test_check_reduces_each_level_once(monkeypatch, capsys):
    lattice.reduction_levels.cache_clear()
    lattice.level_entries.cache_clear()
    steps = []
    reduce_step = lattice.reduce_step

    def counting(N, M, j, upper):
        steps.append(j)
        return reduce_step(N, M, j, upper)

    monkeypatch.setattr(lattice, "reduce_step", counting)
    N, M = 3, 4
    assert main(["check", "--N", str(N), "--M", str(M), "--suite", "all"]) == 0
    capsys.readouterr()
    # the closure suite reads every level; the reduction runs each step once
    assert sorted(steps) == list(range(1, M))


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def test_one_torus_validator():
    defs = [
        name
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_require_torus"
    ]
    assert defs == ["torus"]


def test_only_the_torus_validator_computes_a_gcd():
    callers = [
        name
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "gcd"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "math"
    ]
    assert callers == ["torus"]


def test_only_symalg_calls_memoryview():
    # one packed-field codec: poisson and pipes read their signed fields through symalg
    callers = [
        name
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "memoryview"
    ]
    assert callers == ["symalg"]


def test_numpy_is_imported_only_by_flow_rhs():
    # dkp needs no numpy; flow_rhs hands the benchmark's gate and the tests an array
    importers = []
    for name, tree in _modules().items():
        # innermost enclosing function: ast.walk reaches outer functions first
        scope = {n: f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.append(f"{name}.{scope.get(node, '<module>')}")
    assert importers == ["flows.flow_rhs"]


@pytest.mark.parametrize("command", ["curve", "check", "flow", "pipes"])
def test_parser_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args([command, "--N", "3", "--M", "2"])
    assert RunConfig(**vars(args)) == RunConfig(command=command, N=3, M=2)


def _unused_imports(tree: ast.Module) -> set[str]:
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {ast.literal_eval(e) for e in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - exported


def test_no_unused_top_level_imports():
    unused = {
        name: sorted(_unused_imports(tree))
        for name, tree in _modules().items()
    }
    assert {name: names for name, names in unused.items() if names} == {}


def _references(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in `tree`."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _roots(modules: dict[str, ast.Module]) -> set[str]:
    """What the program runs: all of cli.py, the names ``dkp`` exports, and
    the names the benchmark tools import from ``dkp``."""
    roots = _references(modules["cli"]) | {node.name for node in _definitions(modules["cli"])}
    for node in modules["__init__"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            roots |= set(ast.literal_eval(node.value))
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dkp":
                roots |= {alias.name for alias in node.names}
    return roots


def _is_method(node: ast.AST) -> bool:
    """A non-dunder function in a class body."""
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _units(modules: dict[str, ast.Module]) -> dict[str, list[ast.AST]]:
    """Name -> the code that naming it runs: each top-level definition, with
    each non-dunder method split off its class under the method's own name."""
    units: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                units.setdefault(node.name, []).extend(
                    n for n in node.body + node.bases + node.decorator_list if not _is_method(n)
                )
                for n in filter(_is_method, node.body):
                    units.setdefault(n.name, []).append(n)
            else:
                units.setdefault(node.name, []).append(node)
    return units


def _reached(units: dict[str, list[ast.AST]], seeds: set[str]) -> set[str]:
    """The seeds and every name a reached unit names, to a fixed point."""
    reached = set(seeds)
    frontier = list(reached)
    while frontier:
        for node in units.get(frontier.pop(), ()):
            new = _references(node) - reached
            reached |= new
            frontier.extend(new)
    return reached


def _benchmark_names() -> set[str]:
    """Every attribute and string constant in the benchmark tools; the trace
    wraps ``ExactPoly`` methods named in strings (``EXACTPOLY_METHODS``)."""
    names: set[str] = set()
    for path in sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_top_level_definition_is_reachable_from_a_root():
    # A definition is reached when a root or a reached definition names it;
    # one that only tests or only unreached code name belongs beside its tests.
    modules = _modules()
    reached = _reached(_units(modules), _roots(modules))
    unreachable = [
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in _definitions(tree)
        if node.name not in reached
    ]
    assert unreachable == []


def test_every_method_is_named_by_reached_code_or_the_benchmark():
    # The same walk, with the benchmark's attribute names and string
    # constants as further roots.  Matching is by name only, so a method
    # whose name other code also uses (``ExactPoly.degree`` against
    # ``cfg.degree``) stays out of sight of this guard.
    modules = _modules()
    reached = _reached(_units(modules), _roots(modules) | _benchmark_names())
    unreached = [
        f"{name}.{cls.name}.{node.name}"
        for name, tree in modules.items()
        for cls in _definitions(tree)
        if isinstance(cls, ast.ClassDef)
        for node in filter(_is_method, cls.body)
        if node.name not in reached
    ]
    assert unreached == []

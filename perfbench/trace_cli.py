"""Run one ``dkp`` command in this process with every layer wrapped in spans.

Usage: ``python3 perfbench/trace_cli.py SPAN_DIR dkp-args...``

The recorder lives here, in the benchmark, not in ``dkp``: it replaces every
binding of the public functions of each ``dkp`` module (in every ``dkp``
namespace that imported them, e.g. ``curve.det_minor_expansion`` and
``flows.bracket_extend``) and the arithmetic methods of ``ExactPoly``,
``BracketTable`` and ``CompiledPoly`` with a wrapper that records one span.
A span is (name, parent, start, end); spans stay in memory and are written
to SPAN_DIR when the command returns, together with the counters some spans
add (result sizes, case counts).  The process exits with the command's exit
status.  ``layers.py`` turns the files into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("torus", "symalg", "lattice", "curve", "poisson", "flows", "pipes", "cli")

# Private functions that carry a layer boundary the metrics need.
PRIVATE = {"cli": ("_emit", "_cmd_curve", "_cmd_check", "_cmd_flow", "_cmd_pipes")}

# Generator/monomial constructors called millions of times per command: a span
# each would cost more than the work it times, and no metric reads them.
SKIP = {"symalg": ("gen_A", "gen_B", "gen_c", "gen_degree", "poly_A", "poly_B")}

EXACTPOLY_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "partial", "substitute", "evaluate", "coefficient",
    "alpha_beta_decomposition",
)


class Recorder:
    """Flat, append-only span store; parent is the index of the enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span; count(result, args, kwargs) adds to counters."""
        nid = self.intern(name)
        clock = time.perf_counter
        stack, start, end = self.stack, self.start, self.end
        push_name, push_parent = self.name.append, self.parent.append
        push_start, push_end = start.append, end.append

        def span(*args, **kwargs):
            i = len(start)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(i)
            push_start(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(out, args, kwargs)
            return out

        functools.update_wrapper(span, fn)
        return span

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] += value

    def dump(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for field in ("name", "parent", "start", "end"):
            with open(out_dir / f"spans.{field}", "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {"names": self.names, "counters": dict(self.counters)}
        (out_dir / "spans.json").write_text(json.dumps(meta))


def _counter(rec: Recorder, name: str):
    """Counters keyed by span name: result sizes and case counts."""
    add = rec.add

    def mode_of(args, kwargs):
        return str(args[2] if len(args) > 2 else kwargs.get("mode", "AB")).lower()

    table = {
        "symalg.ExactPoly.__mul__": lambda out, a, k: add("symalg.mul_terms_out", len(out.terms)),
        "lattice.det_minor_expansion": lambda out, a, k: add("lattice.det_terms", len(out.terms)),
        "curve.compute_curve": lambda out, a, k: (
            add(f"curve.calls.{mode_of(a, k)}", 1),
            add("curve.ledger_terms", sum(len(e.poly.terms) for e in out.ledger.values())),
        ),
        "flows.integrate": lambda out, a, k: add("flows.steps", out.steps),
        "pipes.enumerate_tpds": lambda out, a, k: add("pipes.diagrams", len(out)),
        "pipes.verify_pairing_consistency": lambda out, a, k: add("pipes.pairs", out["pairs"]),
        "pipes.sum_zero_check": lambda out, a, k: add("pipes.sum_zero_pairs", out["pairs"]),
        "cli._cmd_check": lambda out, a, k: add("poisson.cases", out[0]["cases"]),
    }
    return table.get(name)


def _wrap_method(rec: Recorder, cls, layer: str, attrs) -> None:
    done: dict[int, object] = {}
    for attr in attrs:
        fn = vars(cls)[attr]
        if id(fn) not in done:  # __radd__ is __add__, __rmul__ is __mul__
            name = f"{layer}.{cls.__name__}.{fn.__name__}"
            done[id(fn)] = rec.wrap(name, fn, _counter(rec, name))
        setattr(cls, attr, done[id(fn)])


def install(rec: Recorder) -> dict[str, object]:
    """Wrap every layer boundary; returns the loaded ``dkp`` modules by layer."""
    mods = {layer: importlib.import_module(f"dkp.{layer}") for layer in MODULES}
    mods_all = [importlib.import_module("dkp"), *mods.values()]
    wrappers: dict[int, object] = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            if attr in SKIP.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = rec.wrap(name, obj, _counter(rec, name))
    # Rebind every name that refers to a wrapped function, in every namespace
    # and in module-level dispatch tables such as cli._HANDLERS.
    for mod in mods_all:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]
            elif id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])

    symalg, poisson, flows = mods["symalg"], mods["poisson"], mods["flows"]
    _wrap_method(rec, symalg.ExactPoly, "symalg", EXACTPOLY_METHODS)
    _wrap_method(rec, poisson.BracketTable, "poisson", ("entry",))
    _wrap_method(rec, flows.CompiledPoly, "flows", ("__init__", "__call__"))

    # A table miss is a call of the function that computes a table entry.
    table_init = poisson.BracketTable.__init__

    def init(self, kind, N, M, universe, entry_fn):
        rec.add("poisson.tables_built", 1)
        table_init(self, kind, N, M, universe, rec.wrap("poisson.BracketTable.build_entry", entry_fn))

    poisson.BracketTable.__init__ = init

    # One RHS evaluation is one call of the closure _rhs_fn hands to integrate.
    rhs_fn = flows._rhs_fn
    flows._rhs_fn = lambda N, M, flow: rec.wrap("flows.rhs", rhs_fn(N, M, flow))
    return mods


def main(argv: list[str]) -> int:
    out_dir, cli_args = Path(argv[0]), argv[1:]
    rec = Recorder()
    mods = install(rec)
    try:
        rc = mods["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        rec.dump(out_dir)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

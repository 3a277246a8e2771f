"""Per-layer metrics from the span files ``trace_cli.py`` writes.

A layer is a ``dkp`` module; a span belongs to the layer named by the first
dotted part of its name.  A span's self time is its duration minus the time
its direct children cover, so the self times of all spans add up to the
duration of the root spans.  Named times ("symalg.mul_s", "lattice.det_s",
...) sum the durations of the outermost spans of the named functions, so a
function that reaches itself again is not counted twice.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LAYERS = ("cli", "symalg", "lattice", "curve", "poisson", "flows", "pipes", "torus")

SUITE_SPANS = {
    "jacobi": ("poisson.verify_jacobi",),
    "closure": ("poisson.closure_verify",),
    "ladder": ("poisson.verify_ladder",),
    "involution": ("poisson.verify_involution",),
    "compat": ("poisson.verify_compatibility",),
    "casimir": ("poisson.verify_casimir1", "poisson.verify_casimir2"),
    "qlink": ("poisson.qlink_report",),
}

# metric -> span names whose outermost durations it sums
TIMES = {
    "cli.emit_s": ("cli._emit",),
    "symalg.mul_s": ("symalg.ExactPoly.__mul__",),
    "lattice.det_s": ("lattice.det_minor_expansion",),
    "lattice.reduce_s": ("lattice.reduce_step",),
    "poisson.bracket_extend_s": ("poisson.bracket_extend",),
    "flows.compile_s": ("flows.CompiledPoly.__init__",),
    "flows.rhs_s": ("flows.rhs",),
    "pipes.enumerate_s": ("pipes.enumerate_tpds",),
    "pipes.bijection_s": ("pipes.monomial_tpd_bijection",),
    "pipes.pairing_s": ("pipes.verify_pairing_consistency",),
    "pipes.sum_zero_s": ("pipes.sum_zero_check",),
    **{f"poisson.suite_s.{suite}": spans for suite, spans in SUITE_SPANS.items()},
}

# metric -> span names whose call count it sums
CALLS = {
    "symalg.mul_calls": ("symalg.ExactPoly.__mul__",),
    "symalg.add_calls": ("symalg.ExactPoly.__add__",),
    "symalg.partial_calls": ("symalg.ExactPoly.partial",),
    "symalg.substitute_calls": ("symalg.ExactPoly.substitute",),
    "poisson.bracket_extend_calls": ("poisson.bracket_extend",),
    "poisson.table_misses": ("poisson.BracketTable.build_entry",),
    "flows.rhs_evals": ("flows.rhs",),
}

# counters trace_cli.py adds from results
COUNTERS = (
    "symalg.mul_terms_out",
    "lattice.det_terms",
    "curve.calls.ab",
    "curve.calls.band",
    "curve.ledger_terms",
    "poisson.cases",
    "poisson.tables_built",
    "flows.steps",
    "pipes.diagrams",
    "pipes.pairs",
    "pipes.sum_zero_pairs",
)

# (name, unit) of every metric a traced run reports, in print order
METRICS = (
    [("cli.report_bytes", "bytes")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(m, "s") for m in TIMES]
    + [(m, "count") for m in CALLS]
    + [(m, "count") for m in COUNTERS]
    + [
        ("poisson.table_hits", "count"),
        ("flows.drift_evals", "count"),
        ("flows.drift_s", "s"),
        ("torus.builds", "count"),
        ("torus.s", "s"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


# Coverage counts: a drop means less was checked, not less work done.
HIGHER = {
    "poisson.cases", "poisson.table_hits", "curve.ledger_terms", "lattice.det_terms",
    "flows.steps", "pipes.diagrams", "pipes.pairs", "pipes.sum_zero_pairs",
}


def _outermost(name: np.ndarray, parent: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Indices of spans named in ids that have no ancestor named in ids."""
    idx = np.flatnonzero(np.isin(name, ids))
    nested = np.zeros(idx.size, dtype=bool)
    anc = parent[idx]
    live = anc >= 0
    while live.any():
        nested[live] |= np.isin(name[anc[live]], ids)
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return idx[~nested]


def analyze(span_dir: Path) -> dict[str, float]:
    """Per-layer sums for one traced command (no trace.* wall metrics)."""
    meta = json.loads((span_dir / "spans.json").read_text())
    names = meta["names"]
    name = np.fromfile(span_dir / "spans.name", dtype=np.int32)
    parent = np.fromfile(span_dir / "spans.parent", dtype=np.int32)
    dur = np.fromfile(span_dir / "spans.end") - np.fromfile(span_dir / "spans.start")

    def ids(span_names) -> np.ndarray:
        return np.array([names.index(s) for s in span_names if s in names], dtype=np.int32)

    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_time = dur - child
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS))
    calls = np.bincount(name, minlength=len(names))

    out: dict[str, float] = {f"{layer}.self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)}
    for metric, spans in TIMES.items():
        out[metric] = float(dur[_outermost(name, parent, ids(spans))].sum())
    for metric, spans in CALLS.items():
        out[metric] = float(calls[ids(spans)].sum())
    for metric in COUNTERS:
        out[metric] = float(meta["counters"].get(metric, 0))
    out["poisson.table_hits"] = float(calls[ids(["poisson.BracketTable.entry"])].sum()) - out["poisson.table_misses"]

    # Ledger evaluations made by integrate itself, not inside an RHS call.
    under_integrate = np.isin(name, ids(["flows.CompiledPoly.__call__"])) & (parent >= 0)
    under_integrate[under_integrate] = np.isin(name[parent[under_integrate]], ids(["flows.integrate"]))
    out["flows.drift_evals"] = float(under_integrate.sum())
    out["flows.drift_s"] = float(dur[under_integrate].sum())

    torus_ids = np.array([i for i, n in enumerate(names) if n.startswith("torus.")], dtype=np.int32)
    builds = [i for i, n in enumerate(names) if n.startswith("torus.build_")]
    out["torus.builds"] = float(calls[builds].sum()) if builds else 0.0
    out["torus.s"] = float(dur[_outermost(name, parent, torus_ids)].sum())

    out["trace.spans"] = float(dur.size)
    out["trace.root_s"] = float(dur[parent < 0].sum())
    out["trace.min_self_s"] = float(self_time.min()) if self_time.size else 0.0
    return out

"""The benchmark tracer still runs against the current ``dkp``.

``perfbench/trace_cli.py`` wraps ``dkp`` functions and methods that it names
as strings, so renaming or deleting one of them breaks the tracer without
breaking any import.  These tests run it the way the benchmark does, in a
fresh interpreter, on one small torus per command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "trace_cli.py"


@pytest.mark.parametrize(
    "argv,span,counter",
    [
        (["check", "--N", "3", "--M", "1", "--suite", "all"], None, None),
        (["curve", "--N", "3", "--M", "1"], None, None),
        # flows.rhs is interned only when flows._rhs_fn runs
        (["flow", "--N", "3", "--M", "2", "--T", "0.01"], "flows.rhs", None),
        (["pipes", "--N", "3", "--M", "2", "--pairings", "--sum-zero"], None, "pipes.pairs"),
    ],
    ids=["check", "curve", "flow", "pipes"],
)
def test_traced_command_exits_0_and_writes_spans(tmp_path, argv, span, counter):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(tmp_path / "spans"), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]
    meta = json.loads((tmp_path / "spans" / "spans.json").read_text())
    assert {"cli._emit", f"cli._cmd_{argv[0]}"} <= set(meta["names"])
    if span:
        assert span in meta["names"]
    if counter:
        assert meta["counters"].get(counter, 0) > 0

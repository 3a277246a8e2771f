"""Correctness gate for every command the benchmark runs.

Exact commands (``check``, ``curve``, ``pipes``) pass when they exit 0 and
the SHA-256 of their report, with the top-level ``seed`` line removed,
equals the digest recorded in ``digests.json``.  The digest is over the
report bytes, so a change that keeps the content but not the bytes fails.

Flow commands pass when they exit 0, report ``within_tolerance``, and their
``state_final`` agrees to 1e-9 relative (max-norm) with an RK4 integration
of the same seeded state by the independent ``"first"`` right-hand side.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
FLOW_RTOL = 1e-9
# Top-level keys sit at two spaces of indent; nested keys at four or more.
_SEED_LINE = re.compile(rb'\n  "seed": [0-9]+(,?)\n')


def report_digest(report: bytes) -> str:
    return hashlib.sha256(_SEED_LINE.sub(b"\n", report, count=1)).hexdigest()


def command_key(args: list[str]) -> str:
    return " ".join(args)


def flow_params(args: list[str]) -> dict:
    """N, M, dt, T of a ``flow`` argument list (only the flags it uses)."""
    opts = dict(zip(args[1::2], args[2::2]))
    return {"N": int(opts["--N"]), "M": int(opts["--M"]), "dt": float(opts["--dt"]), "T": float(opts["--T"])}


def reference_flow(args: list[str], seed: int):
    """Final flat state of the seeded initial state under the "first" flow."""
    import numpy as np
    from dkp.flows import KPStateNumeric, flow_rhs

    p = flow_params(args)
    N, M, dt = p["N"], p["M"], p["dt"]
    flat = KPStateNumeric.random(N, M, seed).flat()

    def rhs(x):
        return flow_rhs("first", KPStateNumeric.from_flat(N, M, x))

    for _ in range(int(round(p["T"] / dt))):
        k1 = rhs(flat)
        k2 = rhs(flat + 0.5 * dt * k1)
        k3 = rhs(flat + 0.5 * dt * k2)
        k4 = rhs(flat + dt * k3)
        flat = flat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.asarray(flat)


class Gate:
    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.references: dict[tuple[str, int], object] = {}

    @classmethod
    def load(cls) -> "Gate":
        return cls(json.loads(DIGESTS.read_text()))

    def prepare(self, args: list[str], seed: int) -> None:
        """Compute what checking args needs, outside any timed window."""
        if args[0] == "flow":
            key = (command_key(args), seed)
            if key not in self.references:
                self.references[key] = reference_flow(args, seed)

    def check(self, args: list[str], seed: int, rc: int, report: bytes) -> str | None:
        """None when the command's output is correct, else the reason."""
        if rc != 0:
            return f"exit status {rc}"
        if args[0] != "flow":
            want = self.digests.get(command_key(args))
            if want is None:
                return "no recorded digest"
            got = report_digest(report)
            return None if got == want else f"report digest {got[:12]} != recorded {want[:12]}"
        import numpy as np

        try:
            body = json.loads(report)
            final = body["state_final"]
            got = np.concatenate([np.ravel(final["A"]), np.ravel(final["B"])]).astype(float)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable flow report: {exc}"
        if body.get("within_tolerance") is not True:
            return f"drift {body.get('max_drift')} beyond tolerance"
        want = self.references[(command_key(args), seed)]
        if got.shape != want.shape or not np.all(np.isfinite(got)):
            return "state_final has the wrong shape or is not finite"
        err = float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))
        return None if err <= FLOW_RTOL else f"state_final differs from the first-flow route by {err:.3e} relative"

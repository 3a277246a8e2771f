"""Command-line entry point: curve, check, flow, and pipes subcommands.

Every run emits a single JSON report (stdout, or ``--out PATH``) carrying the
envelope ``{command, version, N, M, seed}`` plus the command body, and a
one-line human summary on stderr.  The JSON is byte-identical for identical
configuration and seed: keys are sorted, the suite runners are deterministic,
and any randomized input (the flow command's default initial state) is drawn
from the seed alone.

Exit status: 0 when every check passed (or the command has nothing to check),
1 when a verification or tolerance failed or a flow blew up, 2 for
configuration errors — including the dedicated non-coprime torus error, an
unreadable state file, and an unwritable ``--out`` or a ``pipes --degree``
outside [0, NM] (both refused before any work) — and argparse's usage errors.

``RunConfig`` holds every option default: the parser leaves an option it was
not given out of the namespace, so the field default applies.

Each command imports only the layers it runs, inside its handler: ``check``
imports ``poisson`` (which brings in ``curve``), ``curve`` imports ``curve``
(and ``flows`` only with ``--numeric``), ``flow`` imports ``flows`` and
``pipes`` imports ``pipes``.  ``--version``, ``--help``, usage errors and
configuration errors load no algebra layer, and no command imports numpy.

``run`` is the process entry point (``dkp`` and ``python -m dkp.cli``): it
calls ``main``, flushes stdout and stderr, and ends the process with
``os._exit``, so the interpreter does not spend time freeing every cached
table after the report is written.  ``main`` returns the exit status and is
what in-process callers use.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from . import __version__
from .torus import _require_torus

# Suite name -> (poisson module, N, M) -> {check name: report}, in report
# order.  The entries look the suite functions up in the module at call time,
# so the module is imported only when a check runs.
_SUITES = {
    "jacobi": lambda p, N, M: {"jacobi": p.verify_jacobi(N, M)},
    "closure": lambda p, N, M: {
        f"closure-level-{j}": p.closure_verify(N, M, j) for j in range(1, M + 1)
    },
    "ladder": lambda p, N, M: {"ladder": p.verify_ladder(N, M)},
    "involution": lambda p, N, M: {"involution": p.verify_involution(N, M)},
    "compat": lambda p, N, M: {"compat": p.verify_compatibility(N, M)},
    "casimir": lambda p, N, M: {
        "casimir1": p.verify_casimir1(N, M),
        "casimir2": p.verify_casimir2(N, M),
    },
    "qlink": lambda p, N, M: {"qlink": p.qlink_report(N, M)},
}
SUITES = tuple(_SUITES)


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: torus, command, seed, and per-command knobs."""

    command: str
    N: int
    M: int
    seed: int = 0
    suite: str = "all"
    degree: int | None = None
    dt: float = 1e-3
    T: float = 1.0
    record_every: int | None = None
    state: str | None = None
    numeric: str | None = None
    out: str | None = None
    pairings: bool = False
    sum_zero: bool = False
    drift_tolerance: float = 1e-6

    def __post_init__(self):
        if self.command not in _HANDLERS:
            raise ValueError(f"unknown command {self.command!r}")
        _require_torus(self.N, self.M)
        if self.command == "pipes" and self.degree is not None and not 0 <= self.degree <= self.N * self.M:
            raise ValueError(f"degree must lie in [0, {self.N * self.M}], got {self.degree}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.suite != "all" and self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; pick from {sorted(SUITES + ('all',))}")
        finite = {"--dt": self.dt, "--T": self.T, "--drift-tolerance": self.drift_tolerance}
        for flag, value in finite.items():
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be a finite number, got {value}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError(f"--record-every must be a positive step count, got {self.record_every}")
        if self.drift_tolerance <= 0:
            raise ValueError(f"drift tolerance must be positive, got {self.drift_tolerance}")
        if self.out:
            _check_report_path(self.out)


def _check_report_path(path: str) -> None:
    """Refuse, before any work, a report path the final write would fail on:
    a directory, a path under a missing directory, or one not writable."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write report to {path}: {os.strerror(code)}")


# --------------------------------------------------------------------------
# report plumbing


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _emit(report: dict, out: str | None) -> None:
    # Strict JSON: NaN and Infinity are not JSON tokens, so they raise here.
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a failed write must surface here, not at exit


def _load_state(path: str, N: int, M: int):
    from .flows import KPStateNumeric

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"state file not found: {path}") from None
    except OSError as exc:  # a directory, no read permission, ...
        raise ValueError(f"cannot read state file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"state file {path} is not UTF-8 text: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"state file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not {"N", "M", "A", "B"} <= set(data):
        raise ValueError(
            f"state file {path} must be a JSON object with keys N, M, A, B"
        )
    # json gives exact int and float objects; type() also keeps out bool
    for key in ("N", "M"):
        if type(data[key]) is not int:
            raise ValueError(f"state file {path}: {key} must be an integer, got {data[key]!r}")
    if (data["N"], data["M"]) != (N, M):
        raise ValueError(
            f"state file {path} is for torus ({data['N']}, {data['M']}), not ({N}, {M})"
        )
    t = data.get("t", 0.0)
    # compares an int of any size without converting it; NaN compares false
    if type(t) not in (int, float) or not abs(t) <= sys.float_info.max:
        raise ValueError(f"state file {path}: t must be a finite number, got {t!r}")
    for key in ("A", "B"):
        # the layout state_final writes: M rows of N numbers
        shape = f"state file {path}: {key} must be {M} rows of {N} numbers"
        rows = data[key]
        if type(rows) is not list or len(rows) != M or any(type(row) is not list or len(row) != N for row in rows):
            raise ValueError(shape)
        for value in (v for row in rows for v in row):
            if type(value) is list:
                raise ValueError(shape)
            if type(value) not in (int, float):
                raise ValueError(f"state file {path}: {key} entries must be numbers, got {value!r}")
    try:
        return KPStateNumeric(N, M, data["A"], data["B"], float(t))
    except (ValueError, OverflowError) as exc:  # a non-finite entry, an int past float range
        raise ValueError(f"state file {path} is not a valid state: {exc}") from None


# --------------------------------------------------------------------------
# subcommands


def _cmd_curve(cfg: RunConfig) -> tuple[dict, bool, str]:
    from .curve import compute_curve

    curve = compute_curve(cfg.N, cfg.M)
    body = curve.to_jsonable()
    if cfg.numeric:
        from .flows import state_index

        state = _load_state(cfg.numeric, cfg.N, cfg.M)
        flat = state.flat()
        values = {g: float(flat[i]) for g, i in state_index(cfg.N, cfg.M).items()}
        body["values"] = _finite_or_null(
            {f"q_{d}": float(curve.q(d).evaluate(values)) for d in curve.degrees()}
        )
    summary = (
        f"curve ({cfg.N},{cfg.M}): {len(curve.degrees())} conserved quantities,"
        f" degrees {curve.degrees()}"
    )
    return body, True, summary


def _normalize_check(name: str, report: dict) -> dict:
    if name == "qlink":
        cases, failures = report["slot_checks"], report["slot_failures"]
    else:
        cases, failures = report["cases"], report["failures"]
    return {"name": name, "cases": cases, "failures": list(failures), "ok": bool(report["ok"])}


def _cmd_check(cfg: RunConfig) -> tuple[dict, bool, str]:
    from . import poisson

    wanted = SUITES if cfg.suite == "all" else (cfg.suite,)
    checks = [
        _normalize_check(name, report)
        for suite in wanted
        for name, report in _SUITES[suite](poisson, cfg.N, cfg.M).items()
    ]
    failures = [
        {"check": c["name"], "detail": f} for c in checks for f in c["failures"]
    ]
    cases = sum(c["cases"] for c in checks)
    ok = not failures and all(c["ok"] for c in checks)
    body = {
        "suite": cfg.suite,
        "checks": [
            {"name": c["name"], "cases": c["cases"], "failures": len(c["failures"]), "ok": c["ok"]}
            for c in checks
        ],
        "cases": cases,
        "failures": failures,
        "ok": ok,
    }
    summary = f"check {cfg.suite} on ({cfg.N},{cfg.M}): {cases} cases, {len(failures)} failures"
    return body, ok, summary


def _cmd_flow(cfg: RunConfig) -> tuple[dict, bool, str]:
    from .flows import KPStateNumeric, integrate

    if cfg.state:
        state = _load_state(cfg.state, cfg.N, cfg.M)
    else:
        state = KPStateNumeric.random(cfg.N, cfg.M, cfg.seed)
    degree = 1 if cfg.degree is None else cfg.degree
    result = integrate(state, degree, cfg.dt, cfg.T, cfg.record_every)
    ok = result.blowup is None and result.max_drift <= cfg.drift_tolerance
    body = {
        "degree": degree,
        "dt": cfg.dt,
        "T": cfg.T,
        "steps": result.steps,
        "drift": {f"q_{d}": v for d, v in sorted(result.drift.items())},
        "max_drift": result.max_drift,
        "drift_tolerance": cfg.drift_tolerance,
        "within_tolerance": ok,
        "state_initial": state.to_jsonable(),
        "state_final": result.state.to_jsonable(),
    }
    if cfg.record_every:
        body["trajectory"] = result.trajectory
    summary = (
        f"flow ({cfg.N},{cfg.M}) degree {degree}: {result.steps} steps,"
        f" max relative drift {result.max_drift:.3e}"
    )
    if result.blowup is not None:
        body["blowup"] = result.blowup
        summary += f"; state became non-finite at step {result.blowup['step']}"
    return _finite_or_null(body), ok, summary


def _cmd_pipes(cfg: RunConfig) -> tuple[dict, bool, str]:
    from .pipes import (
        enumerate_tpds,
        monomial_tpd_bijection,
        sum_zero_check,
        verify_pairing_consistency,
    )

    N, M = cfg.N, cfg.M
    bijection = monomial_tpd_bijection(N, M)
    body: dict = {
        "bijection": {
            "per_degree": {str(d): dict(v) for d, v in sorted(bijection["per_degree"].items())},
            "total_monomials": bijection["total_monomials"],
            "total_diagrams": bijection["total_diagrams"],
            "ok": bijection["ok"],
        },
    }
    ok = bool(bijection["ok"])
    parts = [f"bijection {'ok' if ok else 'FAILED'} ({bijection['total_diagrams']} diagrams)"]
    if cfg.degree is not None:
        diagrams = enumerate_tpds(N, M, cfg.degree)
        body["degree"] = cfg.degree
        body["diagrams"] = [d.to_jsonable() for d in diagrams]
        parts.append(f"{len(diagrams)} diagrams of degree {cfg.degree}")
    if cfg.pairings:
        pairing_report = verify_pairing_consistency(N, M)
        body["pairings"] = {
            "diagrams": pairing_report["diagrams"],
            "pairs": pairing_report["pairs"],
            "failures": pairing_report["failures"],
            "ok": pairing_report["ok"],
        }
        ok = ok and bool(pairing_report["ok"])
        parts.append(
            f"pairing formulas agree on {pairing_report['pairs']} pairs"
            if pairing_report["ok"]
            else f"pairing formulas DISAGREE on {len(pairing_report['failures'])} pairs"
        )
    if cfg.sum_zero:
        reports = []
        zero_ok = True
        for d1 in range(N * M + 1):
            for d2 in range(d1, N * M + 1):
                r = sum_zero_check(N, M, d1, d2)
                reports.append(
                    {
                        "degrees": list(r["degrees"]),
                        "pairs": r["pairs"],
                        "groups": r["groups"],
                        "nonzero_pairings": r["nonzero_pairings"],
                        "nonzero_groups": r["nonzero_groups"],
                        "ok": r["ok"],
                    }
                )
                zero_ok = zero_ok and bool(r["ok"])
        body["sum_zero"] = {"pairs": reports, "ok": zero_ok}
        ok = ok and zero_ok
        parts.append("all product groups sum to zero" if zero_ok else "sum-zero FAILED")
    summary = f"pipes ({N},{M}): " + "; ".join(parts)
    return body, ok, summary


_HANDLERS = {
    "curve": _cmd_curve,
    "check": _cmd_check,
    "flow": _cmd_flow,
    "pipes": _cmd_pipes,
}


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkp",
        description=(
            "Exact verification toolkit for the discrete KP hierarchy on an"
            " N-by-M torus: spectral curve and conserved-quantity ledger,"
            " Poisson-bracket identity suites, numeric flows, and pipe-diagram"
            " combinatorics."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dkp {__version__}")
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(_HANDLERS) + "}"
    )

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--N", type=int, required=True, help="sites per row of the torus")
        p.add_argument("--M", type=int, required=True, help="rows of the torus; gcd(N, M) must be 1")
        p.add_argument("--seed", type=int, help=f"64-bit seed for any randomized input (default {RunConfig.seed})")
        p.add_argument("--out", metavar="PATH", help="write the JSON report to PATH instead of stdout")
        return p

    p = command("curve", "spectral curve coefficients and conserved-quantity ledger")
    p.add_argument("--numeric", metavar="PATH", help="JSON state file; adds numeric values of every ledger quantity")

    p = command("check", "run exact verification suites")
    p.add_argument("--suite", choices=SUITES + ("all",), help=f"which suite to run (default {RunConfig.suite})")

    p = command("flow", "integrate a hierarchy flow and report conserved-quantity drift")
    p.add_argument("--degree", type=int, help="ledger degree generating the flow (default 1)")
    p.add_argument("--dt", type=float, help=f"RK4 step size (default {RunConfig.dt})")
    p.add_argument("--T", type=float, help=f"integration horizon (default {RunConfig.T})")
    p.add_argument("--record-every", type=int, metavar="K", help="include the trajectory, sampled every K steps")
    p.add_argument("--state", metavar="PATH", help="JSON initial state {N, M, t, A, B}; default is seeded uniform [0.5, 1.5]")
    p.add_argument("--drift-tolerance", type=float, help=f"max relative drift for exit status 0 (default {RunConfig.drift_tolerance})")

    p = command("pipes", "pipe-diagram enumeration, monomial bijection, pairing checks")
    p.add_argument("--degree", type=int, help="also list every diagram of this degree as a site-to-piece map")
    p.add_argument("--pairings", action="store_true", help="cross-check the knee-count and bracket-kernel pairing formulas on all pairs")
    p.add_argument("--sum-zero", action="store_true", help="verify every product group sums to zero, all degree pairs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        body, ok, summary = _HANDLERS[cfg.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": cfg.command,
        "version": __version__,
        "N": cfg.N,
        "M": cfg.M,
        "seed": cfg.seed,
        **body,
    }
    try:
        _emit(report, cfg.out)
    except OSError as exc:
        print(f"error: cannot write report to {cfg.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(summary, file=sys.stderr)
    return 0 if ok else 1


def run() -> NoReturn:
    """Run ``main`` on ``sys.argv`` and end the process with its exit status.

    argparse's ``SystemExit`` (``--version``, ``--help``, usage errors) ends
    the process the same way.  Once stdout and stderr are flushed nothing is
    left to write, so the process ends with ``os._exit`` and skips the
    interpreter's teardown.
    """
    try:
        status = main()
    except SystemExit as exc:  # argparse exits with an int status
        status = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # a failed report write was already reported by main
            status = status or 2
    os._exit(status)


if __name__ == "__main__":
    run()

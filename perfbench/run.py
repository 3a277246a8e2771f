"""Benchmark of the ``dkp`` command line, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests perfbench/digests.json

Closed loop, one client: each command of a workload runs in a fresh
``python -m dkp.cli`` process, one at a time, with its own empty working
directory and ``TMPDIR`` under ``.perfbench_tmp/`` and without
``DKP_THREADS``.  The workload seed is passed as ``--seed`` to every
command; only the flow initial states depend on it.  Every report goes
through the correctness gate (``gate.py``); a failing command counts in
``failed`` and is never re-seeded or skipped.

``--trace 0`` (end to end): an untimed warm-up, then passes over the
workload's commands until about ``--seconds`` of passes are done (at least
one), and ``dkp --version`` timed several times around them as set-up.
Reports the median pass wall and child CPU time, the peak child RSS, and the
median set-up time.

``--trace 1`` (per layer): one untimed pass, then one pass with every
command run under ``trace_cli.py``, which wraps each ``dkp`` layer in spans.
Reports per-layer self times, named-function times and counts
(``layers.py``), and the tracing overhead.

The last line of stdout is the result object; the line before it records
the machine, load averages, passes and every command run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0  # every run must end within 180 s
VERSION = ["--version"]


def _flow(N, M, T):
    return ["flow", "--N", str(N), "--M", str(M), "--degree", "1", "--dt", "1e-3", "--T", str(T)]


WORKLOADS = {
    "verify": [["check", "--N", "5", "--M", "2", "--suite", "all"], ["check", "--N", "3", "--M", "4", "--suite", "all"]],
    "spectral": [["curve", "--N", "5", "--M", "3"], ["curve", "--N", "7", "--M", "2"], ["curve", "--N", "3", "--M", "4"]],
    "flow": [_flow(4, 3, 1), _flow(5, 3, 0.5)],
    "pipes": [["pipes", "--N", "5", "--M", "3", "--pairings", "--sum-zero"], ["pipes", "--N", "7", "--M", "2", "--pairings", "--sum-zero"]],
}
SELF_CHECK = [
    ["check", "--N", "3", "--M", "2", "--suite", "all"],
    ["curve", "--N", "3", "--M", "2"],
    _flow(3, 2, 0.2),
    ["pipes", "--N", "3", "--M", "2", "--pairings", "--sum-zero"],
]
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Command:
    args: list[str]
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    report: bytes
    stderr: str
    layers: dict | None = None
    error: str | None = None

    def summary(self) -> dict:
        return {
            "args": " ".join(self.args),
            "traced": self.traced,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "rc": self.rc,
            "stderr": self.stderr,
            "error": self.error,
        }


def run_command(args: list[str], seed: int | None, deadline: float, traced: bool = False) -> Command:
    """Run one dkp command in a fresh process and directory; time it from outside."""
    import layers

    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cmd-", dir=TMP))
    env = {k: v for k, v in os.environ.items() if k != "DKP_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work)
    argv = args if seed is None else [*args, "--seed", str(seed)]
    prog = [sys.executable, str(HERE / "trace_cli.py"), str(work / "spans")] if traced else [sys.executable, "-m", "dkp.cli"]
    proc = timer = None
    try:
        with open(work / "report.json", "wb") as out, open(work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(prog + argv, cwd=work, env=env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        report = (work / "report.json").read_bytes()
        stderr = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
        spans = layers.analyze(work / "spans") if traced and (work / "spans" / "spans.json").exists() else None
        cpu = usage.ru_utime + usage.ru_stime
        return Command(args, traced, wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, report, stderr[-1] if stderr else "", spans)
    finally:
        if timer is not None:
            timer.cancel()
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "dkp").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure(commands: list[list[str]], seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, details)."""
    import layers
    from gate import Gate

    deadline = time.monotonic() + RUN_LIMIT_S
    gate = Gate.load()
    for args in commands:
        gate.prepare(args, seed)
    done: list[Command] = []

    def go(args: list[str], traced: bool = False) -> Command:
        if args is VERSION:
            cmd = run_command(args, None, deadline)
            cmd.error = None if cmd.rc == 0 and cmd.report.startswith(b"dkp ") else f"--version failed ({cmd.rc})"
        else:
            cmd = run_command(args, seed, deadline, traced)
            cmd.error = gate.check(args, seed, cmd.rc, cmd.report)
        done.append(cmd)
        return cmd

    load_before = os.getloadavg()
    go(VERSION)  # warm-up: compiles bytecode, fills the file cache
    details: dict = {}
    if not trace:
        setup = [go(VERSION).wall_s for _ in range(SETUP_SAMPLES // 2)]
        passes: list[list[Command]] = []
        while True:
            passes.append([go(args) for args in commands])
            walls = [sum(c.wall_s for c in p) for p in passes]
            typical = statistics.median(walls)
            if len(passes) >= max(1, round(seconds / typical)) or time.monotonic() + typical > deadline - 10:
                break
        setup += [go(VERSION).wall_s for _ in range(SETUP_SAMPLES // 2)]
        cpus = [sum(c.cpu_s for c in p) for p in passes]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(c.rss_mb for p in passes for c in p),
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)
        details.update(passes=len(passes), pass_wall_s=walls, pass_cpu_s=cpus, setup_samples_s=setup)
    else:
        untraced = [go(args) for args in commands]
        traced = [go(args, traced=True) for args in commands]
        values = dict.fromkeys((m for m, _ in layers.METRICS), 0.0)
        root_s = 0.0
        for cmd in traced:
            if cmd.layers is None:
                cmd.error = cmd.error or "traced run wrote no spans"
                continue
            root_s += cmd.layers.pop("trace.root_s")
            if cmd.layers.pop("trace.min_self_s") < -1e-6:
                raise RuntimeError(f"negative self time in the spans of {' '.join(cmd.args)}")
            for key, value in cmd.layers.items():
                values[key] += value
        values["cli.report_bytes"] = float(sum(len(c.report) for c in traced))
        values["trace.wall_s"] = sum(c.wall_s for c in traced)
        values["trace.untraced_wall_s"] = sum(c.wall_s for c in untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["trace.unattributed_s"] = values["trace.wall_s"] - root_s
        if values["trace.unattributed_s"] < 0:
            raise RuntimeError("spans cover more time than the traced processes ran")
        units = dict(layers.METRICS)
    failed = sum(1 for c in done if c.error)
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    details.update(
        seed=seed,
        trace=int(trace),
        machine=machine(),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        fail_ratio=failed / len(done),
        commands=[c.summary() for c in done],
    )
    return result, details


def self_check() -> int:
    """Harness check on the (3,2) torus: metric names and units, and the gate."""
    from gate import Gate

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = measure(SELF_CHECK, seed=7, seconds=1, trace=trace)
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{key}: metrics {sorted(set(got) ^ set(want))} or units differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"{key}: {result['failed']} of {result['attempted']} commands failed at this commit")
    gate = Gate.load()
    deadline = time.monotonic() + RUN_LIMIT_S
    for args in SELF_CHECK:
        gate.prepare(args, 7)
        cmd = run_command(args, 7, deadline)
        good = cmd.report
        if args[0] == "flow":
            body = json.loads(good)
            body["state_final"]["A"][0][0] *= 1 + 1e-6
            bad = json.dumps(body).encode()
        else:  # bump the last digit of the report
            i = max(good.rfind(d) for d in b"0123456789")
            bad = good[:i] + str((good[i] - 48 + 1) % 10).encode() + good[i + 1 :]
        if gate.check(args, 7, 0, good) is not None:
            problems.append(f"gate rejects the real report of {' '.join(args)}")
        if bad == good or gate.check(args, 7, 0, bad) is None:
            problems.append(f"gate accepts a corrupted report of {' '.join(args)}")
        if gate.check(args, 7, 1, good) is None:
            problems.append(f"gate accepts exit status 1 for {' '.join(args)}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: ok" if not problems else f"self-check: {len(problems)} problems", file=sys.stderr)
    return 1 if problems else 0


def record_digests(path: Path) -> int:
    from gate import command_key, report_digest

    digests = {}
    deadline = time.monotonic() + 3600
    for args in [a for cmds in (*WORKLOADS.values(), SELF_CHECK) for a in cmds if a[0] != "flow"]:
        cmd = run_command(args, 0, deadline)
        if cmd.rc != 0:
            print(f"{' '.join(args)} exited {cmd.rc}", file=sys.stderr)
            return 1
        digests[command_key(args)] = report_digest(cmd.report)
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    if not (SRC / "dkp" / "cli.py").is_file():
        print(f"error: no dkp sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not (args.self_check or args.record_digests or args.workload):
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    sys.path.insert(0, str(SRC))
    try:
        if args.self_check:
            return self_check()
        if args.record_digests:
            return record_digests(args.record_digests)
        result, details = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload:>9} {name:<28} {m['value']:>16.6f} {m['unit']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Golden reports: the exact bytes ``check --suite all``, ``curve``,
``pipes --pairings --sum-zero``, ``flow`` and ``curve --numeric`` produce.

Each digest is the SHA-256 of the report with its top-level ``seed`` line
removed (the rule of ``perfbench/gate.py``).  ``check`` on (4, 3), (5, 3),
(4, 5), (5, 4) and (7, 3) is not a benchmark run, and neither is ``pipes`` on
(5, 2) or (5, 4); ``pipes`` on (5, 3) and (7, 2) are the benchmark's
``pipes`` runs, pinned here too so a byte change there fails tier-1 before it
reaches the benchmark gate.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dkp.cli import main

_SEED_LINE = re.compile(rb'\n  "seed": [0-9]+(,?)\n')
SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN = {
    (3, 2): "bbcadfa2d79a2c8e317465e18f1e2668f607e0a88711b0292deb9c00c60b8a56",
    (5, 2): "7acdfef3aa0976541712fd0a78346bd4dbc67cfbf553f9f1dfc4b97d9f951088",
    (3, 4): "1fc69e028a8b8df71d8c50ec9356ad99565e98b353846891177917d193d77878",
    (4, 3): "2862f18f3f454dcd677db07f39aa6e507e0ba6328c7f3f6890c8ef85955bffa5",
    # recorded from the suites that check every generator, pair and triple
    (5, 3): "ada1dd98a2e8347e7cf13924ac141b654b5b1b6cd2e375fc538514990ba109cb",
    (4, 5): "7162ac31ff1a190380805233e3b0b7ae0abb8a7f3eea35d75034aac9c8c51ac2",
    (5, 4): "303bfd09903d0d6313bd783e610652152262ccf42a3d3dff448d860f2abe1f25",
    (7, 3): "9851044d079facf31958c6a2af6add926e0b84fc9ecf3ecaedbae8d3ca2e70f1",
}

# Recorded from the per-pair loop form of the pairing and sum-zero checks;
# (3, 2), (5, 3) and (7, 2) are the digests in perfbench/digests.json.
GOLDEN_PIPES = {
    (3, 2): "8d79e4f51d7428caeebaf6a9fee627654270d32d0ef33b24f57edc164917db07",
    (5, 2): "60197c035eea644d835f6ea3da8284c05f5716a903faf92c8a84ad7352152747",
    (4, 3): "5d2997f3b531fc8710f6131eb64207171b9d8a5158f0af65df99a74a11e71b16",
    (5, 3): "5b8f25f41cd47d079364dad61b3fa83d30131dcf0b1d5918c5e9f09ca0fa2576",
    (7, 2): "83c254ca5f765bf68a4316066c24baa7c6ca6590021d34f295e37a96c95858de",
    # recorded from the whole-torus pairing table, at the size where it held 5.3 MB
    (5, 4): "96323d65c3444d35485834412b08cff2637a788a617caea5e5f299196a521646",
}

# The spectral report bytes, as in perfbench/digests.json.
GOLDEN_CURVE = {
    (3, 2): "0ef3793843be38ca1c145bd342eb5676825953c5fba944b79d1f4054ed8babf2",
    (3, 4): "fbb3621e8608afb61d200d44d0fc545a21f6bc91180d7658894e7a6af958c0b2",
}


# Recorded from the numpy evaluators, before the flows ran on Python floats:
# the two flow commands of the benchmark at seed 61, a degree-2 run with a
# trajectory, a degree-3 run that blows up (exit status 1), a (7, 3) run
# whose ledger sums run past one statement, and the ledger values at a fixed
# state.
GOLDEN_FLOW = {
    "flow --N 4 --M 3 --degree 1 --dt 1e-3 --T 1 --seed 61": (
        0, "d485ddad4ab44b04b6af3d3a7167845a9bf6f06f053c36a10c5c84ce15cf1f6b"
    ),
    "flow --N 5 --M 3 --degree 1 --dt 1e-3 --T 0.5 --seed 61": (
        0, "14432b5d4d7819a16ccc9ee8d7c6b06642dc308b50d99315407e2e442cf2d47b"
    ),
    "flow --N 3 --M 2 --degree 2 --dt 1e-2 --T 0.5 --record-every 7 --seed 3": (
        0, "435ef3511391f716c3178d757bd2f1e80e0b428aa6a0413bf0484990f0b6a3a0"
    ),
    "flow --N 5 --M 2 --degree 3 --dt 1e-1 --T 20 --seed 3": (
        1, "6c3d30f20cfd50d9519f153a8d9d4a348bd1879be6682cc90fd67a2df760c077"
    ),
    "flow --N 7 --M 3 --T 0.05 --seed 5": (
        0, "90c092b7544cbf6bbb222d45ed741b68276b9d92e7a688e2741ddbe6f0911017"
    ),
    "curve --N 3 --M 2 --numeric STATE": (
        0, "c475b3826af49d398a28258465d2b2f3022f561bba426d30f66b2e6042d87cd6"
    ),
}

NUMERIC_STATE = {
    "N": 3,
    "M": 2,
    "t": 0.0,
    "A": [[0.75, 1.25, 0.5], [1.5, 1.0, 0.875]],
    "B": [[1.125, 0.625, 1.375], [0.5, 1.0625, 0.9375]],
}


def _digest(capsys, argv, status=0):
    code = main(argv)
    report = capsys.readouterr().out.encode()
    assert code == status
    return _sha(report)


def _sha(report: bytes) -> str:
    return hashlib.sha256(_SEED_LINE.sub(b"\n", report, count=1)).hexdigest()


@pytest.mark.parametrize("N,M", sorted(GOLDEN))
def test_check_all_report_bytes(capsys, N, M):
    argv = ["check", "--N", str(N), "--M", str(M), "--suite", "all"]
    assert _digest(capsys, argv) == GOLDEN[(N, M)]


@pytest.mark.parametrize("N,M", sorted(GOLDEN_PIPES))
def test_pipes_pairings_sum_zero_report_bytes(capsys, N, M):
    argv = ["pipes", "--N", str(N), "--M", str(M), "--pairings", "--sum-zero"]
    assert _digest(capsys, argv) == GOLDEN_PIPES[(N, M)]


@pytest.mark.parametrize("N,M", sorted(GOLDEN_CURVE))
def test_curve_report_bytes(capsys, N, M):
    argv = ["curve", "--N", str(N), "--M", str(M)]
    assert _digest(capsys, argv) == GOLDEN_CURVE[(N, M)]


@pytest.mark.parametrize("command", sorted(GOLDEN_FLOW))
def test_flow_and_numeric_curve_report_bytes(capsys, tmp_path, command):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(NUMERIC_STATE))
    status, digest = GOLDEN_FLOW[command]
    argv = command.replace("STATE", str(state)).split()
    assert _digest(capsys, argv, status) == digest


def test_reports_and_first_flow_without_numpy(tmp_path):
    # numpy made unimportable: every command and the first-flow route run,
    # and the reports keep their bytes
    flow = "flow --N 4 --M 3 --degree 1 --dt 1e-3 --T 1 --seed 61"
    runs = {
        "check --N 3 --M 2 --suite all": GOLDEN[(3, 2)],
        "curve --N 3 --M 2": GOLDEN_CURVE[(3, 2)],
        "pipes --N 3 --M 2 --pairings --sum-zero": GOLDEN_PIPES[(3, 2)],
        flow: GOLDEN_FLOW[flow][1],
    }
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from dkp.cli import main\n"
        "from dkp.flows import KPStateNumeric, integrate\n"
        f"for i, command in enumerate({list(runs)!r}):\n"
        "    assert main(command.split() + ['--out', f'{i}.json']) == 0, command\n"
        "print(integrate(KPStateNumeric.random(3, 2, 1), 'first', 1e-3, 0.01).steps)\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "10"
    for i, digest in enumerate(runs.values()):
        assert _sha((tmp_path / f"{i}.json").read_bytes()) == digest

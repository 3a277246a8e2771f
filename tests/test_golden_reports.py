"""Golden reports: the exact bytes ``check --suite all``, ``curve`` and
``pipes --pairings --sum-zero`` produce.

Each digest is the SHA-256 of the report with its top-level ``seed`` line
removed (the rule of ``perfbench/gate.py``).  (4, 3) is a torus the
benchmark does not run, and neither is ``pipes`` on (5, 2).
"""

import hashlib
import re

import pytest

from dkp.cli import main

_SEED_LINE = re.compile(rb'\n  "seed": [0-9]+(,?)\n')

GOLDEN = {
    (3, 2): "bbcadfa2d79a2c8e317465e18f1e2668f607e0a88711b0292deb9c00c60b8a56",
    (5, 2): "7acdfef3aa0976541712fd0a78346bd4dbc67cfbf553f9f1dfc4b97d9f951088",
    (3, 4): "1fc69e028a8b8df71d8c50ec9356ad99565e98b353846891177917d193d77878",
    (4, 3): "2862f18f3f454dcd677db07f39aa6e507e0ba6328c7f3f6890c8ef85955bffa5",
}

# Recorded from the per-pair loop form of the pairing and sum-zero checks;
# (3, 2) is also the digest in perfbench/digests.json.
GOLDEN_PIPES = {
    (3, 2): "8d79e4f51d7428caeebaf6a9fee627654270d32d0ef33b24f57edc164917db07",
    (5, 2): "60197c035eea644d835f6ea3da8284c05f5716a903faf92c8a84ad7352152747",
    (4, 3): "5d2997f3b531fc8710f6131eb64207171b9d8a5158f0af65df99a74a11e71b16",
}

# The spectral report bytes, as in perfbench/digests.json.
GOLDEN_CURVE = {
    (3, 2): "0ef3793843be38ca1c145bd342eb5676825953c5fba944b79d1f4054ed8babf2",
    (3, 4): "fbb3621e8608afb61d200d44d0fc545a21f6bc91180d7658894e7a6af958c0b2",
}


def _digest(capsys, argv):
    code = main(argv)
    report = capsys.readouterr().out.encode()
    assert code == 0
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

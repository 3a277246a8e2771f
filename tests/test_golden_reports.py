"""Golden ``check --suite all`` reports: the exact bytes the suites produce.

Each digest is the SHA-256 of the report with its top-level ``seed`` line
removed (the rule of ``perfbench/gate.py``).  (4, 3) is a torus the
benchmark does not run.
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


@pytest.mark.parametrize("N,M", sorted(GOLDEN))
def test_check_all_report_bytes(capsys, N, M):
    code = main(["check", "--N", str(N), "--M", str(M), "--suite", "all"])
    report = capsys.readouterr().out.encode()
    assert code == 0
    digest = hashlib.sha256(_SEED_LINE.sub(b"\n", report, count=1)).hexdigest()
    assert digest == GOLDEN[(N, M)]

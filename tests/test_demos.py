"""Every script in demos/ runs to completion in a fresh interpreter, and the
demos whose output the docs quote print exactly what they printed when pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of a demo's stdout; a rewrite of the demo must print the same bytes
STDOUT_SHA256 = {
    "01_membership_functions.py": "018a5ef0bc3c65ee179dc0d9a08a34936324a5284a90f983f7d1093d79824d37",
    "02_graded_conjugation.py": "5122c8aefa029b0c5b7baec0b488616a284ad4cc64416e211204ff67f5cdc9dc",
    "03_law_campaign.py": "b07b27fedb7e6e1e9a0f9af572674dcaae0e77f9326d5456343234917930c386",
}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
    if script.name in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[script.name]


def test_pinned_demos_exist():
    assert set(STDOUT_SHA256) <= {p.name for p in DEMOS}

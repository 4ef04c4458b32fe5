"""The demos run end to end from a source checkout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# sha256 of the tour's stdout: every dimension, family, certificate and note
# it prints
_TOUR_SHA256 = "17912a549917389abd70a57bc5de2e72e0abd5af8b8971994278e5454a059915"

# sha256 of the CLI session's stdout: every command's printed bytes, the
# verify round trip and the rejection of the tampered document
_SESSION_SHA256 = "f537cb757604bca8eee1cb578571857d8a75f7abd95f72493569a052ad26a5ba"


def test_classification_tour_runs():
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "demos" / "classification_tour.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "substitution check: " in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == _TOUR_SHA256


def test_cli_session_runs(tmp_path):
    # the session calls ``wbext``; a shim on PATH runs this checkout's CLI
    shim = tmp_path / "wbext"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m wbext.cli "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PYTHONPATH": str(_ROOT / "src"),
        "PATH": f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}",
    }
    proc = subprocess.run(
        ["sh", str(_ROOT / "demos" / "cli_session.sh")],
        env=env,
        cwd=_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tampered document rejected, as expected" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == _SESSION_SHA256

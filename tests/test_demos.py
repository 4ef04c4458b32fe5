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

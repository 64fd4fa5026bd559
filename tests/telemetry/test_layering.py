"""Import layering of the telemetry package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_tracing_does_not_import_alerts():
    # A fresh interpreter: this process has long since imported both.
    code = (
        "import sys, repro.telemetry.tracing; "
        "print('repro.telemetry.alerts' in sys.modules)"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "False"

"""The benchmark's own smoke test, run as a tier-1 test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    # runs every workload on its tiny corpus, traced and untraced, and checks
    # that the span recorder leaves no wrapped function behind
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

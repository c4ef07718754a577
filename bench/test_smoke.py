"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, with every output check. Takes about ten seconds::

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for workload in ("homog_baseline", "hetero_surcharge", "systemic_amplified"):
        assert f"[{workload}] sweep ms/rep raw:" in proc.stdout
        assert f"[{workload}] trace.overhead_pct =" in proc.stdout

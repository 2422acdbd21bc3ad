"""Every script in ``examples/`` runs to completion at a tiny trace scale.

The examples use the public API the way a reader copies it (a policy
subclass, config sweeps, multi-tenant runs); an API change that breaks
one must fail here, not in the hands of the next reader.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: Per script, the arguments that select a tiny trace scale.
ARGS = {
    "custom_policy.py": ["0.02"],
    "design_space_sweep.py": ["0.02"],
    "heterogeneous_qos.py": ["0.02"],
    "multi_tenant_contention.py": ["W8", "0.02"],
    "paper_walkthrough.py": [],
    "quickstart.py": ["0.02"],
    "reuse_distance_analysis.py": ["0.02"],
}


def test_every_example_is_listed():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("script", sorted(ARGS))
def test_example_runs(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *ARGS[script]],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]

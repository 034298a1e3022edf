"""Every script under demos/ runs to completion against the sources in src/
and prints exactly the text committed in tests/golden/demos/<name>.txt.

The demos print exact numbers only, so their output is deterministic.  An
intended change to a demo's output is made by regenerating its golden file
and saying why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(demo)], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    golden = GOLDEN_DIR / f"{demo.stem}.txt"
    assert completed.stdout == golden.read_text(encoding="utf-8")

"""The README's library examples run as written, and every exported name
exists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import dtr_adhere

ROOT = Path(__file__).resolve().parents[1]


def python_blocks() -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_python_blocks_run_in_order(tmp_path):
    # later blocks use the names earlier ones define, so they run as one script
    blocks = python_blocks()
    assert len(blocks) >= 2
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_every_exported_name_resolves():
    assert [name for name in dtr_adhere.__all__ if not hasattr(dtr_adhere, name)] == []

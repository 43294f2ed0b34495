import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    # the psi- probability of a Werner state against a Bell state, the
    # conserved concurrence (3 * 0.9 - 1) / 2 and the two routes' distance
    assert abs(float(lines[0]) - 0.25) < 1e-12
    assert abs(float(lines[1]) - 0.85) < 1e-12
    assert float(lines[2]) < 1e-12

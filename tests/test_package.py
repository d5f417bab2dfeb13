"""Package-level properties: the README's library example runs, and
importing the package leaves scipy unloaded."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    word, value = out.getvalue().splitlines()
    assert word.startswith("FreeElement(")
    # <0| X Z |0> with identity evolution
    assert complex(value) == 0


def test_import_does_not_load_scipy():
    code = ("import sys, causal_kernel; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "[]"

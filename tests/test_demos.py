"""Every demo script runs to completion against the package source, and
the README's quick start prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_shows_the_real_reprs():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("## Library quick start")
    block = re.search(r"```python\n(.*?)```", readme[start:], re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, shown = line.partition("  # ")
        if shown:  # an expression and the repr it shows
            assert repr(eval(code, namespace)) == shown.strip(), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 2

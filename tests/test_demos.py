"""Every demo runs to its end as a user starts it, from the checkout with
``PYTHONPATH=src``, and leaves no file in the checkout or in its temporary
directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def _checkout_paths() -> set:
    paths = set()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d != ".git"]
        paths.update(os.path.join(top, name) for name in dirs + files)
    return paths


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_leaves_no_file(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "TMPDIR": str(tmp_path)}  # a demo's own temporary files go to the test's directory
    before = _checkout_paths()
    done = subprocess.run([sys.executable, os.path.join("demos", demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert _checkout_paths() - before == set()
    assert os.listdir(tmp_path) == []

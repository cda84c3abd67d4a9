"""The benchmark's tracer finds every cherloc name it wraps.

perfbench/tracer.py looks each traced function up by name and rewraps the
Relation.from_json classmethod; a rename in cherloc would otherwise break
only the benchmark's traced pass.  The tracer is installed in a fresh
interpreter, so the wrapping never reaches this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
from tracer import Tracer
from cherloc.poset import Relation
Tracer().install()
assert Relation.from_json({"labels": [1], "matrix": [[1]]}) == Relation((1,), [[True]])
"""


def test_tracer_installs_over_every_traced_name():
    paths = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=paths)
    done = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

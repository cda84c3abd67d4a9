"""The benchmark's tracer finds every cherloc name it wraps.

perfbench/tracer.py looks each traced function up by name and rewraps the
Relation.from_json classmethod; a rename in cherloc would otherwise break
only the benchmark's traced pass.  A traced `order` run must count its one
artifact dump, its one relation_p call and the scalars it builds.  The tracer
is installed in a fresh interpreter, so the wrapping never reaches this test
session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import cherloc.cli
from tracer import Tracer
from cherloc.poset import Relation
tracer = Tracer()
tracer.install()
assert Relation.from_json({"labels": [1], "matrix": [[1]]}) == Relation((1,), [[True]])
assert cherloc.cli.main(["order", "--ell", "1", "--n", "2", "--kappa", "1/2"]) == 0
# cli.run looks canonical_dumps up when it writes, so the wrapper sees the dump.
assert tracer.counters["cli.canonical_dumps.calls"] == 1, tracer.counters
assert tracer.counters["mporder.relation_p.calls"] == 1, tracer.counters
# ParamScalar.__init__ calls the wrapped __post_init__ hook for every scalar.
assert tracer.counters["scalars.param_scalars"] > 0, tracer.counters
"""


def test_tracer_installs_over_every_traced_name():
    paths = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=paths)
    done = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

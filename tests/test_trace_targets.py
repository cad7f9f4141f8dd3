"""The package still has every name that perfbench/tracing.py wraps.

tracing.install wraps functions of nicebasis by name from outside the
package (linalg.char_poly, linalg.minimal_polynomial,
almost_abelian._analysis and the rest of its layer table).  A layer whose
names are all gone is reported absent and its per-layer metrics read
nothing, so a rename inside src/ would blind the benchmark without failing
it.  The check runs in a fresh interpreter, loading the package as the
benchmark worker does, because install rebinds module attributes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import nicebasis
import nicebasis.cli
from tracing import Tracer, install

tracer = Tracer()
install(tracer)
nicebasis.count_nice(nicebasis.indecomposable_family(3).a)
# a repeated eigenvalue: the minimal polynomial decides semisimplicity
nicebasis.count_nice(nicebasis.linalg.Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
print(json.dumps({{"absent": tracer.absent, "calls": tracer.calls}}))
"""


def test_every_traced_layer_is_present():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["absent"] == []
    # the polynomial layers are reached through the almost abelian analysis
    for layer in ("linalg.char_poly", "linalg.minimal_polynomial", "almost_abelian.analysis"):
        assert report["calls"].get(layer, 0) > 0, layer

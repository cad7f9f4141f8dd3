"""Smoke test of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_mode_emits_every_listed_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "aa-family",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_layers_are_reported_absent():
    import types

    sys.path.insert(0, HERE)
    from tracing import SPAN_LAYERS, COUNT_LAYERS, Tracer, install

    pkg, linalg = types.ModuleType("fakepkg"), types.ModuleType("fakepkg.linalg")
    linalg.rref = lambda rows: rows
    pkg.rref = linalg.rref  # re-exported, as the package does
    sys.modules.update({"fakepkg": pkg, "fakepkg.linalg": linalg})
    try:
        tracer = Tracer()
        install(tracer, package="fakepkg")
        assert linalg.rref([1]) == [1] and pkg.rref([2]) == [2]
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.linalg"]
    assert tracer.calls == {"linalg.echelon": 2}
    assert set(tracer.absent) == (set(SPAN_LAYERS) | set(COUNT_LAYERS)) - {"linalg.echelon"}

"""The benchmark harness's contract with the package.

perfbench/tracing.py looks up every name it wraps when it is imported, and
perfbench/workloads.py describes each input through the step's operator, so
a renamed or removed name would fail every benchmark run; these tests fail
first.  They read perfbench/ and change nothing there.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_inputs_are_described(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")   # resolves every TRACED name
    workloads = importlib.import_module("workloads")
    with tracing.Tracer() as tracer:
        records = workloads.describe_inputs(
            workloads.make_inputs("off-registry", 0))
    tracing.check_untraced()
    assert [(r["mask"], r["n"]) for r in records] == [("disc", 3205),
                                                      ("square", 225)]
    assert all(r["nnz"] > r["n"] for r in records)
    names = {span[0] for span in tracer.spans}
    assert {"grid.build_grid", "grid.MaskedOperator"} <= names

"""The benchmark's per-layer spans still see the library calls a command makes.

perfbench/tracing.py wraps each public function on its defining module; a
handler that held a library function anywhere else would bypass the wrapper,
and that layer's metrics would read 0 without any error.  The tracer is
loaded from its file, read-only, and everything it replaces is restored.
"""

import importlib
import importlib.util
import json
import os

import pytest

import efbound
from efbound import build_hard_pair, trivial_ef

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py"))
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.fixture
def tracer():
    modules = [efbound] + [importlib.import_module(f"efbound.{m}") for m in tracing.MODULES]
    saved = [(m, dict(vars(m))) for m in modules]
    t = tracing.Tracer()
    t.main = t.install("efbound")
    try:
        yield t
    finally:
        for m, names in saved:
            vars(m).update(names)


def spans_under_main(spans):
    """The names of the spans that nest inside a cli.main span."""
    names = set()
    for name, _, _, parent in spans:
        while parent is not None and spans[parent][0] != "cli.main":
            parent = spans[parent][3]
        if parent is not None:
            names.add(name)
    return names


def test_library_spans_recorded_under_main(tracer, tmp_path):
    hp = build_hard_pair(2)
    for name, obj in [("p.json", hp.P), ("q.json", hp.Q), ("k.json", trivial_ef(hp.Q))]:
        (tmp_path / name).write_text(json.dumps(obj.to_json()))
    tracer.on = True
    assert tracer.main(["verify-sandwich", "--p", str(tmp_path / "p.json"),
                        "--q", str(tmp_path / "q.json"), "--rho", "1",
                        "--ef", str(tmp_path / "k.json"),
                        "--out", str(tmp_path / "rep.json")]) == 0
    assert tracer.main(["corruption-scan", "--n", "3", "--eps", "1/2",
                        "--out", str(tmp_path / "scan.json")]) == 0
    tracer.on = False
    assert [s[0] for s in tracer.spans if s[3] is None] == ["cli.main", "cli.main"]
    assert {"polyhedra.verify_sandwich", "ratlin.lp_solve",
            "udisj.rectangle_corruption_scan"} <= spans_under_main(tracer.spans)
    assert tracer.counters["udisj.rectangle_corruption_scan.rectangles"] > 0

"""The benchmark's traced runs (``perfbench/run.py --trace 1``) wrap every
nutorbits function that ``cli`` and ``constructions`` import from another
module and file each span under a per-layer metric.  A new import there
whose module the tracer's table does not know breaks those runs, so this
checks every wrapped name against the table.  Nothing under perfbench/ is
changed; its tracer is only imported."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_maps_to_a_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    names = sorted(tracer.entry_points().values())
    assert "cli.main" in names and "automorphisms.automorphism_group" in names
    for name in names:
        assert tracer.bucket(name) + "_s" in tracer.LAYER_METRICS, name

"""The benchmark's traced runs (``perfbench/run.py --trace 1``) wrap every
nutorbits function that ``cli`` and ``constructions`` import from another
module and file each span under a per-layer metric.  A new import there
whose module the tracer's table does not know breaks those runs, so this
checks every wrapped name against the table.  Nothing under perfbench/ is
changed; its tracer is only imported."""

import importlib
import pathlib

from nutorbits import cli, linalg

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_maps_to_a_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    names = sorted(tracer.entry_points().values())
    assert "cli.main" in names and "automorphisms.automorphism_group" in names
    for name in names:
        assert tracer.bucket(name) + "_s" in tracer.LAYER_METRICS, name


def test_a_traced_construct_fills_every_layer_metric(monkeypatch, capsys):
    # The tracer also wraps PermutationGroup.from_generators and reads a
    # group's ``elements``; a traced run through cli.main reaches both.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    traced = tracer.Tracer()
    traced.install()
    try:
        code = cli.main(["construct", "--r", "3", "--k", "5"])
    finally:
        traced.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = traced.layer_metrics()
    assert set(tracer.LAYER_METRICS) <= set(metrics)
    assert metrics["automorphisms.search_s"] > 0
    assert metrics["automorphisms.generators"] >= 1
    assert metrics["constructions.certify_calls"] >= 1
    assert cli.is_nut is linalg.is_nut

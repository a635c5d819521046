"""The benchmark's traced runs (``perfbench/run.py --trace 1``) wrap every
nutorbits function that ``cli`` and ``constructions`` import from another
module and file each span under a per-layer metric.  A new import there
whose module the tracer's table does not know breaks those runs, so this
checks every wrapped name against the table, and which workloads reach the
whole-graph orbit pass.  Nothing under perfbench/ is changed; its modules
are only imported."""

import importlib
import pathlib

from nutorbits import automorphisms, cli, constructions, linalg

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


def test_orbits_of_runs_on_every_census_check_and_only_on_construct_ladder_bases(
        monkeypatch, capsys):
    # a construction reads its orbits from its group: a Cayley build runs no
    # orbits_of, a subdivision runs it on its base alone; a checked graph6
    # input, Cayley or not, takes the whole-graph union-find
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    ran, censused = [], []
    whole, census = automorphisms.orbits_of, constructions.orbit_census

    def spy(g, gens):
        ran.append(g.n)
        return whole(g, gens)

    def census_spy(g, *args):
        censused.append(g)
        return census(g, *args)

    monkeypatch.setattr(automorphisms, "orbits_of", spy)
    monkeypatch.setattr(constructions, "orbit_census", census_spy)
    subdivisions = 0
    for case in inputs.construct_cases(1, 0):
        ran.clear()
        censused.clear()
        assert cli.main(list(case.argv)) == 0
        bases = [g.n - len(g.chains[0]) * g.chains[1]
                 for g in censused if g.chains is not None]
        assert ran == bases, case.name
        subdivisions += len(bases)
    assert subdivisions > 0
    for case in inputs.census_cases(1, 0):
        ran.clear()
        assert cli.main(list(case.argv)) == 0
        assert ran == [case.n], case.name
    capsys.readouterr()

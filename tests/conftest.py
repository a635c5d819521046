import pytest

from oracles import complete_graph

from nutorbits import CirculantSpec, Graph, circulant, constructions


@pytest.fixture
def circ_10_12() -> Graph:
    return circulant(CirculantSpec(10, {1, 2}))


@pytest.fixture
def c4() -> Graph:
    return circulant(CirculantSpec(4, {1}))


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def swapped_chain_lift(monkeypatch):
    """Make every seed a subdivision lifts from its base swap the first two
    vertices of the first chain after the lift, which breaks the chain's
    edges."""
    lifts = constructions.subdivision_lifts

    def broken(g, targets, s, perms):
        swap = {g.n: g.n + 1, g.n + 1: g.n}
        return [tuple(swap.get(x, x) for x in p) for p in lifts(g, targets, s, perms)]

    monkeypatch.setattr(constructions, "subdivision_lifts", broken)

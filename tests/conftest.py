import pytest

from oracles import complete_graph

from nutorbits import CirculantSpec, Graph, circulant


@pytest.fixture
def circ_10_12() -> Graph:
    return circulant(CirculantSpec(10, {1, 2}))


@pytest.fixture
def c4() -> Graph:
    return circulant(CirculantSpec(4, {1}))


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)

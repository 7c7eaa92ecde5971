"""Shared fixtures: named test graphs and the exhaustive small-graph sweep."""
import pytest

from symdef.graphs import Graph

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    """Collect an acceptance-criterion result for the terminal summary."""
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


def _atlas_connected(max_vertices: int) -> list[Graph]:
    import networkx as nx

    out = []
    for H in nx.graph_atlas_g():
        n = H.number_of_nodes()
        if n < 1 or n > max_vertices:
            continue
        if not nx.is_connected(H):
            continue
        out.append(Graph.from_edges(n, H.edges()))
    return out


@pytest.fixture(scope="session")
def connected_atlas() -> list[Graph]:
    """Every connected graph on at most 6 vertices, up to isomorphism."""
    return _atlas_connected(6)


@pytest.fixture(scope="session")
def diamond() -> Graph:
    # 4-cycle with one chord
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])


@pytest.fixture(scope="session")
def two_triangles() -> Graph:
    # two triangles glued at vertex 3 (1-based): {x1,x2,x3} and {x3,x4,x5}
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


@pytest.fixture(scope="session")
def tripod_triangle() -> Graph:
    # triangle x1 x2 x3 with a pendant vertex hanging off each corner
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


@pytest.fixture(scope="session")
def triangle_plus_isolated() -> Graph:
    # triangle x1 x2 x3 and an isolated x4: the one extra generator of
    # J^(2) is x1x2x3, not the product of all four variables
    return Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])

"""Simple undirected graphs, structural predicates, and named families.

Vertices are indexed 0..n-1 internally and printed 1-based as x1..xn to
match the variable names of the monomial side.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable

# Every graph is refused above this many vertices.  Each generator of an
# ideal on the graph is an n-wide row, and the largest graph the tests
# build has 41 vertices: the C41 whose J^(2) exhausts memory on purpose.
MAX_VERTICES = 100


class GraphTooLargeError(ValueError):
    """A graph has more than MAX_VERTICES vertices."""


def _json_int(value) -> int:
    """A JSON integer as is; a bool, float, string or null is refused."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n = {self.n}: a graph needs n >= 0 vertices")
        if self.n > MAX_VERTICES:
            raise GraphTooLargeError(
                f"{self.n} vertices: graphs are limited to {MAX_VERTICES}"
            )
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        # __post_init__ checks n before it draws an edge and normalizes them
        return cls(n, edges)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph on the given vertices, reindexed in ascending order."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = {
            (index[i], index[j]) for i, j in self.edges if i in index and j in index
        }
        return Graph.from_edges(len(keep), edges)

    def is_bipartite(self) -> bool:
        """True iff the graph has no odd cycle: a search 2-colors each
        component and meets no edge between two vertices of one color."""
        adj = self.adjacency()
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for w in adj[v]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
        return True

    def every_vertex_adjacent_to_every_odd_cycle(self) -> bool:
        """True iff each vertex has a neighbor on every odd cycle.

        A vertex on a cycle counts as adjacent to it, through its two
        cycle neighbors.  So an odd cycle with no vertex in N(v) cannot
        pass through v, and v misses some odd cycle iff G - N[v] is not
        bipartite: one 2-coloring per vertex, O(n (n + e)) in all.
        """
        adj = self.adjacency()
        everything = set(range(self.n))
        return all(
            self.induced_subgraph(everything - adj[v] - {v}).is_bipartite()
            for v in range(self.n)
        )

    # -- serialization

    def to_json(self) -> str:
        edges = [[i + 1, j + 1] for i, j in self.edge_list()]
        return json.dumps({"n": self.n, "edges": edges})

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        data = json.loads(text)
        n = _json_int(data["n"])
        if n < 1:
            raise ValueError(f"graph needs n >= 1, got {n}")
        edges = {(_json_int(i) - 1, _json_int(j) - 1) for i, j in data["edges"]}
        return cls.from_edges(n, edges)

    @classmethod
    def from_json_file(cls, path) -> "Graph":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# ---------------------------------------------------------------------------
# named families


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def triangle_tail(n: int) -> Graph:
    """Triangle x1 x2 x3 with a tail y1..yn attached at x3 (n + 3 vertices)."""
    if n < 1:
        raise ValueError("triangle tail needs at least one tail vertex")
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    edges += [(3 + i, 4 + i) for i in range(n - 1)]
    return Graph.from_edges(n + 3, edges)


_FAMILY_RE = re.compile(r"^([KCPT])(\d+)$")
_FAMILIES = {"K": complete, "C": cycle, "P": path, "T": triangle_tail}


def parse_family(spec: str) -> Graph:
    """Parse shorthand like "K5", "C7", "P4", "T3"."""
    m = _FAMILY_RE.match(spec.strip())
    if not m:
        raise ValueError(f"unrecognized graph family {spec!r}")
    letter, size = m.group(1), int(m.group(2))
    return _FAMILIES[letter](size)

"""Finite simplicial graphs: cliques, clique complexes, joins, chordality.

Vertex labels are strings and the input order is the fixed total order used
for all tie-breaking downstream (normal forms, cube keys).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    DuplicateVertex,
    LabelClash,
    SelfLoop,
    UnknownEndpoint,
)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]
    _adj: dict[str, frozenset[str]] = field(compare=False, repr=False, default=None)
    _order: dict[str, int] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in adj.items()})
        object.__setattr__(self, "_order", {v: i for i, v in enumerate(self.vertices)})

    @property
    def order(self) -> dict[str, int]:
        """Position of each vertex in the input order; shared, do not mutate."""
        return self._order

    def adjacent(self, a: str, b: str) -> bool:
        return b in self._adj[a]

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def induced(self, subset) -> "Graph":
        keep = set(subset)
        verts = tuple(v for v in self.vertices if v in keep)
        edges = frozenset(e for e in self.edges if e <= keep)
        return Graph(verts, edges)

    def is_connected(self) -> bool:
        return len(connected_components(self)) <= 1

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted(sorted(e) for e in self.edges),
        }


@dataclass(frozen=True)
class CliqueFamily:
    """All vertex subsets inducing complete subgraphs, the empty set included."""

    cliques: frozenset[frozenset[str]]

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self.cliques

    def of_size(self, k: int) -> list[frozenset[str]]:
        return sorted((c for c in self.cliques if len(c) == k), key=sorted)

    def nonempty(self) -> list[frozenset[str]]:
        return sorted((c for c in self.cliques if c), key=lambda c: (len(c), sorted(c)))

    def max_size(self) -> int:
        return max(len(c) for c in self.cliques)


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of non-empty finite vertex sets."""

    simplices: frozenset[frozenset]

    def __post_init__(self):
        for s in self.simplices:
            if not s:
                raise ValueError("simplices must be non-empty")
            for v in s:
                if len(s) > 1 and s - {v} not in self.simplices:
                    raise ValueError("simplex family not downward closed")

    @property
    def dimension(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def vertex_set(self) -> frozenset:
        out = set()
        for s in self.simplices:
            out |= s
        return frozenset(out)

    def one_skeleton_edges(self) -> set[frozenset]:
        return {s for s in self.simplices if len(s) == 2}

    def is_flag(self) -> bool:
        """True iff every clique of the 1-skeleton spans a simplex."""
        verts = list(self.vertex_set())
        label = {v: str(i) for i, v in enumerate(verts)}
        skeleton = Graph(
            tuple(label.values()),
            frozenset(frozenset(label[v] for v in e) for e in self.one_skeleton_edges()),
        )
        return all(
            frozenset(verts[int(i)] for i in c) in self.simplices
            for c in cliques(skeleton).cliques
            if c
        )


def validate_graph(raw) -> Graph:
    """Build a Graph from {"vertices": [...], "edges": [[a,b], ...]}."""
    if isinstance(raw, Graph):
        return raw
    if not isinstance(raw, dict):
        raise ConfigError(f"graph must be a JSON object, got {type(raw).__name__}")
    if "vertices" not in raw:
        raise ConfigError("graph needs 'vertices'")
    raw_verts, raw_edges = raw["vertices"], raw.get("edges", [])
    if not isinstance(raw_verts, (list, tuple)):
        raise ConfigError(f"graph 'vertices' must be a list, got {raw_verts!r}")
    if not isinstance(raw_edges, (list, tuple)):
        raise ConfigError(f"graph 'edges' must be a list, got {raw_edges!r}")
    seen = set()
    for v in raw_verts:
        if not isinstance(v, str):
            raise ConfigError(f"graph vertex {v!r} is not a string")
        if v in seen:
            raise DuplicateVertex(f"duplicate vertex label {v!r}")
        seen.add(v)
    edges = set()
    for e in raw_edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ConfigError(f"graph 'edges' entry {e!r} is not a pair of vertices")
        for x in e:
            if not isinstance(x, str):
                raise ConfigError(f"graph edge {e!r} has endpoint {x!r}, not a string")
        a, b = e
        if a == b:
            raise SelfLoop(f"self-loop at {a!r}")
        if a not in seen or b not in seen:
            raise UnknownEndpoint(f"edge {e!r} mentions an unknown vertex")
        edges.add(frozenset((a, b)))
    return Graph(tuple(raw_verts), frozenset(edges))


def graph_from_json(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_graph(json.load(fh))


def cliques(g: Graph) -> CliqueFamily:
    """Exhaustive clique enumeration, empty set included.

    Graphs here are tiny; recursive growth beats bitmask scanning but either
    would do.
    """
    found = {frozenset()}
    order = g.order

    def grow(base: tuple, candidates: list[str]):
        for i, v in enumerate(candidates):
            nxt = base + (v,)
            found.add(frozenset(nxt))
            grow(nxt, [w for w in candidates[i + 1 :] if g.adjacent(v, w)])

    grow((), sorted(g.vertices, key=order.get))
    return CliqueFamily(frozenset(found))


def clique_complex(g: Graph) -> SimplicialComplex:
    return SimplicialComplex(frozenset(c for c in cliques(g).cliques if c))


def connected_components(g: Graph) -> list[Graph]:
    remaining = set(g.vertices)
    comps = []
    for v in g.vertices:
        if v not in remaining:
            continue
        seen = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for x in g.neighbors(w):
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
        remaining -= seen
        comps.append(g.induced(seen))
    return comps


def graph_join(g1: Graph, g2: Graph) -> Graph:
    clash = set(g1.vertices) & set(g2.vertices)
    if clash:
        raise LabelClash(f"join requires disjoint labels, shared: {sorted(clash)}")
    verts = g1.vertices + g2.vertices
    edges = set(g1.edges) | set(g2.edges)
    for a in g1.vertices:
        for b in g2.vertices:
            edges.add(frozenset((a, b)))
    return Graph(verts, frozenset(edges))


def is_chordal(g: Graph):
    """Chordality test with witness.

    Returns (True, perfect_elimination_order) or (False, induced_cycle) where
    the cycle is a vertex tuple of length >= 4 with no chord.
    """
    peo = _mcs_order(g)
    ok = _verify_peo(g, peo)
    if ok:
        return True, tuple(peo)
    cycle = _find_induced_long_cycle(g)
    if cycle is None:
        raise AssertionError("PEO check failed but no chordless cycle found")
    return False, cycle


def _mcs_order(g: Graph) -> list[str]:
    # Maximum cardinality search; for chordal graphs the reverse visiting
    # order is a perfect elimination ordering.
    weight = {v: 0 for v in g.vertices}
    order = g.order
    out = []
    remaining = set(g.vertices)
    while remaining:
        v = max(remaining, key=lambda x: (weight[x], -order[x]))
        out.append(v)
        remaining.discard(v)
        for w in g.neighbors(v):
            if w in remaining:
                weight[w] += 1
    out.reverse()
    return out


def _verify_peo(g: Graph, order: list[str]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if not g.adjacent(a, b):
                return False
    return True


def _find_induced_long_cycle(g: Graph):
    # DFS over induced paths; adequate for the graph sizes in play.
    verts = sorted(g.vertices, key=g.order.get)

    def extend(path: list[str]):
        first = path[0]
        last = path[-1]
        if len(path) >= 4 and g.adjacent(first, last):
            return tuple(path)
        for v in verts:
            if v in path or not g.adjacent(last, v):
                continue
            # keep the path induced: v may touch only its predecessor,
            # except that closing back to `first` is checked above
            mid = path[1:-1]
            if any(g.adjacent(v, w) for w in mid):
                continue
            if g.adjacent(v, first) and len(path) + 1 < 4:
                continue
            got = extend(path + [v])
            if got:
                return got
        return None

    for a in verts:
        for b in g.neighbors(a):
            got = extend([a, b])
            if got:
                return got
    return None


# small constructors used throughout the tests and CLI docs

def edge_graph(a="s", b="t") -> Graph:
    return validate_graph({"vertices": [a, b], "edges": [[a, b]]})


def single_vertex(a="s") -> Graph:
    return validate_graph({"vertices": [a], "edges": []})


def edgeless_graph(labels) -> Graph:
    return validate_graph({"vertices": list(labels), "edges": []})


def path_graph(labels) -> Graph:
    labels = list(labels)
    return validate_graph(
        {"vertices": labels, "edges": [[a, b] for a, b in zip(labels, labels[1:])]}
    )


def cycle_graph(labels) -> Graph:
    labels = list(labels)
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    edges.append([labels[-1], labels[0]])
    return validate_graph({"vertices": labels, "edges": edges})


def complete_graph(labels) -> Graph:
    labels = list(labels)
    return validate_graph(
        {
            "vertices": labels,
            "edges": [[a, b] for a, b in itertools.combinations(labels, 2)],
        }
    )

import itertools
import random

import pytest

from topraag.errors import DuplicateVertex, LabelClash, SelfLoop, UnknownEndpoint
from topraag.graphs import (
    SimplicialComplex,
    clique_complex,
    cliques,
    complete_graph,
    connected_components,
    cycle_graph,
    edge_graph,
    edgeless_graph,
    graph_join,
    is_chordal,
    path_graph,
    validate_graph,
)


def brute_force_cliques(g):
    out = set()
    for k in range(len(g.vertices) + 1):
        for combo in itertools.combinations(g.vertices, k):
            if all(g.adjacent(a, b) for a, b in itertools.combinations(combo, 2)):
                out.add(frozenset(combo))
    return out


def brute_force_chordal(g):
    # no induced cycle of length >= 4
    verts = list(g.vertices)
    for k in range(4, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            sub = g.induced(combo)
            if all(len(sub.neighbors(v)) == 2 for v in combo):
                if len(connected_components(sub)) == 1:
                    return False
    return True


def test_validate_graph_basic():
    g = validate_graph({"vertices": ["s", "t"], "edges": [["s", "t"]]})
    assert g.adjacent("s", "t")
    assert g.vertices == ("s", "t")


def test_validate_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        validate_graph({"vertices": ["s"], "edges": [["s", "s"]]})


def test_validate_graph_rejects_duplicates_and_unknowns():
    with pytest.raises(DuplicateVertex):
        validate_graph({"vertices": ["s", "s"], "edges": []})
    with pytest.raises(UnknownEndpoint):
        validate_graph({"vertices": ["s"], "edges": [["s", "t"]]})


def test_cliques_edge():
    g = edge_graph()
    fam = cliques(g)
    assert fam.cliques == {
        frozenset(),
        frozenset({"s"}),
        frozenset({"t"}),
        frozenset({"s", "t"}),
    }


def test_cliques_c4_matches_subset_scan():
    g = cycle_graph("abcd")
    fam = cliques(g)
    assert fam.cliques == brute_force_cliques(g)
    assert len(fam.of_size(1)) == 4
    assert len(fam.of_size(2)) == 4
    assert not fam.of_size(3)


def test_cliques_complete_counts():
    for n in range(1, 6):
        g = complete_graph([f"v{i}" for i in range(n)])
        assert len(cliques(g).cliques) == 2**n


def test_cliques_downward_closed():
    g = cycle_graph("abcde")
    fam = cliques(g)
    for c in fam.cliques:
        for v in c:
            assert c - {v} in fam.cliques


def test_clique_complex_shapes():
    assert clique_complex(complete_graph("abc")).dimension == 2
    assert clique_complex(cycle_graph("abcd")).dimension == 1
    two_points = clique_complex(edgeless_graph("st"))
    assert two_points.simplices == frozenset({frozenset({"s"}), frozenset({"t"})})


def test_clique_complex_dimension_formula():
    for g in [edge_graph(), cycle_graph("abcd"), complete_graph("wxyz"), path_graph("abc")]:
        assert clique_complex(g).dimension == cliques(g).max_size() - 1


def test_chordal_examples():
    ok, cycle = is_chordal(cycle_graph("abcd"))
    assert not ok
    assert len(cycle) == 4 and set(cycle) == {"a", "b", "c", "d"}
    assert is_chordal(complete_graph("wxyz"))[0]
    assert is_chordal(path_graph("abc"))[0]


def test_chordal_against_bruteforce_small():
    # all graphs on 4 vertices, then seeded samples on 5..7 vertices
    import random

    verts4 = ["a", "b", "c", "d"]
    pairs4 = list(itertools.combinations(verts4, 2))
    for bits in range(1 << len(pairs4)):
        edges = [list(pairs4[i]) for i in range(len(pairs4)) if (bits >> i) & 1]
        g = validate_graph({"vertices": verts4, "edges": edges})
        assert is_chordal(g)[0] == brute_force_chordal(g), edges
    rng = random.Random(0)
    for n in (5, 6, 7):
        verts = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        for _ in range(150):
            edges = [list(p) for p in pairs if rng.random() < rng.choice((0.3, 0.5, 0.7))]
            g = validate_graph({"vertices": verts, "edges": edges})
            assert is_chordal(g)[0] == brute_force_chordal(g), edges


def test_chordal_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    verdicts = set()
    for _ in range(400):
        verts = [f"v{i}" for i in range(rng.randint(1, 12))]
        density = rng.choice((0.2, 0.4, 0.6, 0.8, 0.95))
        edges = [list(p) for p in itertools.combinations(verts, 2) if rng.random() < density]
        nxg = nx.Graph()
        nxg.add_nodes_from(verts)
        nxg.add_edges_from(edges)
        ok, witness = is_chordal(validate_graph({"vertices": verts, "edges": edges}))
        assert ok == nx.is_chordal(nxg), edges
        if not ok:
            assert len(witness) >= 4 and nx.is_isomorphic(
                nxg.subgraph(witness), nx.cycle_graph(len(witness))
            ), (edges, witness)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_chordal_witness_is_induced_cycle():
    g = cycle_graph("abcdef")
    ok, cyc = is_chordal(g)
    assert not ok and len(cyc) >= 4
    for i, v in enumerate(cyc):
        assert g.adjacent(v, cyc[(i + 1) % len(cyc)])
    for i, j in itertools.combinations(range(len(cyc)), 2):
        if abs(i - j) not in (1, len(cyc) - 1):
            assert not g.adjacent(cyc[i], cyc[j])


def test_induced_subgraphs_of_chordal_are_chordal():
    # grow random chordal graphs by attaching each new vertex to a clique,
    # then sample induced subgraphs
    import random

    rng = random.Random(1)
    for _ in range(40):
        verts = ["a", "b"]
        edges = [["a", "b"]]
        g = validate_graph({"vertices": verts, "edges": edges})
        for i in range(rng.randint(1, 5)):
            fam = [sorted(c) for c in cliques(g).cliques if c]
            base = rng.choice(fam)
            v = f"n{i}"
            verts = list(g.vertices) + [v]
            edges = [sorted(e) for e in g.edges] + [[v, w] for w in base]
            g = validate_graph({"vertices": verts, "edges": edges})
        assert is_chordal(g)[0]
        for _ in range(5):
            k = rng.randint(1, len(g.vertices))
            combo = rng.sample(list(g.vertices), k)
            assert is_chordal(g.induced(combo))[0]


def test_connected_components():
    g = validate_graph({"vertices": ["s", "t", "x"], "edges": [["s", "t"]]})
    comps = connected_components(g)
    assert len(comps) == 2
    assert len(connected_components(cycle_graph("abcd"))) == 1
    assert len(connected_components(edgeless_graph("abc"))) == 3


def test_graph_join():
    pt1 = edgeless_graph("a")
    pt2 = edgeless_graph("b")
    assert graph_join(pt1, pt2).adjacent("a", "b")
    # edgeless(2) v edgeless(2) is a 4-cycle
    j = graph_join(edgeless_graph("ac"), edgeless_graph("bd"))
    assert len(j.edges) == 4
    assert not is_chordal(j)[0]
    k3 = graph_join(edge_graph(), edgeless_graph("u"))
    assert len(k3.edges) == 3
    with pytest.raises(LabelClash):
        graph_join(edge_graph(), edgeless_graph("s"))


def test_simplicial_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(frozenset({frozenset({"a", "b"})}))  # missing faces


def test_cliques_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2)
    for _ in range(300):
        verts = [f"v{i}" for i in range(rng.randint(1, 8))]
        edges = [list(p) for p in itertools.combinations(verts, 2) if rng.random() < 0.5]
        fam = cliques(validate_graph({"vertices": verts, "edges": edges})).cliques
        nxg = nx.Graph()
        nxg.add_nodes_from(verts)
        nxg.add_edges_from(edges)
        maximal = {frozenset(c) for c in nx.find_cliques(nxg)}
        assert {c for c in fam if not any(c < d for d in fam)} == maximal
        assert fam == {frozenset(s) for c in maximal for k in range(len(c) + 1)
                       for s in itertools.combinations(c, k)}


def subset_scan_is_flag(cx):
    """Reference: every pairwise-connected vertex set spans a simplex."""
    verts = sorted(cx.vertex_set(), key=repr)
    edges = cx.one_skeleton_edges()
    for k in range(3, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            if all(frozenset(p) in edges for p in itertools.combinations(combo, 2)):
                if frozenset(combo) not in cx.simplices:
                    return False
    return True


def test_is_flag_non_flag_examples():
    hollow = SimplicialComplex(frozenset(
        frozenset(s) for s in ("a", "b", "c", "ab", "bc", "ac")
    ))
    assert not hollow.is_flag() and not subset_scan_is_flag(hollow)
    # boundary of the tetrahedron: every triangle, no 3-simplex
    boundary = SimplicialComplex(frozenset(
        frozenset(s) for k in (1, 2, 3) for s in itertools.combinations("abcd", k)
    ))
    assert not boundary.is_flag()
    assert SimplicialComplex(boundary.simplices | {frozenset("abcd")}).is_flag()
    assert SimplicialComplex(frozenset()).is_flag()


def test_is_flag_matches_subset_scan():
    # clique complexes with some simplices of dimension >= 2 removed, together
    # with everything containing them; non-string vertices as in vertex links
    rng = random.Random(4)
    flags = set()
    for _ in range(300):
        verts = [str(i) for i in range(rng.randint(1, 7))]
        edges = [[a, b] for a, b in itertools.combinations(verts, 2) if rng.random() < 0.6]
        g = validate_graph({"vertices": verts, "edges": edges})
        fam = {frozenset(int(v) for v in c) for c in cliques(g).cliques if c}
        dropped = [c for c in fam if len(c) >= 3 and rng.random() < 0.2]
        cx = SimplicialComplex(frozenset(c for c in fam if not any(d <= c for d in dropped)))
        assert cx.is_flag() == subset_scan_is_flag(cx) == (not dropped)
        flags.add(cx.is_flag())
    assert flags == {True, False}

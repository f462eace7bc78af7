"""Balls of the coset cube complex: counts, degrees, stabilisers, apartments,
intersection trichotomy, pockets, links, nerves, valleys."""

import itertools
import json
from types import SimpleNamespace

import pytest

from oracles import (
    ball_json,
    cube_element,
    cube_faces,
    fixed_cells_by_action,
    inverse_tail_key,
    least_key_coset_split,
    link_by_scan,
    skeleton_neighbours,
    stabiliser_by_action,
)
from test_engine_contract import F20, S3_O2, S4_S3
from topraag import words as W
from topraag.errors import EmptyWindow, InfiniteStabiliser, NoInteriorVertices, ResourceCap
from topraag.graphs import (
    cliques,
    path_graph,
    complete_graph,
    cycle_graph,
    edge_graph,
    edgeless_graph,
    graph_join,
    is_chordal,
    single_vertex,
    validate_graph,
)
from topraag.models import (
    FiniteModel,
    ShiftModel,
    TrivialModel,
    model_from_config,
    perm_from_cycles,
    s3_a3_model,
)
from topraag.britton import TreeEngine
from topraag.elements import AutomorphicEngine, engine_for, gen_token, u_token
from topraag.semidirect import SemidirectEngine
from topraag.verification import suite_intersections, suite_stabilisers
from topraag.complexes import (
    Cube,
    CubeBall,
    apartment_of_vertex,
    base_apartment_trace,
    brute_force_fixed_cells,
    build_ball,
    cayley_abels_degree,
    check_links,
    classify_intersection,
    classify_with_engine,
    common_face_check,
    detect_pockets,
    enumerate_apartments,
    export_ball,
    nerve_graph,
    stabiliser_bruteforce,
    stabiliser_formula_set,
    trace_names,
    valley_cells,
    vertex_link,
    _spans_face,
    _table_step,
    _vertex_links,
)

EDGE = edge_graph()
S3A3 = s3_a3_model()
SM2 = ShiftModel(2)


def test_ball_counts_bass_serre_tree():
    ball = build_ball(SM2, single_vertex("s"), 1)
    assert ball.n_vertices == 4
    assert sum(c.dim == 1 for c in ball.cubes) == 3
    # radius 2: every vertex within distance 1 has full degree m+1 = 3
    ball2 = build_ball(SM2, single_vertex("s"), 2)
    neighbours = skeleton_neighbours(ball2)
    for v in range(ball2.n_vertices):
        if ball2.dist[v] <= 1:
            assert len(neighbours[v]) == 3


def test_ball_counts_edge_shift():
    ball = build_ball(SM2, EDGE, 1)
    assert ball.n_vertices == 7
    assert sum(c.dim == 1 for c in ball.cubes) == 6
    assert not any(c.dim == 2 for c in ball.cubes)


def test_ball_counts_trivial_model():
    ball = build_ball(TrivialModel(), EDGE, 1)
    assert ball.n_vertices == 5
    ball2 = build_ball(TrivialModel(), EDGE, 2)
    # Z^2 grid ball of radius 2: 13 vertices, 4 unit squares touching origin
    assert ball2.n_vertices == 13
    assert sum(c.dim == 2 for c in ball2.cubes) == 4


def test_degree_formula():
    assert cayley_abels_degree(SM2, single_vertex("s")) == 3
    assert cayley_abels_degree(SM2, EDGE) == 6
    assert cayley_abels_degree(S3A3, EDGE) == 8
    assert cayley_abels_degree(ShiftModel(3), cycle_graph("abcd")) == 16
    assert cayley_abels_degree(TrivialModel(), EDGE) == 4
    for model, graph in [(SM2, EDGE), (S3A3, EDGE), (TrivialModel(), EDGE)]:
        ball = build_ball(model, graph, 2)
        neighbours = skeleton_neighbours(ball)
        for v in range(ball.n_vertices):
            if ball.dist[v] <= 1:
                assert len(neighbours[v]) == cayley_abels_degree(model, graph)


def test_resource_cap():
    with pytest.raises(ResourceCap):
        build_ball(SM2, EDGE, 3, vertex_cap=10)


def test_vertex_cap_trips_before_listing_probes(monkeypatch):
    # radius 1 alone holds 1 + 2 * (50 + 1) vertices, so the cap trips before
    # the 50 probes of U/phi(U) are listed
    model = ShiftModel(50)

    def listed(k):
        raise AssertionError("probes listed although the cap had tripped")

    monkeypatch.setattr(model, "left_transversal", listed)
    with pytest.raises(ResourceCap, match="^vertex budget 10 exhausted at radius 1$"):
        build_ball(model, EDGE, 1, vertex_cap=10)


# phi = inversion on O = A3: automorphic, but phi is not the identity on O
INVERSION = FiniteModel(
    3, S3A3.u_gens, [perm_from_cycles(3, [[0, 1, 2]])], [perm_from_cycles(3, [[0, 2, 1]])]
)
# phi(O) != O: only the tree engine applies
GENERAL = FiniteModel(
    3, S3A3.u_gens, [perm_from_cycles(3, [[0, 1]])], [perm_from_cycles(3, [[0, 2]])]
)
# one ball per engine and regime, the automorphic one with phi not the identity
TABLE_BALLS = [
    (S3A3, EDGE, 3),
    (INVERSION, complete_graph("abc"), 2),
    (TrivialModel(), cycle_graph("abcd"), 3),
    (SM2, EDGE, 4),
    (ShiftModel(3), path_graph("pqr"), 2),
    (GENERAL, edgeless_graph("st"), 3),
]
TABLE_IDS = ["s3a3-edge", "inversion-k3", "trivial-c4", "shift2-edge", "shift3-path3", "general-st"]


def test_cube_types_unique_by_vertex_set():
    # one cube per vertex set, so one type per vertex set
    for model, graph, radius in TABLE_BALLS:
        seen = set()
        for c in build_ball(model, graph, radius).cubes:
            key = frozenset(c.corners)
            assert len(key) == len(c.corners) and key not in seen
            seen.add(key)


def test_cube_transitivity_spot_check():
    # every type-T cube is the translate of the base cube Q_T by its
    # defining element: translating the base corners recovers the corners
    for model in (S3A3, SM2, TrivialModel()):
        ball = build_ball(model, EDGE, 2)
        engine = ball.engine
        for cube in ball.cubes:
            if cube.dim == 0:
                continue
            for mask in range(1 << cube.dim):
                corner = engine.identity()
                for i, t in enumerate(cube.ctype):
                    if (mask >> i) & 1:
                        corner = engine.mul_token(corner, gen_token(t, 1))
                translated = engine.mul(cube_element(ball, cube), corner)
                assert ball.vertex_ids[engine.coset_rep(translated)] == cube.corners[mask]


def test_exponent_on_ball_vertices():
    ball = build_ball(SM2, EDGE, 2)
    for c in (c for c in ball.cubes if c.dim == 1):
        a, b = sorted(c.corners, key=lambda v: ball.exponent[v])
        assert ball.exponent[b] - ball.exponent[a] == 1
        assert c.corners[0] == a


def test_stabilisers_automorphic():
    ball = build_ball(S3A3, EDGE, 2)
    engine = ball.engine
    for cube in ball.cubes:
        brute = stabiliser_bruteforce(ball, cube)
        formula = stabiliser_formula_set(ball, cube)
        assert brute == formula
        if cube.dim == 0:
            assert len(brute) == 6
        else:
            assert len(brute) == 3  # A3 in either positive dimension


def test_stabilisers_trivial_model():
    # U = {1} is the finite model of degree 0: every stabiliser is {1}
    ball = build_ball(TrivialModel(), EDGE, 2)
    for cube in ball.cubes:
        brute = stabiliser_bruteforce(ball, cube)
        assert brute == stabiliser_formula_set(ball, cube) == {()}


def test_stabiliser_base_vertex_is_U():
    ball = build_ball(S3A3, EDGE, 1)
    base_cube = ball.cubes[0]
    assert base_cube.dim == 0
    assert stabiliser_bruteforce(ball, base_cube) == set(S3A3.U)


def test_stabiliser_infinite_model_raises():
    ball = build_ball(SM2, EDGE, 1)
    with pytest.raises(InfiniteStabiliser):
        stabiliser_bruteforce(ball, ball.cubes[0])


def test_apartment_assignment_and_cover():
    for model in (S3A3, SM2):
        ball = build_ball(model, EDGE, 2)
        engine = ball.engine
        handles = {engine.apartment_key(n) for n in enumerate_apartments(ball)}
        for v in range(ball.n_vertices):
            assert apartment_of_vertex(ball, v) in handles
        # every cube lies in the apartment named by its defining element
        for c in ball.cubes:
            n = engine.n_part(cube_element(ball, c))
            assert engine.apartment_key(n) in handles


def test_apartment_of_artin_vertices_is_fundamental():
    ball = build_ball(S3A3, EDGE, 2)
    engine = ball.engine
    base_handle = engine.apartment_key(engine.identity())
    verts, _ = base_apartment_trace(ball)
    for word, vid in verts.items():
        assert apartment_of_vertex(ball, vid) == base_handle


def test_same_n_same_handle():
    # two vertices with the same normal-closure part share a handle
    eng = engine_for(SM2, EDGE)
    v1 = eng.from_tokens((u_token(2), gen_token("s", 1), gen_token("t", 1)))
    v2 = eng.from_tokens((u_token(2), gen_token("s", 1)))
    assert eng.apartment_key(eng.n_part(v1)) == eng.apartment_key(eng.n_part(v2))


def test_classify_intersection_automorphic():
    eng = engine_for(S3A3, EDGE)
    t12 = perm_from_cycles(3, [[0, 1]])
    c3 = perm_from_cycles(3, [[0, 1, 2]])
    cls = classify_intersection(S3A3, EDGE, eng.from_tokens((u_token(t12),)))
    assert cls.tag == "vertices" and cls.vertex == ()
    n2 = eng.from_tokens(
        (u_token(t12), gen_token("s", 1), u_token(t12), gen_token("s", -1))
    )
    assert classify_intersection(S3A3, EDGE, n2).tag == "empty"
    cls3 = classify_intersection(S3A3, EDGE, eng.from_tokens((u_token(c3),)))
    assert cls3.tag == "valleys" and cls3.latitude is None
    # conjugated vertex case: s u s^-1 with u outside O fixes exactly sU
    n4 = eng.from_tokens((gen_token("s", 1), u_token(t12), gen_token("s", -1)))
    cls4 = classify_intersection(S3A3, EDGE, n4)
    assert cls4.tag == "vertices" and cls4.vertex == W.single("s", 1)


def test_classify_intersection_shift():
    eng = engine_for(SM2, EDGE)
    cls = classify_intersection(SM2, EDGE, eng.from_tokens((u_token(2),)))
    assert cls.tag == "valleys" and cls.latitude == 1
    cls = classify_intersection(SM2, EDGE, eng.from_tokens((u_token(5),)))
    assert cls.tag == "valleys" and cls.latitude == 0


def test_trichotomy_against_bruteforce():
    for model, radius in [(S3A3, 2), (SM2, 2)]:
        ball = build_ball(model, EDGE, radius)
        engine = ball.engine
        witnesses = enumerate_apartments(ball)
        names = [trace_names(ball, w) for w in witnesses]
        verts, cubes = base_apartment_trace(ball)
        for i, j in itertools.combinations(range(len(witnesses)), 2):
            n = engine.mul(engine.inv(witnesses[i]), witnesses[j])
            cls = classify_with_engine(engine, n)
            fixed_v, fixed_c = brute_force_fixed_cells(ball, names[i], names[j])
            if cls.tag == "empty":
                assert not fixed_v and not fixed_c
            elif cls.tag == "vertices":
                assert not fixed_c
                assert set(fixed_v) == ({cls.vertex} & set(verts))
            else:
                lat = cls.latitude
                assert lat is not None
                for w in verts:
                    assert (W.exponent(w) <= lat) == (w in fixed_v)
                keys = {(b, t) for b, t, _ in fixed_c}
                for b, t, _ in cubes:
                    assert (W.exponent(b) + len(t) <= lat) == ((b, t) in keys)


def _plain_trace(ball):
    # reference: word BFS with engine elements and every cube corner by
    # words.multiply, no letter table; cubes are found by vertex set, not
    # by the corner order the ball uses
    engine, graph = ball.engine, ball.graph
    seen = {(): engine.from_tokens(())}
    frontier = [()]
    for _ in range(ball.radius):
        nxt = []
        for b in frontier:
            for t in graph.vertices:
                for sign in (1, -1):
                    w = W.multiply(graph, b, W.single(t, sign))
                    if w not in seen:
                        seen[w] = engine.from_tokens(tuple(gen_token(g, e) for g, e in w))
                        nxt.append(w)
        frontier = nxt
    verts = {}
    for w, elem in seen.items():
        vid = ball.vertex_id_of(elem)
        if vid is not None:
            verts[w] = vid

    def corner_words(b, ctype):
        out = []
        for mask in range(1 << len(ctype)):
            w = b
            for i, t in enumerate(ctype):
                if (mask >> i) & 1:
                    w = W.multiply(graph, w, W.single(t, 1))
            out.append(w)
        return out

    by_vertex_set = {frozenset(c.corners): i for i, c in enumerate(ball.cubes)}
    cubes = []
    for b in verts:
        for clique in cliques(graph).nonempty():
            ctype = tuple(sorted(clique, key=graph.order.get))
            corners = corner_words(b, ctype)
            if all(w in verts for w in corners):
                cid = by_vertex_set.get(frozenset(verts[w] for w in corners))
                if cid is not None:
                    cubes.append((b, ctype, cid))

    def fixed_cells(n):
        fixed_v = {
            w for w in verts
            if engine.coset_rep(engine.mul(n, seen[w])) == engine.coset_rep(seen[w])
        }
        fixed_c = [
            (b, ctype, cid) for b, ctype, cid in cubes
            if all(w in fixed_v for w in corner_words(b, ctype))
        ]
        return fixed_v, fixed_c

    return verts, cubes, fixed_cells


TRACE_BALLS = [
    (S3A3, EDGE, 2),
    (SM2, EDGE, 3),
    (TrivialModel(), cycle_graph("abcd"), 2),
    # 3-cubes in the trace, grown from their squares
    (SM2, complete_graph("abc"), 3),
    (TrivialModel(), complete_graph("abc"), 3),
]
TRACE_IDS = ["s3a3-edge", "shift2-edge", "trivial-c4", "shift2-k3", "trivial-k3"]


def test_apartment_trace_matches_plain_corner_walk():
    for model, graph, radius in TRACE_BALLS:
        ball = build_ball(model, graph, radius)
        engine = ball.engine
        verts, cubes = base_apartment_trace(ball)
        ref_verts, ref_cubes, ref_fixed_cells = _plain_trace(ball)
        assert list(verts.items()) == list(ref_verts.items())
        assert cubes == ref_cubes
        witnesses = enumerate_apartments(ball)
        names = [trace_names(ball, w) for w in witnesses]
        pairs = itertools.combinations_with_replacement(range(len(witnesses)), 2)
        for i, j in pairs:
            n = engine.mul(engine.inv(witnesses[i]), witnesses[j])
            fixed_v, fixed_c = brute_force_fixed_cells(ball, names[i], names[j])
            ref_v, ref_c = ref_fixed_cells(n)
            assert fixed_v == ref_v and fixed_c == ref_c


@pytest.mark.parametrize("model, graph, radius", TRACE_BALLS, ids=TRACE_IDS)
def test_named_fixed_cells_match_the_engine_action(model, graph, radius):
    # w_i^-1 w_j fixes a trace vertex iff the trace names of w_i and w_j
    # agree there; the reference acts with w_i^-1 w_j on every corner
    ball = build_ball(model, graph, radius)
    engine = ball.engine
    witnesses = enumerate_apartments(ball)
    names = [trace_names(ball, w) for w in witnesses]
    for i, j in itertools.combinations_with_replacement(range(len(witnesses)), 2):
        n = engine.mul(engine.inv(witnesses[i]), witnesses[j])
        assert brute_force_fixed_cells(ball, names[i], names[j]) == fixed_cells_by_action(ball, n)


def _engine_walk_ball(model, graph, radius):
    """The ball as built before the coset table: a BFS that keeps no edges,
    and every cube of every vertex x clique x transversal rep with its
    corners multiplied out through the engine and looked up by their coset
    representatives.  Returns the ball and the defining element of each cube."""
    engine = engine_for(model, graph)
    ball = CubeBall(model, graph, radius, engine)
    root = engine.coset_rep(engine.identity())
    ball._add_vertex(root, 0, engine.exponent(root))
    frontier = [0]
    for d in range(radius):
        nxt = []
        for vid in frontier:
            for t in graph.vertices:
                for sign in (1, -1):
                    for u in model.left_transversal(1 if sign == 1 else 0):
                        nb = engine.mul_token(ball.vertex_reps[vid], u_token(u))
                        nb = engine.coset_rep(engine.mul_token(nb, gen_token(t, sign)))
                        if nb not in ball.vertex_ids:
                            nxt.append(ball._add_vertex(nb, d + 1, engine.exponent(nb)))
        frontier = nxt
    elements = list(ball.vertex_reps)
    for vid in range(ball.n_vertices):
        ball.cube_ids[(vid,)] = len(ball.cubes)
        ball.cubes.append(Cube(0, (), (vid,), model.identity()))
    for clique in cliques(graph).nonempty():
        ctype = tuple(sorted(clique, key=graph.order.get))
        for vid in range(ball.n_vertices):
            for c in model.left_transversal(len(ctype)):
                g = engine.mul_token(ball.vertex_reps[vid], u_token(c))
                corners = []
                for mask in range(1 << len(ctype)):
                    x = g
                    for i, t in enumerate(ctype):
                        if (mask >> i) & 1:
                            x = engine.mul_token(x, gen_token(t, 1))
                    corners.append(ball.vertex_id_of(x))
                corners = tuple(corners)
                if None in corners or corners in ball.cube_ids:
                    continue
                assert len(set(corners)) == len(corners)
                ball.cube_ids[corners] = len(ball.cubes)
                ball.cubes.append(Cube(len(ctype), ctype, corners, c))
                elements.append(g)
    return ball, elements


def _probed_table_ball(model, graph, radius):
    """The vertices and coset table of the ball as built before deduction:
    the same probes r_v u t^sign = r_w x, split by the engine, but every
    letter probed from every vertex, boundary vertices included; no cubes."""
    engine = engine_for(model, graph)
    ball = CubeBall(model, graph, radius, engine)
    root = engine.coset_rep(engine.identity())
    ball._add_vertex(root, 0, engine.exponent(root))
    letters = [(u, t, sign) for t in graph.vertices for sign in (1, -1)
               for u in model.left_transversal(1 if sign == 1 else 0)]
    for vid, here in enumerate(ball.vertex_reps):
        d = ball.dist[vid]
        for u, t, sign in letters:
            probe = engine.mul_token(engine.mul_token(here, u_token(u)), gen_token(t, sign))
            rep, x = engine.coset_split(probe)
            wid = ball.vertex_ids.get(rep)
            if wid is None and d < radius:
                wid = ball._add_vertex(rep, d + 1, engine.exponent(rep))
            ball.table[vid][u, t, sign] = wid if wid is None else (wid, x)
    return ball


# TABLE_BALLS, 3-cubes over a shift model (the one face lift by phi^-2 of a
# nontrivial omega), 2-cubes with c0 != c, phi of order 4, and two O that
# are not normal in U
WALK_BALLS = TABLE_BALLS + [
    (SM2, complete_graph("abc"), 3),
    (ShiftModel(3), path_graph("pqr"), 3),
    (F20, EDGE, 2),
    (S3_O2, complete_graph("abc"), 2),
    (S4_S3, EDGE, 2),
]
WALK_IDS = TABLE_IDS + ["shift2-k3", "shift3-path3-r3", "f20-edge", "s3-o2-k3", "s4-s3-edge"]
AUTOMORPHIC_WALK_IDS = [i for i, (m, _, _) in zip(WALK_IDS, WALK_BALLS) if m.is_automorphic]
AUTOMORPHIC_WALK_BALLS = [b for b in WALK_BALLS if b[0].is_automorphic]
FINITE_WALK_IDS = [i for i, (m, _, _) in zip(WALK_IDS, WALK_BALLS) if hasattr(m, "U")]
FINITE_WALK_BALLS = [b for b in WALK_BALLS if hasattr(b[0], "U")]


@pytest.mark.parametrize("model, graph, radius", FINITE_WALK_BALLS, ids=FINITE_WALK_IDS)
def test_table_walk_stabilisers_match_the_engine_action(model, graph, radius):
    # the table walk from (v, c u) against g u g^-1 acting on every corner
    ball = build_ball(model, graph, radius)
    for cube in ball.cubes:
        assert stabiliser_bruteforce(ball, cube) == stabiliser_by_action(ball, cube)


@pytest.mark.parametrize("model, graph, radius", AUTOMORPHIC_WALK_BALLS, ids=AUTOMORPHIC_WALK_IDS)
def test_coset_split_matches_the_least_key_search(model, graph, radius):
    # at every element r_v u of every vertex coset, coset_split gives the
    # least key over the coset found by search
    ball = build_ball(model, graph, radius)
    eng = ball.engine
    for rep in ball.vertex_reps:
        for u in sorted(model.U):
            a = eng.mul_token(rep, u_token(u))
            expected = least_key_coset_split(eng, a)
            assert eng.coset_split(a) == expected


@pytest.mark.parametrize("model, graph, radius", WALK_BALLS, ids=WALK_IDS)
def test_coset_table_matches_engine_corner_walk(model, graph, radius):
    ball = build_ball(model, graph, radius)
    ref, elements = _engine_walk_ball(model, graph, radius)
    assert ball_json(ball) == ball_json(ref)
    # the table holds every edge: its targets in the ball are the neighbours
    # along the reference's 1-cubes
    ref_neighbours = skeleton_neighbours(ref)
    for v, row in enumerate(ball.table):
        assert {entry[0] for entry in row.values() if entry} == ref_neighbours[v]
    key = ball.engine.key
    assert [c.rep for c in ball.cubes] == [c.rep for c in ref.cubes]
    assert [key(cube_element(ball, c)) for c in ball.cubes] == [key(g) for g in elements]
    # every table entry r_v u t^sign = r_w x, and every walk step
    # r_w y t = r_w' y' from any remainder y, holds in the group
    engine = ball.engine

    def holds(v, u, t, sign, entry):
        g = engine.mul_token(ball.vertex_reps[v], u_token(u))
        g = engine.mul_token(g, gen_token(t, sign))
        if entry is None:
            return ball.vertex_id_of(g) is None
        return g == engine.mul_token(ball.vertex_reps[entry[0]], u_token(entry[1]))

    for v, row in enumerate(ball.table):
        assert all(holds(v, *key, entry) for key, entry in row.items())
    ys = sorted(model.U) if hasattr(model, "U") else list(range(-6, 7))
    for v in range(ball.n_vertices):
        for y in ys:
            for t in graph.vertices:
                assert holds(v, y, t, 1, _table_step(ball, v, y, t))


# TABLE_BALLS, the tree engine over a shift model, an automorphic model whose
# phi has order 4, and a chosen transversal under which half the deduced
# entries carry a nontrivial conjugate c
DEDUCTION_BALLS = TABLE_BALLS + [
    (SM2, edgeless_graph("st"), 4),
    (F20, EDGE, 2),
    (model_from_config({**S3A3.to_json(), "coset_reps": [[0, 1, 2], [1, 0, 2]]}), EDGE, 3),
]
DEDUCTION_IDS = TABLE_IDS + ["shift2-st", "f20-edge", "s3a3-reps-edge"]


@pytest.mark.parametrize("model, graph, radius", DEDUCTION_BALLS, ids=DEDUCTION_IDS)
def test_deduced_table_matches_probed_table(model, graph, radius):
    ball = build_ball(model, graph, radius)
    ref = _probed_table_ball(model, graph, radius)
    assert list(ball.vertex_ids.items()) == list(ref.vertex_ids.items())
    assert ball.dist == ref.dist
    assert ball.table == ref.table
    degree = cayley_abels_degree(model, graph)
    assert all(len(row) == degree for row in ball.table)
    # the parity fact that lets the boundary rows go unprobed
    for v, row in enumerate(ball.table):
        assert all(abs(ball.dist[entry[0]] - ball.dist[v]) == 1 for entry in row.values() if entry)


@pytest.mark.parametrize(
    "model, graph, radius",
    [(ShiftModel(3), path_graph("pqr"), 3), (SM2, complete_graph("abc"), 3)],
    ids=["shift3-path3", "shift2-k3"],
)
def test_cube_cap_boundary(model, graph, radius):
    ball = build_ball(model, graph, radius)
    cap = len(ball.cubes)
    assert len(build_ball(model, graph, radius, cube_cap=cap).cubes) == cap
    with pytest.raises(ResourceCap, match=f"^cube budget {cap - 1} exhausted$"):
        build_ball(model, graph, radius, cube_cap=cap - 1)


def test_cubes_grow_from_faces(monkeypatch):
    # every table step of the attachment lifts a face that is in the ball;
    # the vertex x clique x rep walk tried every rep from every vertex
    steps = []

    def counted(ball, w, y, t, step=_table_step):
        steps.append(None)
        return step(ball, w, y, t)

    monkeypatch.setattr("topraag.complexes._table_step", counted)
    model, graph = ShiftModel(3), path_graph("pqr")
    ball = build_ball(model, graph, 4)
    attempts = ball.n_vertices * sum(len(model.left_transversal(len(c))) for c in cliques(graph).nonempty())
    assert (ball.n_vertices, attempts) == (4_705, 127_035)
    assert len(steps) == 28_320 < attempts


@pytest.mark.parametrize(
    "model, graph, radius, probes",
    [(ShiftModel(3), path_graph("pqr"), 4, 7_585), (S3A3, EDGE, 3, 393), (SM2, EDGE, 5, 931)],
    ids=["shift3-path3", "s3a3-edge", "shift2-edge"],
)
def test_ball_names_one_coset_per_edge(monkeypatch, model, graph, radius, probes):
    calls = _count_coset_splits(monkeypatch)
    ball = build_ball(model, graph, radius)
    ends = sum(entry is not None for row in ball.table for entry in row.values())
    assert ends % 2 == 0
    # the base vertex, then one probe per edge
    assert len(calls) == 1 + ends // 2 == probes


def _count_coset_splits(monkeypatch):
    """A list that gains one entry per engine coset_split call."""
    calls = []
    for cls in (AutomorphicEngine, SemidirectEngine, TreeEngine):
        def counted(self, a, split=cls.coset_split):
            calls.append(None)
            return split(self, a)

        monkeypatch.setattr(cls, "coset_split", counted)
    return calls


def test_stabiliser_suite_splits_no_coset(monkeypatch):
    # the engine-action oracle split 7,734 cosets on this ball
    ball = build_ball(S3A3, EDGE, 3)
    calls = _count_coset_splits(monkeypatch)
    report = suite_stabilisers(ball)
    assert report["pass"] and report["meta"] == {"cubes": len(ball.cubes)}
    assert calls == []


@pytest.mark.parametrize(
    "model, apartments", [(S3A3, 58), (SM2, 11)], ids=["s3a3-edge", "shift2-edge"]
)
def test_intersection_suite_names_each_apartment_once(monkeypatch, model, apartments):
    # one coset split per (apartment, trace vertex); acting with w_i^-1 w_j
    # split one per (pair, trace vertex): 41,325 and 1,375 on these balls
    ball = build_ball(model, EDGE, 3)
    calls = _count_coset_splits(monkeypatch)
    verts, _ = base_apartment_trace(ball)
    assert len(calls) == len(verts) == 25
    calls.clear()
    report = suite_intersections(ball)
    assert report["pass"] and report["meta"]["apartments"] == apartments
    assert len(calls) == apartments * len(verts)


def test_deduction_into_a_filled_slot_raises(monkeypatch):
    # a left_split that sends every remainder to the representative 0 deduces
    # two edges into one slot of a radius-2 vertex
    model = ShiftModel(2)
    monkeypatch.setattr(model, "left_split", lambda u, sign: (0, 0))
    with pytest.raises(AssertionError, match="^coset table entry deduced twice; engine inconsistency$"):
        build_ball(model, EDGE, 2)


@pytest.mark.parametrize(
    "model, graph, radius",
    [(S3A3, EDGE, 3), (INVERSION, complete_graph("abc"), 2), (TrivialModel(), cycle_graph("abcd"), 3)],
    ids=["s3a3-edge", "inversion-k3", "trivial-c4"],
)
def test_vertex_id_of_names_automorphic_cosets(model, graph, radius):
    ball = build_ball(model, graph, radius)
    engine = ball.engine
    assert engine.regime == "automorphic"
    # oracle: look the coset up by the tail of the inverse, a second naming
    # that shares no code with coset_rep
    by_tail = {inverse_tail_key(engine, rep): v for v, rep in enumerate(ball.vertex_reps)}
    assert len(by_tail) == ball.n_vertices

    def oracle(g):
        return by_tail.get(inverse_tail_key(engine, g))

    us = sorted(model.U)
    outside = 0
    for v, rep in enumerate(ball.vertex_reps):
        for u in us:
            g = engine.mul_token(rep, u_token(u))
            assert ball.vertex_id_of(g) == oracle(g) == v
        if ball.dist[v] < radius:
            continue
        # one letter past the boundary vertex
        for u, t, sign in itertools.product(us, graph.vertices, (1, -1)):
            g = engine.mul_token(engine.mul_token(rep, u_token(u)), gen_token(t, sign))
            vid = ball.vertex_id_of(g)
            assert vid == oracle(g)
            outside += vid is None
    assert outside > 0
    t = graph.vertices[0]
    assert ball.vertex_id_of(engine.from_tokens((gen_token(t, 1),) * (radius + 1))) is None


def test_automorphic_pairwise_intersections_at_most_a_vertex():
    ball = build_ball(S3A3, EDGE, 2)
    engine = ball.engine
    witnesses = enumerate_apartments(ball)
    for i, j in itertools.combinations(range(len(witnesses)), 2):
        n = engine.mul(engine.inv(witnesses[i]), witnesses[j])
        assert classify_with_engine(engine, n).tag in ("empty", "vertices")


def test_valley_cells_window():
    verts, cubes = valley_cells(EDGE, 0, (-2, 0), 4)
    assert () in verts  # the base vertex 1U
    assert W.single("s", -1) in verts
    assert W.single("s", 1) not in verts  # exponent 1 > latitude
    # a square bQ_{s,t} with e(b) = -2 sits at latitude 0
    b = W.parse_word("s^-1 t^-1")
    square_corners = {b, W.parse_word("s^-1"), W.parse_word("t^-1"), ()}
    ids = {verts[w] for w in square_corners}
    assert any(frozenset(c[2]) == frozenset(ids) for c in cubes if c[0] == 2)
    with pytest.raises(EmptyWindow):
        valley_cells(EDGE, 0, (1, 0), 4)


def _plain_valley(graph, latitude, e_range, radius):
    # reference: BFS and every cube corner by words.multiply, no letter table
    ball = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for b in frontier:
            for t in graph.vertices:
                for sign in (1, -1):
                    w = W.multiply(graph, b, W.single(t, sign))
                    if w not in ball:
                        ball.add(w)
                        nxt.append(w)
        frontier = nxt
    lo, hi = e_range
    verts = {}
    for b in sorted(ball, key=lambda w: (len(w), w)):
        if lo <= W.exponent(b) <= min(hi, latitude):
            verts[b] = len(verts)
    cubes = {(0, (), (vid,)) for vid in verts.values()}
    for b in verts:
        for clique in cliques(graph).nonempty():
            ctype = tuple(sorted(clique, key=graph.order.get))
            if W.exponent(b) + len(ctype) > latitude:
                continue
            corners = []
            for mask in range(1 << len(ctype)):
                w = b
                for i, t in enumerate(ctype):
                    if (mask >> i) & 1:
                        w = W.multiply(graph, w, W.single(t, 1))
                corners.append(w)
            if all(w in verts for w in corners):
                cubes.add((len(ctype), ctype, tuple(verts[w] for w in corners)))
    return verts, cubes


# the boundary of the 3-dimensional cross-polytope: a join of three S^0
OCTAHEDRON = graph_join(edgeless_graph("ab"), graph_join(edgeless_graph("cd"), edgeless_graph("ef")))


def test_valley_cells_match_plain_corner_walk():
    windows = [
        (EDGE, 0, (-2, 0), 4),
        (EDGE, 1, (-3, 1), 4),
        (EDGE, -1, (-4, 0), 3),
        (cycle_graph("abcd"), 0, (-5, 0), 3),
        (cycle_graph("abcd"), 1, (-2, 1), 3),
        (cycle_graph("abcd"), 0, (-1, 0), 2),
        # 3- and 4-cubes, each grown from a face found just before it
        (complete_graph("abc"), 1, (-3, 1), 4),
        (complete_graph("abcd"), 2, (-3, 2), 4),
        (OCTAHEDRON, 0, (-3, 0), 3),
    ]
    for graph, latitude, e_range, radius in windows:
        verts, cubes = valley_cells(graph, latitude, e_range, radius)
        ref_verts, ref_cubes = _plain_valley(graph, latitude, e_range, radius)
        assert verts == ref_verts
        assert len(cubes) == len(ref_cubes) and set(cubes) == ref_cubes


def test_valley_cells_empty_below_window():
    verts, cubes = valley_cells(EDGE, -9, (-2, 0), 3)
    assert not verts


def test_valley_matches_sublevel_on_trivial_ball():
    from topraag.homology import sublevel_complex

    ball = build_ball(TrivialModel(), EDGE, 3)
    sub = sublevel_complex(ball, 0)
    # compare against valley cells through corner exponent multisets
    verts, vcubes = valley_cells(EDGE, 0, (-3, 0), 3)
    assert len(sub) == len(vcubes)
    sub_counts = {}
    for dim, ctype, corners in sub:
        sub_counts[dim] = sub_counts.get(dim, 0) + 1
    v_counts = {}
    for dim, ctype, corners in vcubes:
        v_counts[dim] = v_counts.get(dim, 0) + 1
    assert sub_counts == v_counts


def test_sublevel_extremes():
    from topraag.homology import sublevel_complex

    ball = build_ball(TrivialModel(), EDGE, 2)
    assert len(sublevel_complex(ball, 99)) == len(ball.cubes)
    assert not sublevel_complex(ball, -99)


def test_pockets_shift_edge():
    ball = build_ball(SM2, EDGE, 2)
    pockets = detect_pockets(ball)
    assert pockets
    # the doubling witness: the square at the base and its translate by
    # 2 = s 1 s^-1 share exactly the two base edges
    engine = ball.engine
    base_square_corners = {
        engine.coset_rep(engine.from_tokens(toks))
        for toks in [
            (),
            (gen_token("s", 1),),
            (gen_token("t", 1),),
            (gen_token("s", 1), gen_token("t", 1)),
        ]
    }
    ids = {ball.vertex_ids[k] for k in base_square_corners}
    twisted = dict(
        toks=(u_token(2), gen_token("s", 1), gen_token("t", 1)),
    )
    moved = engine.from_tokens(twisted["toks"])
    moved_id = ball.vertex_ids[engine.coset_rep(moved)]
    expected_pair = False
    for a, b, shared in pockets:
        sets = {frozenset(a.corners), frozenset(b.corners)}
        if frozenset(ids) in sets:
            other = next(s for s in sets if s != frozenset(ids))
            if moved_id in other:
                expected_pair = True
    assert expected_pair


def test_pockets_absent_automorphic_and_trivial():
    assert not detect_pockets(build_ball(S3A3, EDGE, 2))
    for graph in (EDGE, complete_graph("abc"), cycle_graph("abcd")):
        assert not detect_pockets(build_ball(TrivialModel(), graph, 2))


def test_links_flag_and_face_condition():
    rep = check_links(build_ball(S3A3, EDGE, 2))
    assert rep["all_links_flag"] and rep["face_condition"]
    rep = check_links(build_ball(TrivialModel(), complete_graph("abc"), 3))
    assert rep["all_links_flag"] and rep["face_condition"]
    ball = build_ball(SM2, EDGE, 2)
    rep = check_links(ball)
    assert not rep["face_condition"]
    assert detect_pockets(ball)


def test_pockets_iff_face_condition_fails():
    cases = [
        (S3A3, EDGE, 2),
        (TrivialModel(), EDGE, 2),
        (TrivialModel(), cycle_graph("abcd"), 2),
        (SM2, EDGE, 2),
        (SM2, single_vertex("s"), 2),
    ]
    for model, graph, r in cases:
        ball = build_ball(model, graph, r)
        ok, _ = common_face_check(ball)
        assert ok == (not detect_pockets(ball))


@pytest.mark.parametrize(
    "model, graph, radius",
    TABLE_BALLS + [(SM2, complete_graph("abc"), 2)],
    ids=TABLE_IDS + ["shift2-k3"],
)
def test_face_mask_test_matches_face_enumeration(model, graph, radius):
    # every pair of cubes sharing a vertex: the shared corners pass the mask
    # test of a cube iff they are the vertex set of one of its 3^d faces
    ball = build_ball(model, graph, radius)
    masks = [{v: m for m, v in enumerate(c.corners)} for c in ball.cubes]
    faces = [cube_faces(c) for c in ball.cubes]
    by_vertex = {}
    for i, c in enumerate(ball.cubes):
        for v in c.corners:
            by_vertex.setdefault(v, []).append(i)
    pairs = {p for owners in by_vertex.values() for p in itertools.combinations(owners, 2)}
    outcomes = set()
    for i, j in pairs:
        shared = masks[i].keys() & masks[j].keys()
        for k in (i, j):
            spans = _spans_face(masks[k], shared)
            assert spans == (frozenset(shared) in faces[k])
            outcomes.add(spans)
    assert outcomes == ({True, False} if detect_pockets(ball) else {True})


def _pockets_all_pairs(ball):
    # reference: every pair of squares compared through their face sets
    squares = [c for c in ball.cubes if c.dim == 2]
    edge_sets = [{f for f in cube_faces(c) if len(f) == 2} for c in squares]
    pockets = []
    for i, j in itertools.combinations(range(len(squares)), 2):
        shared = edge_sets[i] & edge_sets[j]
        if len(shared) != 2:
            continue
        e1, e2 = shared
        if e1 & e2:
            pockets.append((squares[i], squares[j], tuple(sorted(map(sorted, shared)))))
    return pockets


def test_pockets_match_all_pairs_scan():
    cases = [
        (SM2, EDGE, 4),
        (SM2, cycle_graph("abcd"), 2),
        (ShiftModel(3), EDGE, 3),
        (ShiftModel(3), path_graph("pqr"), 2),
    ]
    for model, graph, r in cases:
        ball = build_ball(model, graph, r)
        pockets = detect_pockets(ball)
        assert pockets
        assert pockets == _pockets_all_pairs(ball)
    # in the balls above every pocket shares the edges at its base corner;
    # this pair shares the two edges at its top corner instead
    squares = [Cube(2, ("s", "t"), c) for c in ((0, 1, 2, 3), (4, 1, 2, 3))]
    top_pair = SimpleNamespace(cubes=squares)
    assert detect_pockets(top_pair) == _pockets_all_pairs(top_pair) != []


def _face_check_all_pairs(ball):
    # reference: every pair of cubes, 0-cubes included, compared through
    # their face sets; the witness is the failing pair least by (least
    # shared corner, first cube, second cube)
    faces = [cube_faces(c) for c in ball.cubes]
    corners = [frozenset(c.corners) for c in ball.cubes]
    failing = []
    for i, j in itertools.combinations(range(len(ball.cubes)), 2):
        shared = corners[i] & corners[j]
        if shared and not (shared in faces[i] and shared in faces[j]):
            failing.append((min(shared), i, j))
    if not failing:
        return True, None
    _, i, j = min(failing)
    return False, (sorted(ball.cubes[i].corners), sorted(ball.cubes[j].corners))


@pytest.mark.parametrize(
    "model, graph, radius",
    [(SM2, EDGE, 2), (SM2, EDGE, 4), (ShiftModel(3), path_graph("pqr"), 2),
     (S3A3, EDGE, 2), (S3A3, EDGE, 3), (S3A3, complete_graph("abc"), 2)],
    ids=["shift2-edge-r2", "shift2-edge-r4", "shift3-path3-r2", "s3a3-edge-r2", "s3a3-edge-r3", "s3a3-k3-r2"],
)
def test_common_face_check_matches_all_pairs_scan(model, graph, radius):
    ball = build_ball(model, graph, radius)
    assert common_face_check(ball) == _face_check_all_pairs(ball)


def test_no_interior_vertices_raises():
    with pytest.raises(NoInteriorVertices):
        check_links(build_ball(S3A3, EDGE, 1))


def test_link_of_interior_vertex_shape():
    # trivial model, K3: the universal cover is R^3's cubing restricted to
    # the triangle directions; the link of the base is a flag complex
    ball = build_ball(TrivialModel(), complete_graph("abc"), 3)
    link = vertex_link(ball, 0)
    assert link is not None and link.is_flag()
    assert len(link.vertex_set()) == 6


@pytest.mark.parametrize("model, graph, radius", TABLE_BALLS, ids=TABLE_IDS)
def test_links_in_one_pass_match_a_scan_per_vertex(model, graph, radius):
    ball = build_ball(model, graph, radius)
    vertices = list(range(ball.n_vertices))
    expected = [link_by_scan(ball, v) for v in vertices]
    assert _vertex_links(ball, vertices) == expected
    assert [vertex_link(ball, v) for v in vertices[:10]] == expected[:10]
    interior = ball.interior_vertices()
    if interior:
        assert check_links(ball)["links"] == [
            {"vertex": v, "flag": expected[v].is_flag() if expected[v] else True} for v in interior
        ]


def test_nerve_automorphic_chordal():
    ball = build_ball(S3A3, EDGE, 2)
    ng = nerve_graph(ball)
    assert len(ng.vertices) >= 3
    assert is_chordal(ng)[0]


def test_nerve_shift_complete():
    ball = build_ball(SM2, EDGE, 2)
    ng = nerve_graph(ball)
    n = len(ng.vertices)
    assert n >= 3
    assert len(ng.edges) == n * (n - 1) // 2


def test_nerve_trivial_single_node():
    ball = build_ball(TrivialModel(), EDGE, 2)
    ng = nerve_graph(ball)
    assert len(ng.vertices) == 1


def test_export_roundtrip(tmp_path):
    ball = build_ball(SM2, EDGE, 1)
    path = tmp_path / "ball.json"
    export_ball(ball, path)
    data = json.loads(path.read_text())
    assert len(data["vertices"]) == 7
    assert data["meta"]["radius"] == 1
    assert data["meta"]["model"] == {"kind": "shift", "m": 2}
    # deterministic output
    export_ball(build_ball(SM2, EDGE, 1), tmp_path / "ball2.json")
    assert (tmp_path / "ball2.json").read_text() == path.read_text()


@pytest.mark.parametrize(
    "model, graph, radius",
    WALK_BALLS + [
        (SM2, validate_graph({"vertices": ["é", '"b'], "edges": [["é", '"b']]}), 2),
        (S3A3, edgeless_graph(""), 0),
    ],
    ids=WALK_IDS + ["shift2-escaped-labels", "s3a3-empty-r0"],
)
def test_export_matches_indented_dumps(tmp_path, model, graph, radius):
    # the record-by-record writer against the pure-Python encoder, with
    # 0-cubes' empty "type" lists, labels that need escaping and a
    # one-vertex ball on the empty graph
    ball = build_ball(model, graph, radius)
    export_ball(ball, tmp_path / "ball.json")
    expected = json.dumps(ball_json(ball), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "ball.json").read_text(encoding="utf-8") == expected


def test_export_keeps_explicit_transversal(tmp_path):
    # a chosen transversal changes the ball, so the model JSON carries it,
    # and a model rebuilt from that JSON exports the same bytes
    cfg = {**S3A3.to_json(), "coset_reps": [[0, 1, 2], [1, 0, 2]]}
    assert "coset_reps" not in S3A3.to_json()
    m = model_from_config(cfg)
    assert m.to_json() == cfg
    again = model_from_config(m.to_json())
    assert again.transversal_R() == m.transversal_R()
    paths = [tmp_path / f"{name}.json" for name in ("given", "again", "canonical")]
    for model, path in zip((m, again, S3A3), paths):
        export_ball(build_ball(model, EDGE, 2), path)
    given, again_bytes, canonical = (p.read_bytes() for p in paths)
    assert given == again_bytes
    assert given != canonical
    assert json.loads(given)["meta"]["model"] != json.loads(canonical)["meta"]["model"]


def test_edgeless_tree_ball_general_finite_model():
    # a finite model with phi(O) != O still builds Bass-Serre trees
    t12 = perm_from_cycles(3, [[0, 1]])
    t13 = perm_from_cycles(3, [[0, 2]])
    m = FiniteModel(3, S3A3.u_gens, [t12], [t13])
    ball = build_ball(m, edgeless_graph("st"), 1)
    # degree: 2 generators * (|U:phiO| + |U:O|) = 2 * (3 + 3) = 12
    assert len(skeleton_neighbours(ball)[0]) == cayley_abels_degree(m, edgeless_graph("st")) == 12
    assert not detect_pockets(ball)

"""Finite balls of the coset cube complex of a (model, graph) pair, and the
apartment/valley analysis living on them.

The complex has one vertex per coset gU and one d-cube per pair (g, T) with T
a d-clique of the graph, spanning the corners g t1^e1 ... td^ed U.  A ball of
radius r is the full subcomplex on the vertices at 1-skeleton distance at
most r from the base vertex U: a cube is attached iff all its corners are in.

Apartments are the translates n * (base apartment) of the embedded standard
complex of the Artin group; their pairwise intersections are classified
exactly (empty / vertices only / union of valleys) and cross-checked against
brute-force fixed-cell enumeration by the verification suites.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from . import words as W
from .errors import (
    EmptyWindow,
    InfiniteStabiliser,
    NoInteriorVertices,
    NotInDomain,
    RegimeMismatch,
    ResourceCap,
)
from .graphs import Graph, SimplicialComplex, cliques, validate_graph
from .models import INFINITE, BaseModel
from .elements import Engine, engine_for, gen_token, u_token

DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_CUBE_CAP = 10_000_000


@dataclass(frozen=True)
class Cube:
    dim: int
    ctype: tuple[str, ...]           # sorted clique
    corners: tuple[int, ...]         # vertex ids indexed by subset bitmask of ctype
    rep: object = field(compare=False, default=None)  # c: the cube is r_corners[0] c Q_ctype


class CubeBall:
    def __init__(self, model, graph, radius, engine):
        self.model: BaseModel = model
        self.graph: Graph = graph
        self.radius: int = radius
        self.engine: Engine = engine
        self.vertex_reps = []            # canonical coset representatives
        self.vertex_ids = {}             # canonical coset representative -> id
        self.dist = []
        self.exponent = []
        self.cubes: list[Cube] = []
        self.cube_ids: dict[tuple[int, ...], int] = {}   # corner tuple -> cube index
        # coset table, the only record of the edges: table[v][(u, t, sign)] = (w, x)
        # when r_v u t^sign = r_w x with x in U, None when that coset is outside
        self.table: list[dict] = []
        self.apartment_trace = None      # (words -> ids, cubes), built on demand

    # -- construction helpers ----------------------------------------------
    def _add_vertex(self, rep, d, e):
        """New vertex rep U at distance d and exponent e, rep canonical."""
        vid = len(self.vertex_reps)
        self.vertex_ids[rep] = vid
        self.vertex_reps.append(rep)
        self.dist.append(d)
        self.exponent.append(e)
        self.table.append({})
        return vid

    def vertex_id_of(self, elem) -> int | None:
        """Id of the vertex (coset) containing the element, if in the ball."""
        return self.vertex_ids.get(self.engine.coset_rep(elem))

    # -- views ---------------------------------------------------------------
    @property
    def n_vertices(self):
        return len(self.vertex_reps)

    def interior_vertices(self):
        """Vertices whose whole star (all incident cubes) is inside the ball."""
        margin = max(1, cliques(self.graph).max_size())
        return [v for v in range(self.n_vertices) if self.dist[v] + margin <= self.radius]

    def cells_for_homology(self):
        return [(c.dim, c.ctype, c.corners) for c in self.cubes]


def cayley_abels_degree(model: BaseModel, graph: Graph):
    """Vertex degree of the 1-skeleton: sum over generators of
    |U:phi(O)| + |U:O|; infinite when either index is."""
    per_gen = model.index_phiO() + model.index_O()
    return len(graph.vertices) * per_gen


def build_ball(
    model: BaseModel,
    graph: Graph,
    radius: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    cube_cap: int = DEFAULT_CUBE_CAP,
) -> CubeBall:
    """BFS the coset 1-skeleton to the given radius, recording every edge in
    the coset table, then attach every cube all of whose corners landed
    inside, each d-cube grown from one of its (d-1)-faces in the table
    (_attach_cubes).  A cube stores its transversal rep c, not its defining
    element; ball.cube_element(cube) multiplies that out on demand.

    A probe multiplies r_v by the tokens u and t^sign and splits the product
    r_v u t^sign = r_w x (engine.coset_split): vertices are keyed by their
    canonical representative r_w, and the table entry is (w, x).  A new
    vertex's exponent is its parent's plus the sign, since e(U) = 0.

    Each probe also fills the reverse entry (the deduction step of
    Todd-Coxeter coset enumeration): with x t^-sign = u' t^-sign c from
    model.left_split, r_w u' t^-sign = r_v u c^-1.  A letter already in a
    row is not probed.  Every edge changes the exponent by 1 and e(U) = 0,
    so the 1-skeleton is bipartite and adjacent vertices lie at distances
    differing by exactly 1: each in-ball edge of a vertex at the radius was
    deduced from its inner end, and the rest of its row is None without a
    probe.  The engine splits 1 + #edges cosets in all."""
    engine = engine_for(model, graph)
    ball = CubeBall(model, graph, radius, engine)
    ball._add_vertex(engine.coset_rep(engine.identity()), 0, 0)
    # radius 1 alone holds 1 + degree vertices: fail before listing the probes
    if radius >= 1 and 1 + cayley_abels_degree(model, graph) > vertex_cap:
        raise ResourceCap(f"vertex budget {vertex_cap} exhausted at radius 1")
    letters = [(u, t, sign) for t in graph.vertices for sign in (1, -1)
               for u in model.left_transversal(1 if sign == 1 else 0)]
    # vertex_reps grows while it is read: it is the BFS queue
    for vid, here in enumerate(ball.vertex_reps):
        d = ball.dist[vid]
        row = ball.table[vid]
        if d == radius:
            for letter in letters:
                row.setdefault(letter, None)
            continue
        for u, t, sign in letters:
            if (u, t, sign) in row:
                continue
            probe = engine.mul_token(engine.mul_token(here, u_token(u)), gen_token(t, sign))
            rep, x = engine.coset_split(probe)
            wid = ball.vertex_ids.get(rep)
            if wid is None:
                if ball.n_vertices >= vertex_cap:
                    raise ResourceCap(f"vertex budget {vertex_cap} exhausted at radius {d + 1}")
                wid = ball._add_vertex(rep, d + 1, ball.exponent[vid] + sign)
            row[u, t, sign] = (wid, x)
            back, c = model.left_split(x, -sign)
            reverse = ball.table[wid]
            if (back, t, -sign) in reverse:
                raise AssertionError("coset table entry deduced twice; engine inconsistency")
            reverse[back, t, -sign] = (vid, model.mul(u, model.inv(c)))
    _attach_cubes(ball, cube_cap)
    return ball


def _attach_cubes(ball: CubeBall, cube_cap: int):
    """Attach every cube of the ball, one dimension at a time, each d-cube
    grown from a (d-1)-face that is already attached.

    A cube (v, c, T) is r_v c Q_T, c in left_transversal(|T|); its corner of
    mask S is the vertex w_S of the state (w_S, y_S) with r_v c t_S = r_w y_S.
    The 1-cube of type t is the up-entry table[v][(c, t, +1)].  For d >= 2
    let t be the last letter of T and split c = c0 omega (_face_splits).
    Since omega t' = t' phi^-1(omega) for t' in T', the states of the face
    (v, c0, T - t) with y_S turned into y_S phi^-|S|(omega) are the first
    half, and the second half is those stepped once by t in the table.
    Cubes keep the order (type, v, position of c); the states of dimension
    d - 1 are dropped once dimension d is built."""
    model, table = ball.model, ball.table
    ident = model.identity()
    # vertices are the 0-cubes
    for vid in range(ball.n_vertices):
        ball.cube_ids[(vid,)] = len(ball.cubes)
        ball.cubes.append(Cube(0, (), (vid,), ident))

    def attach(d, ctype, c, states):
        corners = tuple([w for w, _ in states])
        if len(set(corners)) != len(corners):
            raise AssertionError("cube corners collapsed; engine inconsistency")
        # each cube comes from its least-exponent corner and one rep c
        if corners in ball.cube_ids:
            raise AssertionError("one cube attached twice; engine inconsistency")
        if len(ball.cubes) >= cube_cap:
            raise ResourceCap(f"cube budget {cube_cap} exhausted")
        ball.cube_ids[corners] = len(ball.cubes)
        ball.cubes.append(Cube(d, ctype, corners, c))

    by_dim = {}                          # nonempty() lists the cliques by size
    for clique in cliques(ball.graph).nonempty():
        by_dim.setdefault(len(clique), []).append(tuple(sorted(clique, key=ball.graph.order.get)))
    top = max(by_dim, default=0)
    faces = {}                           # ctype -> {v: {c: states}} of the last dimension
    for d, ctypes in by_dim.items():
        grown = {}
        if d == 1:
            for ctype in ctypes:
                here = grown[ctype] = {}
                ups = [(c, (c, ctype[0], 1)) for c in model.left_transversal(1)]
                for vid, row in enumerate(table):
                    for c, up in ups:
                        entry = row[up]
                        if entry is not None:
                            states = [(vid, c), entry]
                            attach(1, ctype, c, states)
                            if d < top:
                                here.setdefault(vid, {})[c] = states
        else:
            splits = _face_splits(model, d)
            for ctype in ctypes:
                t = ctype[-1]
                here = grown[ctype] = {}
                for vid, below in faces[ctype[:-1]].items():
                    for c, c0, lift in splits:
                        face = below.get(c0)
                        if face is None:
                            continue
                        if lift is not None:
                            face = [(w, model.mul(y, z)) for (w, y), z in zip(face, lift)]
                        states = list(face)
                        for w, y in face:
                            state = _table_step(ball, w, y, t)
                            if state is None:
                                break
                            states.append(state)
                        else:
                            attach(d, ctype, c, states)
                            if d < top:
                                here.setdefault(vid, {})[c] = states
        faces = grown


def _face_splits(model: BaseModel, d: int):
    """(c, c0, lift) for each c in left_transversal(d), in order: c = c0 omega
    with c0 in left_transversal(d - 1) and omega in phi^{d-1}(O), and
    lift[mask] = phi^-|S|(omega) for the subset S of a (d-1)-clique with
    that mask, or None when omega is trivial.  omega is in phi^{d-1}(O) iff
    phi_power(omega, 1 - d) is defined."""
    ident = model.identity()
    out = []
    for c in model.left_transversal(d):
        for c0 in model.left_transversal(d - 1):
            omega = model.mul(model.inv(c0), c)
            try:
                lifts = [model.phi_power(omega, -k) for k in range(d)]
            except NotInDomain:
                continue
            lift = None if omega == ident else [lifts[m.bit_count()] for m in range(1 << (d - 1))]
            out.append((c, c0, lift))
            break
        else:
            raise AssertionError("left transversal failed to cover U")
    return out


def _table_step(ball: CubeBall, w, y, t):
    """The state (w', y') with r_w y t = r_w' y', or None outside the ball:
    y t = rep t conj, and the table entry of (rep, t) is (w', x)."""
    rep, conj = ball.model.left_split(y, 1)
    entry = ball.table[w][rep, t, 1]
    return entry and (entry[0], ball.model.mul(entry[1], conj))


# -- stabilisers -------------------------------------------------------------

def stabiliser_formula_set(ball: CubeBall, cube: Cube):
    """g phi^{|T|}(O) g^{-1} for finite models in U-coordinates, the u with
    g u g^{-1} in it, where g = r_v c defines the cube (v = cube.corners[0],
    c = cube.rep): all of U for a vertex, phi^{|T|}(O) for a positive cube."""
    model = ball.model
    if not hasattr(model, "U"):
        raise InfiniteStabiliser("stabiliser sets need a finite model")
    return model.U if cube.dim == 0 else model.phi_k_O(cube.dim)


def stabiliser_bruteforce(ball: CubeBall, cube: Cube):
    """The u in U with g u g^{-1} fixing every corner g t_S U, g as above:
    the table walk from (v, c u) reaches cube.corners[mask] for every mask,
    each one stepped from the mask without its top bit, so a walk leaves the
    ball only after missing a corner.  The empty mask's corner gU has
    stabiliser gUg^{-1}, so this is the whole pointwise stabiliser."""
    model = ball.model
    if not hasattr(model, "U"):
        raise InfiniteStabiliser("brute-force stabilisers need a finite model")
    corners, ctype = cube.corners, cube.ctype
    out = set()
    for u in model.U:
        states = [(corners[0], model.mul(cube.rep, u))]
        for mask in range(1, len(corners)):
            top = mask.bit_length() - 1
            state = _table_step(ball, *states[mask ^ (1 << top)], ctype[top])
            if state is None or state[0] != corners[mask]:
                break
            states.append(state)
        else:
            out.add(u)
    return out


# -- apartments and intersections ---------------------------------------------

def apartment_of_vertex(ball: CubeBall, vid: int):
    """Handle of the canonical apartment through this vertex."""
    rep = ball.vertex_reps[vid]
    n = ball.engine.n_part(rep)
    return ball.engine.apartment_key(n)


def enumerate_apartments(ball: CubeBall):
    """Handles with one witness n-part element each, sorted by handle."""
    engine = ball.engine
    found = {}
    for vid in range(ball.n_vertices):
        n = engine.n_part(ball.vertex_reps[vid])
        found.setdefault(engine.apartment_key(n), n)
    return [found[k] for k in sorted(found)]


@dataclass(frozen=True)
class IntersectionClass:
    """Trichotomy for (base apartment) meet n * (base apartment).

    tag is one of "empty", "vertices", "valleys".  For "vertices" the unique
    vertex is recorded as an Artin word (automorphic regime).  For "valleys"
    the latitude is an integer, or None when the apartments coincide.
    """

    tag: str
    vertex: W.Word | None = None
    latitude: object = None

    def is_empty(self):
        return self.tag == "empty"


def classify_intersection(model: BaseModel, graph: Graph, n) -> IntersectionClass:
    return classify_with_engine(engine_for(model, graph), n)


def classify_with_engine(engine: Engine, n) -> IntersectionClass:
    if engine.regime == "automorphic":
        return _classify_automorphic(engine, n)
    if engine.regime == "semidirect":
        return _classify_semidirect(engine, n)
    raise RegimeMismatch("intersection classification needs phi(O) <= O")


def _classify_automorphic(engine: Engine, n) -> IntersectionClass:
    model = engine.model
    if engine.a_part(n):
        raise ValueError("classification takes elements of the normal closure")
    if n.length == 0:
        if model.in_O(n.head):
            # n fixes the base apartment pointwise
            return IntersectionClass("valleys", latitude=None)
        return IntersectionClass("vertices", vertex=())
    if n.length == 2:
        # a1 a2 = a_part(n) = 1, so a2 is the canonical inverse of a1
        (a1, u1), (_, u2) = n.tail
        ident = model.identity()
        if model.in_O(n.head) and u2 == ident and u1 != ident:
            return IntersectionClass("vertices", vertex=a1)
    return IntersectionClass("empty")


def _classify_semidirect(engine, n) -> IntersectionClass:
    lat = engine.latitude(n)
    if lat is INFINITE:
        return IntersectionClass("valleys", latitude=None)
    return IntersectionClass("valleys", latitude=lat)


def base_apartment_trace(ball: CubeBall):
    """Cells of the base apartment inside the ball, cached on the ball.

    Returns (vertices, cubes) where vertices maps an Artin word b to the ball
    vertex id of bU and cubes lists (b, ctype, cube_id).
    """
    if ball.apartment_trace is not None:
        return ball.apartment_trace
    engine = ball.engine
    graph = ball.graph
    table = _artin_ball(graph, ball.radius)
    # a word of length <= radius spells a path of that length from U
    verts = {
        word: ball.vertex_id_of(engine.from_tokens(tuple(gen_token(g, e) for g, e in word)))
        for word in table
    }
    # the ball is the full subcomplex on its vertices: it holds every cube
    cubes = [(word, ctype, ball.cube_ids[corner_ids])
             for word, ctype, corner_ids in _window_cubes(graph, table, verts)]
    ball.apartment_trace = (verts, cubes)
    return ball.apartment_trace


def trace_names(ball: CubeBall, a):
    """coset_rep(a r) over the ball representatives r of the trace vertices,
    in trace order: a^-1 b fixes rU iff a rU = b rU, iff the names agree."""
    engine = ball.engine
    verts, _ = base_apartment_trace(ball)
    return [engine.coset_rep(engine.mul(a, ball.vertex_reps[vid])) for vid in verts.values()]


def brute_force_fixed_cells(ball: CubeBall, names_a, names_b):
    """Cells of the base apartment trace fixed pointwise by a^-1 b, read off
    the trace names of a and b; the oracle side of the trichotomy check."""
    verts, cubes = base_apartment_trace(ball)
    fixed_vertices = {word for word, x, y in zip(verts, names_a, names_b) if x == y}
    fixed_ids = {verts[word] for word in fixed_vertices}
    # a cube has at least two corners: most pairs fix none and skip the scan
    fixed_cubes = [
        (word, ctype, cid)
        for word, ctype, cid in cubes
        if fixed_ids.issuperset(ball.cubes[cid].corners)
    ] if len(fixed_ids) > 1 else []
    return fixed_vertices, fixed_cubes


# -- valleys -------------------------------------------------------------------

def valley_cells(
    graph: Graph, latitude: int, e_range, word_radius: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP, cube_cap: int = DEFAULT_CUBE_CAP,
):
    """Cubes bQ_T of the standard apartment with e(b) + |T| <= latitude,
    windowed to |b| <= word_radius and e(b) inside e_range.

    Returns (vertices, cubes): vertices is a dict word -> id over the window,
    ids in (length, word) order; cubes are (dim, ctype, corner-ids) records
    forming a complex closed under faces (a cube enters iff all its corners
    are window vertices), each generated once from its least-exponent corner
    b.  The caps bound the word ball and the window cells.
    """
    lo, hi = e_range
    if lo > hi or word_radius < 0:
        raise EmptyWindow(f"window e-range {e_range} x radius {word_radius} is empty")
    table = _artin_ball(graph, word_radius, vertex_cap)
    exps = {}
    for b in table:
        e = W.exponent(b)
        if e <= latitude and lo <= e <= hi:
            exps[b] = e
    verts = {b: i for i, b in enumerate(sorted(exps, key=lambda w: (len(w), w)))}
    cubes = []
    for _, ctype, ids in _window_cubes(graph, table, verts):
        if len(verts) + len(cubes) >= cube_cap:
            raise ResourceCap(f"valley window cube budget {cube_cap} exhausted")
        cubes.append((len(ctype), ctype, ids))
    cubes.extend((0, (), (vid,)) for vid in verts.values())
    return verts, cubes


def _window_cubes(graph: Graph, table, verts):
    """(b, ctype, corner ids) for every positive-dimensional cube bQ_T all
    of whose corners are keys of verts (word -> id), by b in verts order,
    then T in cliques(graph).nonempty() order.  The corners of bQ_T by
    subset bitmask are those of its face bQ_{T - t}, t last in T, followed
    by each of them times t in the letter table, so a cube grows from the
    face found just before it at b and is dropped at its first corner
    outside verts."""
    ctypes = [tuple(sorted(c, key=graph.order.get)) for c in cliques(graph).nonempty()]
    for b in verts:
        found = {(): [b]}                # ctype -> corner words of bQ_ctype
        for ctype in ctypes:
            face = found.get(ctype[:-1])
            if face is None:
                continue
            letter = (ctype[-1], 1)
            corners = list(face)
            for w in face:
                w = table[w].get(letter)
                if w not in verts:
                    break
                corners.append(w)
            else:
                found[ctype] = corners
                yield b, ctype, tuple([verts[w] for w in corners])


def _artin_ball(graph: Graph, radius: int, vertex_cap: int = DEFAULT_VERTEX_CAP):
    """The words of length <= radius, each mapped to its row of the letter
    table: row[x] is the canonical form of w x for every letter x with w x in
    the ball.  The BFS computes w x once; the reverse entry (w x) x^-1 = w is
    recorded with it, so a letter that shortens a word is never multiplied
    out again.  Raises ResourceCap when the ball outgrows vertex_cap words."""
    letters = [(t, sign) for t in graph.vertices for sign in (1, -1)]
    table = {(): {}}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for b in frontier:
            row = table[b]
            for x in letters:
                if x in row:
                    continue
                w = W.multiply_letter(graph, b, x)
                if w not in table:
                    if len(table) >= vertex_cap:
                        raise ResourceCap(f"word ball vertex budget {vertex_cap} exhausted")
                    table[w] = {}
                    nxt.append(w)
                row[x] = w
                table[w][(x[0], -x[1])] = b
        frontier = nxt
    return table


# -- local geometry -------------------------------------------------------------

def detect_pockets(ball: CubeBall):
    """Unordered pairs of distinct squares sharing exactly two edges that meet
    in a common vertex; each witnesses a pair of distinct geodesics.  Squares
    are indexed by their four edges, so only squares sharing one are paired."""
    squares = [c for c in ball.cubes if c.dim == 2]
    by_edge = {}
    for i, c in enumerate(squares):
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            by_edge.setdefault(frozenset((c.corners[a], c.corners[b])), []).append(i)
    shared = {}
    for edge, owners in by_edge.items():
        for pair in itertools.combinations(owners, 2):
            shared.setdefault(pair, []).append(edge)
    return [
        (squares[i], squares[j], tuple(sorted(map(sorted, edges))))
        for (i, j), edges in sorted(shared.items())
        if len(edges) == 2 and edges[0] & edges[1]
    ]


def check_links(ball: CubeBall):
    """Flagness of interior vertex links plus the global common-face check."""
    interior = ball.interior_vertices()
    if not interior:
        raise NoInteriorVertices(
            f"radius {ball.radius} leaves no vertex with a full star"
        )
    link_reports = [
        {"vertex": v, "flag": link.is_flag() if link else True}
        for v, link in zip(interior, _vertex_links(ball, interior))
    ]
    face_ok, face_witness = common_face_check(ball)
    return {
        "links": link_reports,
        "all_links_flag": all(r["flag"] for r in link_reports),
        "face_condition": face_ok,
        "face_witness": face_witness,
    }


def vertex_link(ball: CubeBall, v: int) -> SimplicialComplex | None:
    """Link of a vertex: one (d-1)-simplex per d-cube cornered at v, with the
    incident edges as vertex labels."""
    return _vertex_links(ball, [v])[0]


def _vertex_links(ball: CubeBall, vertices) -> list[SimplicialComplex | None]:
    """vertex_link of each given vertex, from one pass over the cubes."""
    simplices = {v: set() for v in vertices}
    for c in ball.cubes:
        if c.dim == 0:
            continue
        for mask_v, v in enumerate(c.corners):
            found = simplices.get(v)
            if found is None:
                continue
            # edges of the cube at v: flip one coordinate of its corner bitmask
            edge_labels = [frozenset((v, c.corners[mask_v ^ (1 << i)])) for i in range(c.dim)]
            for k in range(1, c.dim + 1):
                found.update(map(frozenset, itertools.combinations(edge_labels, k)))
    return [SimplicialComplex(frozenset(simplices[v])) if simplices[v] else None for v in vertices]


def common_face_check(ball: CubeBall):
    """Every pair of cubes with common vertices must meet in a common face.

    One shared corner always spans a face, so 0-cubes are not paired and a
    pair meeting in one corner is not tested.  Every other pair is tested
    once, at its least shared corner; with the corners taken in id order,
    the first pair that fails is the witness."""
    # per vertex the positive cubes at it, in increasing id order; per cube corner -> mask
    by_vertex, masks = [[] for _ in range(ball.n_vertices)], []
    for idx, c in enumerate(ball.cubes):
        masks.append({v: m for m, v in enumerate(c.corners)})
        if c.dim:
            for v in c.corners:
                by_vertex[v].append(idx)
    for v, incident in enumerate(by_vertex):
        for i, j in itertools.combinations(incident, 2):
            shared = masks[i].keys() & masks[j].keys()
            if len(shared) > 1 and min(shared) == v and not (
                _spans_face(masks[i], shared) and _spans_face(masks[j], shared)
            ):
                return False, (sorted(ball.cubes[i].corners), sorted(ball.cubes[j].corners))
    return True, None


def _spans_face(mask_of, shared) -> bool:
    """Whether the corners in shared span a face of the cube whose corner
    masks mask_of gives: their masks fill the interval from their AND to
    their OR."""
    lo, hi = -1, 0
    for v in shared:
        lo &= mask_of[v]
        hi |= mask_of[v]
    return len(shared) == 1 << (hi ^ lo).bit_count()


def nerve_graph(ball: CubeBall) -> Graph:
    """Nerve of the apartments meeting the ball: one node per apartment,
    an edge when the pairwise intersection is non-empty."""
    engine = ball.engine
    witnesses = enumerate_apartments(ball)
    labels = [f"a{i}" for i in range(len(witnesses))]
    inverses = [engine.inv(w) for w in witnesses]
    edges = []
    for i, j in itertools.combinations(range(len(witnesses)), 2):
        diff = engine.mul(inverses[i], witnesses[j])
        cls = classify_with_engine(engine, diff)
        if not cls.is_empty():
            edges.append([labels[i], labels[j]])
    return validate_graph({"vertices": labels, "edges": edges})


_VERTEX_RECORD = '{\n      "dist": %d,\n      "exp": %d,\n      "id": %d,\n      "rep": %s\n    }'
_CUBE_RECORD = '{\n      "dim": %d,\n      "min_corner": %d,\n      "type": %s,\n      "verts": %s\n    }'


def _json_list(items, indent):
    """Chunks of the JSON list of already encoded items, laid out as
    json.dumps(indent=2) lays it out with its items at the given indent."""
    pad = "\n" + " " * indent
    opened = False
    for item in items:
        yield ("," if opened else "[") + pad + item
        opened = True
    yield "\n" + " " * (indent - 2) + "]" if opened else "[]"


def export_ball(ball: CubeBall, path):
    """Write the ball's vertex and cube records and its meta block, laid out
    byte for byte as json.dumps(indent=2, sort_keys=True) and a newline lay
    out the same data, one record at a time from the ball's lists: json.dumps
    with indent runs the pure-Python encoder, so it encodes only the strings
    and the small meta block here."""
    fmt = ball.engine.format
    vertices = (
        _VERTEX_RECORD % (d, e, v, json.dumps(fmt(rep)))
        for v, (rep, d, e) in enumerate(zip(ball.vertex_reps, ball.dist, ball.exponent))
    )
    cubes = (
        _CUBE_RECORD % (c.dim, c.corners[0], "".join(_json_list(map(json.dumps, c.ctype), 8)),
                        "".join(_json_list(map(str, sorted(c.corners)), 8)))
        for c in ball.cubes
    )
    meta = {"model": ball.model.to_json(), "graph": ball.graph.to_json(),
            "radius": ball.radius, "regime": ball.engine.regime}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "cubes": ')
        fh.writelines(_json_list(cubes, 4))
        fh.write(',\n  "meta": %s,\n  "vertices": '
                 % json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  "))
        fh.writelines(_json_list(vertices, 4))
        fh.write("\n}\n")

"""Verification suites: machine checks of the structural facts the engines
are built on, each reporting pass/fail per property with counterexamples.

These are the same checks the test suite runs, packaged for the CLI.
"""

from __future__ import annotations

import itertools
import random

from . import words as W
from .errors import ConfigError, RegimeMismatch
from .graphs import Graph, is_chordal
from .models import BaseModel
from .elements import (
    NormalSequence,
    act_word,
    engine_for,
    gen_token,
    to_normal_sequence,
    u_token,
    word_of,
)
from .complexes import (
    base_apartment_trace,
    brute_force_fixed_cells,
    build_ball,
    check_links,
    classify_with_engine,
    detect_pockets,
    enumerate_apartments,
    nerve_graph,
    stabiliser_bruteforce,
    stabiliser_formula_set,
    trace_names,
)
from .homology import clique_complex_homology, valley_homology_report
from .gradeddim import GradedDim, INF, euler_characteristic, hnn_euler, is_q_acyclic, kunneth, sb_homology


def random_word(graph: Graph, rng: random.Random, max_len=4, nonempty=False) -> W.Word:
    for _ in range(50):
        n = rng.randint(1 if nonempty else 0, max_len)
        w = W.normal_form(
            graph,
            tuple((rng.choice(graph.vertices), rng.choice((1, -1))) for _ in range(n)),
        )
        if w or not nonempty:
            return w
    raise AssertionError("could not sample a nontrivial word")


def random_normal_sequence(model: BaseModel, graph: Graph, rng: random.Random, max_n=3) -> NormalSequence:
    ident = model.identity()
    u_all = sorted(model.U)
    reps = list(model.transversal_R())
    nontrivial_reps = [r for r in reps if r != ident]
    n = rng.randint(0, max_n if nontrivial_reps else 0)
    head = rng.choice(u_all)
    tail = []
    for i in range(n):
        a = random_word(graph, rng, max_len=3, nonempty=True)
        if i < n - 1:
            u = rng.choice(nontrivial_reps)
        else:
            u = rng.choice(reps)
        tail.append((a, u))
    return NormalSequence(head, tuple(tail))


def _check(checks, name, ok, detail=None):
    entry = {"name": name, "pass": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    checks.append(entry)
    return ok


def suite_normal_form(model, graph, rng, samples=300) -> dict:
    """Rewriting-action identities and normal-form bijectivity."""
    if not graph.vertices:
        raise ConfigError("the normal-form suite needs a graph with at least one vertex")
    engine = engine_for(model, graph)
    if engine.regime != "automorphic":
        raise RegimeMismatch("the normal-form suite runs on automorphic models")
    checks = []
    o_elems = sorted(w for w in model.U if model.in_O(w))
    bad_inv = bad_phi = bad_comm = bad_round = 0
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    for _ in range(samples):
        sigma = random_normal_sequence(model, graph, rng)
        t = rng.choice(graph.vertices)
        sign = rng.choice((1, -1))
        # t^-1 (t sigma) = sigma and t (t^-1 sigma) = sigma
        fwd = act_word(model, graph, (gen_token(t, sign),), sigma)
        back = act_word(model, graph, (gen_token(t, -sign),), fwd)
        if back != sigma:
            bad_inv += 1
        # (t w) sigma = (phi(w) t) sigma for w in O
        w = rng.choice(o_elems)
        lhs = act_word(model, graph, (gen_token(t, 1), u_token(w)), sigma)
        rhs = act_word(model, graph, (u_token(model.phi(w)), gen_token(t, 1)), sigma)
        if lhs != rhs:
            bad_phi += 1
        # (s t) sigma = (t s) sigma on edges
        if edges:
            s_, t_ = rng.choice(edges)
            lhs = act_word(model, graph, (gen_token(s_, 1), gen_token(t_, 1)), sigma)
            rhs = act_word(model, graph, (gen_token(t_, 1), gen_token(s_, 1)), sigma)
            if lhs != rhs:
                bad_comm += 1
        if to_normal_sequence(model, graph, word_of(sigma)) != sigma:
            bad_round += 1
    _check(checks, "inverse letter identity", bad_inv == 0, f"{bad_inv} failures")
    _check(checks, "phi collection identity", bad_phi == 0, f"{bad_phi} failures")
    if edges:
        _check(checks, "edge commutation identity", bad_comm == 0, f"{bad_comm} failures")
    _check(checks, "round trip word(sigma) -> sigma", bad_round == 0, f"{bad_round} failures")
    return _finish("normal-form", checks, {"samples": samples})


def suite_stabilisers(ball) -> dict:
    checks = []
    mismatches = []
    for cube in ball.cubes:
        brute = stabiliser_bruteforce(ball, cube)
        formula = stabiliser_formula_set(ball, cube)
        if brute != formula:
            mismatches.append({"type": list(cube.ctype), "verts": sorted(cube.corners)})
    _check(
        checks,
        "brute-force stabiliser equals g phi^|T|(O) g^-1 on every cube",
        not mismatches,
        mismatches[:3] or f"{len(ball.cubes)} cubes checked",
    )
    return _finish("stabilisers", checks, {"cubes": len(ball.cubes)})


def suite_intersections(ball) -> dict:
    engine = ball.engine
    witnesses = enumerate_apartments(ball)
    checks = []
    disagree = []
    tags = {"empty": 0, "vertices": 0, "valleys": 0}
    # the oracle reads the trace names; the classification takes n = w_i^-1 w_j
    names = [trace_names(ball, w) for w in witnesses]
    inverses = [engine.inv(w) for w in witnesses]
    for i, j in itertools.combinations(range(len(witnesses)), 2):
        cls = classify_with_engine(engine, engine.mul(inverses[i], witnesses[j]))
        tags[cls.tag] += 1
        fixed_vertices, fixed_cubes = brute_force_fixed_cells(ball, names[i], names[j])
        ok = _intersection_matches(ball, cls, fixed_vertices, fixed_cubes)
        if not ok:
            disagree.append({"pair": (i, j), "tag": cls.tag})
    _check(
        checks,
        "classification agrees with brute-force fixed cells on every pair",
        not disagree,
        disagree[:3] or f"{len(witnesses)} apartments",
    )
    if engine.regime == "automorphic":
        _check(checks, "no valley intersections in the automorphic regime", tags["valleys"] == 0, tags)
    if engine.regime == "semidirect":
        _check(checks, "every intersection is a valley in the shift regime",
               tags["empty"] == 0 and tags["vertices"] == 0, tags)
    return _finish("intersections", checks, {"apartments": len(witnesses), "tags": tags})


def _intersection_matches(ball, cls, fixed_vertices, fixed_cubes) -> bool:
    verts, cubes = base_apartment_trace(ball)
    if cls.tag == "empty":
        return not fixed_vertices and not fixed_cubes
    if cls.tag == "vertices":
        # the unique fixed vertex, intersected with the window; no positive
        # dimensional cell may be fixed
        expected = {cls.vertex} & set(verts)
        return not fixed_cubes and set(fixed_vertices) == expected
    lat = cls.latitude
    if lat is None:
        # same apartment: everything in the trace is fixed
        return set(fixed_vertices) == set(verts) and len(fixed_cubes) == len(cubes)
    fixed_cube_keys = {(b, t) for b, t, _ in fixed_cubes}
    ok_v = all((W.exponent(w) <= lat) == (w in fixed_vertices) for w in verts)
    ok_c = all(
        (W.exponent(b) + len(t) <= lat) == ((b, t) in fixed_cube_keys)
        for b, t, _ in cubes
    )
    return ok_v and ok_c


def suite_nerve(ball) -> dict:
    ng = nerve_graph(ball)
    checks = []
    if ball.engine.regime == "automorphic":
        chordal, witness = is_chordal(ng)
        _check(checks, "apartment nerve is chordal", chordal, witness if not chordal else None)
    else:
        n = len(ng.vertices)
        complete = len(ng.edges) == n * (n - 1) // 2
        _check(checks, "apartment nerve is complete", complete, f"{n} nodes")
    return _finish("nerve", checks, {"nodes": len(ng.vertices), "edges": len(ng.edges)})


def suite_links(ball) -> dict:
    rep = check_links(ball)
    pockets = detect_pockets(ball)
    checks = []
    _check(
        checks,
        "face condition holds iff no pockets",
        rep["face_condition"] == (not pockets),
        {"pockets": len(pockets), "face_condition": rep["face_condition"]},
    )
    if ball.engine.regime in ("automorphic", "tree"):
        _check(checks, "interior links are flag", rep["all_links_flag"])
        _check(checks, "common-face condition holds", rep["face_condition"])
    return _finish("links", checks, {"interior": len(rep["links"])})


def suite_pockets(ball) -> dict:
    pockets = detect_pockets(ball)
    checks = []
    shrinking_with_squares = (
        ball.engine.regime == "semidirect" and bool(ball.graph.edges) and ball.radius >= 2
    )
    if shrinking_with_squares:
        _check(checks, "at least one pocket", len(pockets) >= 1, f"{len(pockets)} found")
        # the BFS numbers the base vertex U first
        witness = any(0 in a.corners and 0 in b.corners for a, b, _ in pockets)
        _check(checks, "a pocket hangs at the base vertex", witness)
    else:
        _check(checks, "no pockets", not pockets, f"{len(pockets)} found")
    return _finish("pockets", checks, {"pockets": len(pockets)})


def suite_valleys(graph, latitude, window, vertex_cap, cube_cap) -> dict:
    rep = valley_homology_report(graph, latitude, window, vertex_cap=vertex_cap, cube_cap=cube_cap)
    lgh = clique_complex_homology(graph)
    checks = []
    pers = rep["persistent_reduced_betti"]
    _check(checks, "truncated valley is connected (persistent H0 = 0)", pers["0"] == 0, pers)
    expect_h1_zero = lgh.is_zero(1) and lgh.is_zero(0)
    got_h1_zero = pers["1"] == 0
    _check(
        checks,
        "persistent H1 vanishes iff the clique complex is 1-acyclic",
        expect_h1_zero == got_h1_zero,
        {"clique_complex": lgh.to_json()["degrees"], "valley": pers},
    )
    return _finish("valleys", checks, rep)


def suite_sb(n, rng, samples=200) -> dict:
    checks = []
    table = sb_homology(n)
    _check(checks, f"degree {n + 1} has countably infinite dimension", table[n + 1] is INF)
    _check(checks, "degrees above n+1 vanish", all(table[d] == 0 for d in range(n + 2, n + 12)))
    _check(checks, "degree 0 is one-dimensional", table[0] == 1)
    ok = True
    for _ in range(samples):
        a = _random_acyclic(rng)
        b = _random_acyclic(rng)
        if not is_q_acyclic(kunneth(a, b)):
            ok = False
            break
    _check(checks, "acyclic (x) acyclic stays acyclic", ok, f"{samples} samples")
    bs_table = GradedDim({0: 1, 1: 1})
    _check(
        checks,
        "euler bookkeeping matches the one-letter ascending extension",
        hnn_euler(1, 1, 1) == 0 == euler_characteristic(bs_table),
    )
    return _finish("sb", checks, {"n": n})


def _random_acyclic(rng) -> GradedDim:
    # acyclic tables are [1, 0, 0, ...]; dress some explicit zeros
    dims = {0: 1}
    for d in rng.sample(range(1, 8), rng.randint(0, 3)):
        dims[d] = 0
    return GradedDim(dims)


def _finish(name, checks, meta) -> dict:
    return {
        "suite": name,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "meta": meta,
    }


BALL_SUITES = {
    "stabilisers": suite_stabilisers,
    "intersections": suite_intersections,
    "nerve": suite_nerve,
    "links": suite_links,
    "pockets": suite_pockets,
}
SUITES = ("normal-form", *BALL_SUITES, "valleys", "sb")


def run_suite(
    name, model=None, graph=None, radius=2, n=3, rng=None, latitude=0, window=4,
    *, vertex_cap, cube_cap,
) -> dict:
    """Run one suite; the ball suites build their ball under the given caps."""
    rng = rng or random.Random(0)
    if name == "sb":
        return suite_sb(n, rng)
    if graph is None:
        raise ConfigError(f"suite {name!r} needs --graph")
    if name == "valleys":
        return suite_valleys(graph, latitude, window, vertex_cap, cube_cap)
    if model is None:
        raise ConfigError(f"suite {name!r} needs --model")
    if name == "normal-form":
        return suite_normal_form(model, graph, rng)
    if name in BALL_SUITES:
        ball = build_ball(model, graph, radius, vertex_cap=vertex_cap, cube_cap=cube_cap)
        return BALL_SUITES[name](ball)
    raise RegimeMismatch(f"unknown suite {name!r}")

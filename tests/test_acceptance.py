"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every check pins its stated sample size and tolerance (all checks
here are exact).
"""

import itertools
import random

from oracles import AmalgamNormalizer, bs_words_equal, rank_over_Q, skeleton_neighbours
from topraag import words as W
from topraag.graphs import (
    complete_graph,
    cycle_graph,
    edge_graph,
    path_graph,
    single_vertex,
    is_chordal,
)
from topraag.gradeddim import GradedDim, INF, euler_characteristic, hnn_euler, is_q_acyclic, kunneth, sb_homology
from topraag.homology import (
    chain_complex,
    homology_of_cells,
    smith_normal_form,
    valley_homology_report,
)
from topraag.models import ShiftModel, TrivialModel, s3_a3_model
from topraag.elements import (
    act_word,
    engine_for,
    gen_token,
    to_normal_sequence,
    u_token,
    word_of,
)
from topraag.semidirect import SemidirectEngine, random_semidirect_tokens
from topraag.complexes import (
    base_apartment_trace,
    brute_force_fixed_cells,
    build_ball,
    cayley_abels_degree,
    check_links,
    classify_with_engine,
    detect_pockets,
    enumerate_apartments,
    nerve_graph,
    stabiliser_bruteforce,
    stabiliser_formula_set,
    trace_names,
)
from topraag.verification import random_normal_sequence

EDGE = edge_graph()
C4 = cycle_graph("abcd")
K3 = complete_graph("uvw")
S3A3 = s3_a3_model()
SM2 = ShiftModel(2)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_rewriting_action_identities():
    rng = random.Random(101)
    failures = 0
    total = 0
    for graph in (EDGE, C4):
        edges = sorted(tuple(sorted(e)) for e in graph.edges)
        o_elems = sorted(S3A3.O)
        for _ in range(500):
            total += 1
            sigma = random_normal_sequence(S3A3, graph, rng)
            t = rng.choice(graph.vertices)
            sign = rng.choice((1, -1))
            fwd = act_word(S3A3, graph, (gen_token(t, sign),), sigma)
            if act_word(S3A3, graph, (gen_token(t, -sign),), fwd) != sigma:
                failures += 1
            w = rng.choice(o_elems)
            lhs = act_word(S3A3, graph, (gen_token(t, 1), u_token(w)), sigma)
            rhs = act_word(S3A3, graph, (u_token(S3A3.phi(w)), gen_token(t, 1)), sigma)
            if lhs != rhs:
                failures += 1
            s_, t_ = rng.choice(edges)
            lhs = act_word(S3A3, graph, (gen_token(s_, 1), gen_token(t_, 1)), sigma)
            rhs = act_word(S3A3, graph, (gen_token(t_, 1), gen_token(s_, 1)), sigma)
            if lhs != rhs:
                failures += 1
    report(
        1,
        failures == 0 and total == 1000,
        f"action identities on {total} random normal sequences over edge and C4: {failures} failures",
    )


def test_criterion_02_normal_form_bijectivity():
    rng = random.Random(102)
    bad_round = 0
    for _ in range(1000):
        graph = rng.choice((EDGE, C4))
        sigma = random_normal_sequence(S3A3, graph, rng)
        if to_normal_sequence(S3A3, graph, word_of(sigma)) != sigma:
            bad_round += 1
    engine = engine_for(S3A3, EDGE)
    oracle = AmalgamNormalizer(S3A3, EDGE)
    letters = [u_token(u) for u in sorted(S3A3.U)] + [
        gen_token(t, e) for t in EDGE.vertices for e in (1, -1)
    ]
    by_engine = {}
    by_oracle = {}
    n_words = 0
    for n in range(5):
        for toks in itertools.product(letters, repeat=n):
            n_words += 1
            by_engine.setdefault(engine.key(engine.from_tokens(toks)), set()).add(toks)
            by_oracle.setdefault(oracle.normalize(toks), set()).add(toks)
    partitions_agree = sorted(map(sorted, by_engine.values())) == sorted(
        map(sorted, by_oracle.values())
    )
    report(
        2,
        bad_round == 0 and partitions_agree and n_words == 11111,
        f"round trip exact on 1000 sequences; engine/oracle equality partitions agree "
        f"on all {n_words} words of length <= 4 ({len(by_engine)} classes)",
    )


def test_criterion_03_intersection_trichotomy():
    results = []
    for model, radius, allowed in ((S3A3, 2, {"empty", "vertices"}), (SM2, 3, {"valleys"})):
        ball = build_ball(model, EDGE, radius)
        engine = ball.engine
        witnesses = enumerate_apartments(ball)
        names = [trace_names(ball, w) for w in witnesses]
        verts, cubes = base_apartment_trace(ball)
        pairs = agree = 0
        tags = set()
        for i, j in itertools.combinations(range(len(witnesses)), 2):
            pairs += 1
            n = engine.mul(engine.inv(witnesses[i]), witnesses[j])
            cls = classify_with_engine(engine, n)
            tags.add(cls.tag)
            fixed_v, fixed_c = brute_force_fixed_cells(ball, names[i], names[j])
            if cls.tag == "empty":
                ok = not fixed_v and not fixed_c
            elif cls.tag == "vertices":
                ok = not fixed_c and set(fixed_v) == ({cls.vertex} & set(verts))
            else:
                lat = cls.latitude
                ok = lat is not None
                ok = ok and all((W.exponent(w) <= lat) == (w in fixed_v) for w in verts)
                keys = {(b, t) for b, t, _ in fixed_c}
                ok = ok and all(
                    (W.exponent(b) + len(t) <= lat) == ((b, t) in keys)
                    for b, t, _ in cubes
                )
            agree += ok
        results.append((model.kind, pairs, agree, tags <= allowed))
    ok = all(p == a and t for _, p, a, t in results)
    report(
        3,
        ok,
        "trichotomy vs brute force: "
        + "; ".join(f"{k}: {a}/{p} pairs agree" for k, p, a, _ in results),
    )


def test_criterion_04_pocket_dichotomy():
    ball = build_ball(SM2, EDGE, 2)
    pockets = detect_pockets(ball)
    engine = ball.engine
    base_square = frozenset(
        ball.vertex_ids[engine.coset_rep(engine.from_tokens(t))]
        for t in [
            (),
            (gen_token("s", 1),),
            (gen_token("t", 1),),
            (gen_token("s", 1), gen_token("t", 1)),
        ]
    )
    doubled = frozenset(
        ball.vertex_ids[engine.coset_rep(engine.from_tokens((u_token(2),) + t))]
        for t in [
            (),
            (gen_token("s", 1),),
            (gen_token("t", 1),),
            (gen_token("s", 1), gen_token("t", 1)),
        ]
    )
    witness = any(
        {frozenset(a.corners), frozenset(b.corners)} == {base_square, doubled}
        for a, b, _ in pockets
    )
    clean = True
    # the link check needs an interior vertex: radius = top cube dimension
    for model, graph, r in [
        (S3A3, EDGE, 2),
        (TrivialModel(), EDGE, 2),
        (TrivialModel(), K3, 3),
        (TrivialModel(), C4, 2),
    ]:
        b = build_ball(model, graph, r)
        rep = check_links(b)
        clean = clean and not detect_pockets(b) and rep["all_links_flag"] and rep["face_condition"]
    report(
        4,
        len(pockets) >= 1 and witness and clean,
        f"shift ball has {len(pockets)} pockets incl. the doubling witness; "
        "automorphic and trivial balls are pocket-free with flag links",
    )


def test_criterion_05_degree_formula():
    expect = [
        (SM2, single_vertex("s"), 3),
        (SM2, EDGE, 6),
        (S3A3, EDGE, 8),
    ]
    ok = True
    for model, graph, degree in expect:
        ok = ok and cayley_abels_degree(model, graph) == degree
        ball = build_ball(model, graph, 2)
        neighbours = skeleton_neighbours(ball)
        for v in range(ball.n_vertices):
            if ball.dist[v] <= 1:
                ok = ok and len(neighbours[v]) == degree
    report(5, ok, "vertex degrees equal sum over generators of |U:phiO| + |U:O| (3, 6, 8)")


def test_criterion_06_nerve():
    ng_auto = nerve_graph(build_ball(S3A3, EDGE, 2))
    chordal, _ = is_chordal(ng_auto)
    ng_shift = nerve_graph(build_ball(SM2, EDGE, 2))
    n = len(ng_shift.vertices)
    complete = len(ng_shift.edges) == n * (n - 1) // 2
    report(
        6,
        chordal and complete,
        f"automorphic nerve on {len(ng_auto.vertices)} apartments is chordal; "
        f"shift nerve on {n} apartments is complete",
    )


def test_criterion_07_stabiliser_formula():
    ball = build_ball(S3A3, EDGE, 2)
    ok = all(
        stabiliser_bruteforce(ball, cube) == stabiliser_formula_set(ball, cube)
        for cube in ball.cubes
    )
    report(7, ok, f"brute-force = g phi^|T|(O) g^-1 on all {len(ball.cubes)} cubes (radius 2)")


def test_criterion_08_valley_connectivity():
    results = {}
    for name, graph in (("edge", EDGE), ("K3", K3), ("C4", C4)):
        rep = valley_homology_report(graph, 0, 4)
        results[name] = rep["persistent_reduced_betti"]
    ok = (
        all(results[n]["0"] == 0 for n in results)
        and results["edge"]["1"] == 0
        and results["K3"]["1"] == 0
        and results["C4"]["1"] > 0
    )
    report(
        8,
        ok,
        f"valleys at latitude 0, window 4 stabilised against 5: H0/H1 {results}",
    )


def test_criterion_09_homology_oracles():
    snf_ok = smith_normal_form([[2, 0], [0, 3]]).divisors == [1, 6]
    circle = [(0, (), (i,)) for i in range(4)] + [
        (1, ("x",), (0, 1)),
        (1, ("x",), (1, 2)),
        (1, ("x",), (2, 3)),
        (1, ("x",), (3, 0)),
    ]
    res = homology_of_cells(circle)
    circle_ok = res.betti == {0: 0, 1: 1} and not any(res.torsion.values())
    rng = random.Random(109)
    graphs = [EDGE, K3, C4, path_graph("pqr"), single_vertex("s")]
    models = [TrivialModel(), SM2, ShiftModel(3), S3A3]
    rank_ok = True
    dd_ok = True
    balls = 0
    while balls < 50:
        graph = rng.choice(graphs)
        model = rng.choice(models)
        radius = rng.randint(1, 2)
        try:
            ball = build_ball(model, graph, radius)
        except Exception:
            continue
        balls += 1
        cc = chain_complex(ball)  # dd = 0 verified on construction
        for d, bd in cc.boundaries.items():
            if d + 1 in cc.boundaries and bd.mul(cc.boundaries[d + 1]).nnz():
                dd_ok = False
            if smith_normal_form(bd).rank != rank_over_Q(bd):
                rank_ok = False
    report(
        9,
        snf_ok and circle_ok and rank_ok and dd_ok,
        f"SNF diag(2,3)->diag(1,6); circle H = [0, Z]; dd = 0 and Q-rank = SNF rank on {balls} random balls",
    )


def test_criterion_10_kunneth_and_sb():
    rng = random.Random(110)
    acyclic_ok = True
    for _ in range(1000):
        dims_a = {0: 1}
        dims_b = {0: 1}
        for d in rng.sample(range(1, 9), rng.randint(0, 4)):
            dims_a[d] = 0
        for d in rng.sample(range(1, 9), rng.randint(0, 4)):
            dims_b[d] = 0
        if not is_q_acyclic(kunneth(GradedDim(dims_a), GradedDim(dims_b))):
            acyclic_ok = False
    sb_ok = True
    for n in range(11):
        t = sb_homology(n)
        if t[n + 1] is not INF or any(t[d] != 0 for d in range(n + 2, n + 13)):
            sb_ok = False
    euler_ok = hnn_euler(1, 1, 1) == 0 == euler_characteristic(GradedDim({0: 1, 1: 1}))
    report(
        10,
        acyclic_ok and sb_ok and euler_ok,
        "acyclic (x) acyclic on 1000 samples; SB tables for n <= 10; "
        "euler formula matches the [1,1,0,...] table",
    )


def test_criterion_11_conjugation_agreement_and_britton():
    rng = random.Random(111)
    conj_ok = True
    checked = 0
    for graph in (EDGE, path_graph("pqr"), C4):
        eng = SemidirectEngine(SM2, graph)
        for _ in range(334):
            checked += 1
            u = rng.randint(-60, 60)
            keys = {
                eng.key(eng.from_tokens((gen_token(t, -1), u_token(u), gen_token(t, 1))))
                for t in graph.vertices
            }
            if len(keys) != 1:
                conj_ok = False
    pt = single_vertex("s")
    eng = SemidirectEngine(SM2, pt)
    britton_ok = True
    for _ in range(1000):
        t1 = random_semidirect_tokens(SM2, pt, rng, rng.randint(0, 6))
        t2 = random_semidirect_tokens(SM2, pt, rng, rng.randint(0, 6))
        if (eng.from_tokens(t1) == eng.from_tokens(t2)) != bs_words_equal(SM2, t1, t2):
            britton_ok = False
    report(
        11,
        conj_ok and britton_ok and checked >= 1000,
        f"g^-1 u g generator-independent on {checked} samples over edge/path-3/C4; "
        "Britton cross-check agrees on 1000 random word pairs",
    )

"""The shift-regime element engine and its two oracles: Britton reduction on
the one-letter sub-extension and conjugation agreement across generators."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import bs_word_reduce, bs_words_equal, cube_element
from topraag import words as W
from topraag.complexes import build_ball
from topraag.errors import RegimeMismatch
from topraag.graphs import cycle_graph, edge_graph, path_graph, single_vertex, validate_graph
from topraag.models import BaseModel, ShiftModel
from topraag.elements import engine_for, gen_token, parse_tokens, u_token
from topraag.semidirect import (
    SemidirectElement,
    SemidirectEngine,
    random_semidirect_tokens,
)

EDGE = edge_graph()
SM2 = ShiftModel(2)
# the oracles also run over composite shift factors, where Fraction's lowest
# terms (3/6 = 1/2) differ from the (k, u) spelling
SHIFTS = [SM2, ShiftModel(4), ShiftModel(6)]


def test_spec_examples():
    # s 1 s^-1 = 2 in U
    eng = SemidirectEngine(SM2, EDGE)
    g = eng.from_tokens(parse_tokens(SM2, EDGE, "s 1 s^-1"))
    assert g.n == 2 and g.a == ()
    # s^-1 1 s = one half
    g = eng.from_tokens(parse_tokens(SM2, EDGE, "s^-1 1 s"))
    assert g.n == Fraction(1, 2) and g.a == ()
    # (3, s) * (0, s^-1) = (3, 1)
    a = eng.make(3, W.single("s", 1))
    b = eng.make(0, W.single("s", -1))
    assert eng.mul(a, b) == eng.make(3, ())


def test_group_axioms_random():
    rng = random.Random(0)
    eng = SemidirectEngine(SM2, EDGE)
    for _ in range(300):
        x = eng.from_tokens(random_semidirect_tokens(SM2, EDGE, rng, rng.randint(0, 6)))
        y = eng.from_tokens(random_semidirect_tokens(SM2, EDGE, rng, rng.randint(0, 6)))
        z = eng.from_tokens(random_semidirect_tokens(SM2, EDGE, rng, rng.randint(0, 6)))
        assert eng.mul(eng.mul(x, y), z) == eng.mul(x, eng.mul(y, z))
        assert eng.mul(x, eng.inv(x)) == eng.identity()
        assert eng.mul(eng.identity(), x) == x


def test_invariance_under_defining_relations():
    # rewriting a word by a defining relation never changes its element
    rng = random.Random(1)
    eng = SemidirectEngine(SM2, EDGE)
    for _ in range(1000):
        toks = list(random_semidirect_tokens(SM2, EDGE, rng, rng.randint(0, 5)))
        pos = rng.randint(0, len(toks))
        kind = rng.random()
        t = rng.choice(EDGE.vertices)
        if kind < 0.4:
            w = rng.randint(-6, 6)
            lhs = [gen_token(t, 1), u_token(w), gen_token(t, -1)]
            rhs = [u_token(SM2.phi(w))]
        elif kind < 0.7:
            lhs = [gen_token("s", 1), gen_token("t", 1)]
            rhs = [gen_token("t", 1), gen_token("s", 1)]
        else:
            lhs = [gen_token(t, 1), gen_token(t, -1)]
            rhs = []
        w1 = toks[:pos] + lhs + toks[pos:]
        w2 = toks[:pos] + rhs + toks[pos:]
        assert eng.from_tokens(w1) == eng.from_tokens(w2)


def test_extended_exponent_and_parts():
    eng = SemidirectEngine(SM2, EDGE)
    g = eng.make(Fraction(1, 2), W.parse_word("s t"))
    assert eng.exponent(g) == 2
    assert eng.exponent(eng.from_tokens((u_token(9),))) == 0
    st = eng.from_tokens(parse_tokens(SM2, EDGE, "s 5"))
    n, a = eng.n_part(st), eng.a_part(st)
    assert a == W.single("s", 1)
    assert n.n == 10  # collection: s u = (s u s^-1) s


def test_latitude_values():
    assert SM2.latitude(6) == 1
    assert SM2.latitude(5) == 0
    assert SM2.latitude(Fraction(1, 4)) == -2
    assert SM2.latitude(0) == math.inf


def test_latitude_bruteforce():
    # eps(n) = max{ e in [-5,5] : n lies in s^e U s^-e }, checked by direct
    # membership: s^-e n s^e must be an integer
    rng = random.Random(2)
    for _ in range(300):
        k = rng.randint(0, 3)
        n = Fraction(rng.randint(-40, 40), SM2.m**k)
        if n == 0:
            continue
        best = None
        for e in range(-5, 6):
            if (n / Fraction(SM2.m) ** e).denominator == 1:
                best = e
        eps = SM2.latitude(n)
        assert -5 <= eps <= 5 and eps == best


def test_epsilon_symmetry_and_conjugation_shift():
    rng = random.Random(3)
    eng = SemidirectEngine(SM2, EDGE)
    for _ in range(200):
        k = rng.randint(0, 3)
        n = Fraction(rng.randint(-30, 30), SM2.m**k)
        if n == 0:
            continue
        assert SM2.latitude(n) == SM2.latitude(-n)
        # a O a^-1 = s^{e(a)} O s^{-e(a)}: membership via latitude
        a = tuple((rng.choice("st"), rng.choice((1, -1))) for _ in range(rng.randint(0, 4)))
        a_toks = tuple(gen_token(g, e) for g, e in a)
        conj = eng.mul(
            eng.mul(eng.from_tokens(a_toks), eng.make(n, ())),
            eng.inv(eng.from_tokens(a_toks)),
        )
        e_a = W.exponent(a)
        assert SM2.latitude(conj.n) == SM2.latitude(n) + e_a


def test_conjugation_agreement_across_generators():
    # g^-1 u g must be the same element for every generator g, on several
    # connected graphs and shift factors; this is the engine-level half of
    # the oracle
    rng = random.Random(4)
    for model, graph in itertools.product(SHIFTS, [EDGE, path_graph("pqr"), cycle_graph("abcd")]):
        eng = SemidirectEngine(model, graph)
        for _ in range(340):
            u = rng.randint(-50, 50)
            results = set()
            for t in graph.vertices:
                conj = eng.from_tokens(
                    (gen_token(t, -1), u_token(u), gen_token(t, 1))
                )
                results.add(eng.key(conj))
            assert len(results) == 1


def test_bs_reduce_examples():
    pt = single_vertex("s")
    toks = parse_tokens(SM2, pt, "s 1 s^-1")
    assert bs_word_reduce(SM2, toks) == (u_token(2),)
    toks = parse_tokens(SM2, pt, "s^-1 2 s")
    assert bs_word_reduce(SM2, toks) == (u_token(1),)
    toks = parse_tokens(SM2, pt, "s^-1 1 s")
    red = bs_word_reduce(SM2, toks)
    assert any(t[0] == "gen" for t in red)  # pinch-free, genuinely longer


def test_britton_cross_check_on_sub_hnn():
    # equality verdicts of the semidirect engine agree with pinch-only
    # Britton reduction over the single-letter sub-extension <U, s>
    rng = random.Random(5)
    pt = single_vertex("s")
    for model in SHIFTS:
        eng = SemidirectEngine(model, pt)
        for _ in range(1000):
            toks1 = random_semidirect_tokens(model, pt, rng, rng.randint(0, 6))
            toks2 = random_semidirect_tokens(model, pt, rng, rng.randint(0, 6))
            engine_equal = eng.from_tokens(toks1) == eng.from_tokens(toks2)
            oracle_equal = bs_words_equal(model, toks1, toks2)
            assert engine_equal == oracle_equal


def test_britton_cross_check_inside_edge_graph():
    # words over U u {s^{+-1}} evaluated inside the edge-graph engine give
    # the same equality verdicts as the BS(1,m) oracle
    rng = random.Random(6)

    def sample():
        toks = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.4:
                toks.append(u_token(rng.randint(-6, 6)))
            else:
                toks.append(gen_token("s", rng.choice((1, -1))))
        return tuple(toks)

    for model in SHIFTS:
        eng = SemidirectEngine(model, EDGE)
        for _ in range(1000):
            t1, t2 = sample(), sample()
            assert (eng.from_tokens(t1) == eng.from_tokens(t2)) == bs_words_equal(model, t1, t2)


def test_disconnected_graph_rejected():
    g = validate_graph({"vertices": ["s", "t", "x"], "edges": [["s", "t"]]})
    with pytest.raises(RegimeMismatch):
        engine_for(SM2, g)


def test_coset_rep_identifies_cosets():
    # gU = hU iff same Artin part and n-parts differ by s^e U s^-e
    eng = SemidirectEngine(SM2, EDGE)
    rng = random.Random(7)
    for _ in range(300):
        g = eng.from_tokens(random_semidirect_tokens(SM2, EDGE, rng, rng.randint(0, 5)))
        u = rng.randint(-20, 20)
        h = eng.mul(g, eng.from_tokens((u_token(u),)))
        assert eng.coset_rep(g) == eng.coset_rep(h)
        moved = eng.mul(g, eng.from_tokens((gen_token("s", 1),)))
        assert eng.coset_rep(moved) != eng.coset_rep(g)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_shift_left_split_is_the_base_scan(m):
    model = ShiftModel(m)
    for u in range(-3 * m, 3 * m + 1):
        for sign in (1, -1):
            assert model.left_split(u, sign) == BaseModel.left_split(model, u, sign)


@pytest.mark.parametrize(
    "model, graph", [(SM2, EDGE), (ShiftModel(3), path_graph("pqr"))], ids=["shift2", "shift3"]
)
def test_letter_products_agree_with_the_word_layer(monkeypatch, model, graph):
    # one engine over many words, so one-letter products repeat: every
    # generator token gives the whole-word product, and the word layer's
    # one-letter multiply runs once per distinct (a, letter) inside
    # mul_token (the reference W.multiply folds it too, uncounted)
    multiply_letter = W.multiply_letter
    asked = []
    in_engine = []

    def counted(g, w, x):
        if in_engine:
            asked.append((w, x))
        return multiply_letter(g, w, x)

    monkeypatch.setattr(W, "multiply_letter", counted)
    eng = SemidirectEngine(model, graph)
    rng = random.Random(f"letters-{model.m}")
    probes = 0
    for _ in range(300):
        g = eng.identity()
        for tok in random_semidirect_tokens(model, graph, rng, rng.randint(0, 10)):
            in_engine.append(tok)
            h = eng.mul_token(g, tok)
            in_engine.pop()
            if tok[0] == "gen":
                probes += 1
                a = W.multiply(graph, g.a, W.single(tok[1], tok[2]))
                assert h == SemidirectElement(g.n, a, W.exponent(a))
            assert h.e == W.exponent(h.a)
            g = h
    assert 0 < len(asked) == len(set(asked)) < probes


@pytest.mark.parametrize(
    "model, graph, radius",
    [(ShiftModel(3), path_graph("pqr"), 3), (SM2, EDGE, 5)],
    ids=["path3-shift3-r3", "edge-shift2-r5"],
)
def test_carried_exponent_is_the_word_exponent(model, graph, radius):
    ball = build_ball(model, graph, radius)
    eng = ball.engine
    elems = list(ball.vertex_reps) + [cube_element(ball, c) for c in ball.cubes]
    for g, h in zip(elems, elems[1:] + elems[:1]):
        made = (g, eng.mul(g, h), eng.inv(g), eng.coset_split(g)[0], eng.n_part(g),
                eng.make(g.n, g.a), eng.identity())
        for x in made:
            assert x.e == W.exponent(x.a) == eng.exponent(x)

"""The one-letter retraction and the tree/Britton machinery."""

import random

import pytest

from oracles import britton_is_pinch_free
from topraag.britton import TreeEngine, hnn_retract
from topraag.errors import RegimeMismatch
from topraag.graphs import edge_graph, edgeless_graph, single_vertex
from topraag.models import FiniteModel, ShiftModel, TrivialModel, perm_from_cycles, s3_a3_model
from topraag.elements import engine_for, gen_token, parse_tokens, u_token

EDGE = edge_graph()
S3A3 = s3_a3_model()
SM2 = ShiftModel(2)
POINT = single_vertex("t")


def retract_elem(model, tokens):
    """Image of the retraction as an element of the one-letter extension."""
    eng = engine_for(model, POINT)
    mapped = tuple(
        tok if tok[0] == "u" else gen_token("t", tok[2]) for tok in tokens
    )
    return eng, eng.from_tokens(mapped)


def test_retract_examples():
    # both letters of "s t" map to the stable letter
    bw = hnn_retract(S3A3, EDGE, parse_tokens(S3A3, EDGE, "s t"))
    assert sum(t[0] == "gen" for t in bw.tokens) == 2
    assert all(t[2] == 1 for t in bw.tokens if t[0] == "gen")
    # U maps identically
    t12 = perm_from_cycles(3, [[0, 1]])
    bw = hnn_retract(S3A3, EDGE, (u_token(t12),))
    assert bw.tokens == ((("u", t12)),) or bw.tokens == (("u", t12),)
    # shift: s 1 s^-1 pinches to 2
    bw = hnn_retract(SM2, EDGE, parse_tokens(SM2, EDGE, "s 1 s^-1"))
    assert not any(t[0] == "gen" for t in bw.tokens)
    assert bw.tokens == (("u", 2),)


def test_retract_outputs_pinch_free():
    rng = random.Random(0)
    for model in (S3A3, SM2, TrivialModel()):
        for _ in range(200):
            toks = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.4:
                    if model.kind == "shift":
                        toks.append(u_token(rng.randint(-6, 6)))
                    elif model.kind == "finite":
                        toks.append(u_token(rng.choice(sorted(model.U))))
                    else:
                        toks.append(u_token(()))
                else:
                    toks.append(gen_token(rng.choice(EDGE.vertices), rng.choice((1, -1))))
            bw = hnn_retract(model, EDGE, toks)
            assert britton_is_pinch_free(model, bw)


def test_retract_spells_the_retracted_element():
    # the pinch-free spelling read from each engine's tokens is the element
    general = FiniteModel(
        3, S3A3.u_gens, [perm_from_cycles(3, [[0, 1]])], [perm_from_cycles(3, [[0, 2]])]
    )
    cases = [
        (S3A3, EDGE), (TrivialModel(), EDGE), (SM2, EDGE), (ShiftModel(3), EDGE),
        (general, edgeless_graph("st")),
    ]
    rng = random.Random(6)
    for model, graph in cases:
        us = sorted(model.U) if hasattr(model, "U") else list(range(-6, 7))
        for _ in range(400):
            toks = []
            for _ in range(rng.randint(0, 8)):
                if rng.random() < 0.4:
                    toks.append(u_token(rng.choice(us)))
                else:
                    toks.append(gen_token(rng.choice(graph.vertices), rng.choice((1, -1))))
            bw = hnn_retract(model, graph, toks)
            eng, elem = retract_elem(model, toks)
            assert eng.from_tokens(bw.tokens) == elem
            assert britton_is_pinch_free(model, bw)


def test_retract_is_homomorphism():
    rng = random.Random(1)
    eng = engine_for(S3A3, POINT)

    def sample():
        toks = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.4:
                toks.append(u_token(rng.choice(sorted(S3A3.U))))
            else:
                toks.append(gen_token(rng.choice(EDGE.vertices), rng.choice((1, -1))))
        return tuple(toks)

    for _ in range(200):
        w1, w2 = sample(), sample()
        _, a = retract_elem(S3A3, w1)
        _, b = retract_elem(S3A3, w2)
        _, ab = retract_elem(S3A3, w1 + w2)
        assert eng.key(eng.mul(a, b)) == eng.key(ab)


def test_retract_section_property():
    # j_x embeds the one-letter extension by sending t to the generator x;
    # retracting back is the identity
    rng = random.Random(2)
    eng = engine_for(S3A3, POINT)
    for x in EDGE.vertices:
        for _ in range(150):
            toks = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.4:
                    toks.append(u_token(rng.choice(sorted(S3A3.U))))
                else:
                    toks.append(gen_token("t", rng.choice((1, -1))))
            h = eng.from_tokens(toks)
            lifted = tuple(
                tok if tok[0] == "u" else gen_token(x, tok[2]) for tok in toks
            )
            _, back = retract_elem(S3A3, lifted)
            assert eng.key(back) == eng.key(h)


def test_retract_section_property_shift():
    rng = random.Random(3)
    eng = engine_for(SM2, POINT)
    for x in EDGE.vertices:
        for _ in range(150):
            toks = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.5:
                    toks.append(u_token(rng.randint(-6, 6)))
                else:
                    toks.append(gen_token("t", rng.choice((1, -1))))
            h = eng.from_tokens(toks)
            lifted = tuple(
                tok if tok[0] == "u" else gen_token(x, tok[2]) for tok in toks
            )
            _, back = retract_elem(SM2, lifted)
            assert eng.key(back) == eng.key(h)


def test_tree_engine_relation_invariance():
    # canonical forms over an edgeless graph are invariant under the
    # defining rewrites, for a finite model with phi(O) != O
    t12 = perm_from_cycles(3, [[0, 1]])
    t13 = perm_from_cycles(3, [[0, 2]])
    m = FiniteModel(3, S3A3.u_gens, [t12], [t13])
    g = edgeless_graph("st")
    eng = engine_for(m, g)
    assert isinstance(eng, TreeEngine)
    rng = random.Random(4)
    u_all = sorted(m.U)
    for _ in range(400):
        toks = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.4:
                toks.append(u_token(rng.choice(u_all)))
            else:
                toks.append(gen_token(rng.choice("st"), rng.choice((1, -1))))
        pos = rng.randint(0, len(toks))
        t = rng.choice("st")
        if rng.random() < 0.5:
            w = rng.choice(sorted(m.O))
            lhs = [gen_token(t, 1), u_token(w), gen_token(t, -1)]
            rhs = [u_token(m.phi(w))]
        else:
            lhs = [gen_token(t, -1), gen_token(t, 1)]
            rhs = []
        w1 = toks[:pos] + lhs + toks[pos:]
        w2 = toks[:pos] + rhs + toks[pos:]
        assert eng.key(eng.from_tokens(w1)) == eng.key(eng.from_tokens(w2))


def test_tree_engine_group_ops():
    m = S3A3
    g = edgeless_graph("st")
    eng = TreeEngine(m, g)
    rng = random.Random(5)
    for _ in range(200):
        toks = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.4:
                toks.append(u_token(rng.choice(sorted(m.U))))
            else:
                toks.append(gen_token(rng.choice("st"), rng.choice((1, -1))))
        x = eng.from_tokens(toks)
        assert eng.mul(x, eng.inv(x)) == eng.identity()
        # coset keys constant along right U-translates
        u = rng.choice(sorted(m.U))
        y = eng.mul_token(x, u_token(u))
        assert eng.coset_rep(x) == eng.coset_rep(y)


def test_tree_engine_rejects_edges():
    with pytest.raises(RegimeMismatch):
        TreeEngine(S3A3, EDGE)


def test_tree_matches_automorphic_partition():
    # where both engines apply (automorphic model, edgeless graph), their
    # equality partitions coincide
    import itertools

    g = edgeless_graph("st")
    tree = TreeEngine(S3A3, g)
    auto = engine_for(S3A3, g)
    letters = [u_token(u) for u in sorted(S3A3.U)] + [
        gen_token(t, e) for t in "st" for e in (1, -1)
    ]
    by_tree = {}
    by_auto = {}
    for n in range(3):
        for toks in itertools.product(letters, repeat=n):
            by_tree.setdefault(tree.key(tree.from_tokens(toks)), set()).add(toks)
            by_auto.setdefault(auto.key(auto.from_tokens(toks)), set()).add(toks)
    assert sorted(map(sorted, by_tree.values())) == sorted(map(sorted, by_auto.values()))

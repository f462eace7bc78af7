import random
from itertools import combinations, product

import pytest

from oracles import lex_least, normal_form_bruteforce, normal_form_greedy, shuffle_reduce
from topraag import words as W
from topraag.errors import NotAJoinFactor, UnknownGenerator, WordLengthCap
from topraag.graphs import (
    complete_graph,
    cycle_graph,
    edge_graph,
    edgeless_graph,
    path_graph,
    validate_graph,
)

EDGE = edge_graph()
C4 = cycle_graph("abcd")

GRAPH_ZOO = [
    EDGE,
    C4,
    complete_graph("xyz"),
    path_graph("pqr"),
    edgeless_graph("uv"),
    complete_graph("wxyz"),
]


def test_parse_format_roundtrip():
    w = W.parse_word("s t^-1 s")
    assert w == (("s", 1), ("t", -1), ("s", 1))
    assert W.format_word(w) == "s t^-1 s"
    assert W.parse_word("s^2 t^-2") == (("s", 1), ("s", 1), ("t", -1), ("t", -1))


def test_normal_form_edge_examples():
    # commuting letters sort: t s -> s t
    assert W.normal_form(EDGE, W.parse_word("t s")) == W.parse_word("s t")
    # defining relator dies
    assert W.normal_form(EDGE, W.parse_word("s t s^-1 t^-1")) == ()
    # free group: only free reduction
    free = edgeless_graph("st")
    w = W.parse_word("s t s^-1")
    assert W.normal_form(free, w) == w


def random_graph(rng, max_vertices=5):
    verts = "abcdef"[: rng.randint(1, max_vertices)]
    edges = [[a, b] for a, b in combinations(verts, 2) if rng.random() < 0.5]
    return validate_graph({"vertices": list(verts), "edges": edges})


def test_normal_form_idempotent_and_oracle():
    # the zoo first, then random graphs with at most five vertices
    rng = random.Random(1)
    for i in range(2000):
        g = rng.choice(GRAPH_ZOO) if i < 500 else random_graph(rng)
        n = rng.randint(0, 6)
        w = tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(n))
        nf = W.normal_form(g, w)
        assert W.normal_form(g, nf) == nf
        assert nf == normal_form_bruteforce(g, w)


def restart_shuffle_reduce(g, w):
    """Reference reducer: cancel the first pair (x, x^-1) separated only by
    letters commuting with x, then rescan from the start."""
    w = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            gi, ei = w[i]
            for j in range(i + 1, len(w)):
                gj, ej = w[j]
                if gj == gi:
                    if ej == -ei:
                        del w[j]
                        del w[i]
                        changed = True
                    break
                if not g.adjacent(gi, gj):
                    break
            if changed:
                break
    return w


def test_one_pass_shuffle_reduce_matches_restart_loop():
    # long words: the fold of multiply_letter against the greedy oracle, and
    # the oracle's one-pass reducer against the restart loop
    rng = random.Random(5)
    for _ in range(3000):
        g = random_graph(rng, max_vertices=6)
        n = rng.randint(0, 80)
        w = tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(n))
        fast = shuffle_reduce(g, w)
        ref = restart_shuffle_reduce(g, w)
        assert restart_shuffle_reduce(g, fast) == fast, w
        assert len(fast) == len(ref), w
        assert lex_least(g, fast) == lex_least(g, ref), w
        assert W.normal_form(g, w) == normal_form_greedy(g, w), w


def test_normal_form_exhaustive_short_words():
    # every word of length <= 6 over the edge graph and <= 4 over two
    # larger graphs, against the full shuffle-class oracle
    letters = [(v, e) for v in EDGE.vertices for e in (1, -1)]
    for n in range(7):
        for w in product(letters, repeat=n):
            assert W.normal_form(EDGE, w) == normal_form_bruteforce(EDGE, w)
    for g in [path_graph("pqr"), cycle_graph("abcd")]:
        letters = [(v, e) for v in g.vertices for e in (1, -1)]
        for n in range(5):
            for w in product(letters, repeat=n):
                assert W.normal_form(g, w) == normal_form_bruteforce(g, w)


def canonical_words(g, max_len):
    letters = [(v, e) for v in g.vertices for e in (1, -1)]
    for n in range(max_len + 1):
        for w in product(letters, repeat=n):
            if W.normal_form(g, w) == w:
                yield w


@pytest.mark.parametrize(
    "g, max_len",
    [
        (EDGE, 6),
        (path_graph("pqr"), 4),
        (C4, 4),
        (complete_graph("xyz"), 4),
        (edgeless_graph("uv"), 5),
    ],
    ids=["edge", "path3", "c4", "k3", "uv"],
)
def test_multiply_letter_exhaustive(g, max_len):
    # every canonical word up to max_len times every letter, against the
    # full shuffle-class oracle
    letters = [(v, e) for v in g.vertices for e in (1, -1)]
    for w in canonical_words(g, max_len):
        for x in letters:
            assert W.multiply_letter(g, w, x) == normal_form_bruteforce(g, w + (x,)), (w, x)


def test_multiply_letter_matches_multiply():
    # W.multiply folds multiply_letter, so the reference product is the
    # greedy oracle, which also draws the canonical word
    rng = random.Random(7)
    for _ in range(20_000):
        g = random_graph(rng, max_vertices=6)
        n = rng.randint(0, 30)
        w = normal_form_greedy(g, tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(n)))
        x = (rng.choice(g.vertices), rng.choice((1, -1)))
        assert W.multiply_letter(g, w, x) == normal_form_greedy(g, w + (x,)), (g, w, x)


def test_list_letters_spell_the_same_words():
    # a word read from JSON spells its letters as lists; they cancel and sort
    # as tuple letters do, and come back as tuples
    assert W.normal_form(EDGE, [["s", 1], ["s", -1]]) == ()
    rng = random.Random(8)
    for _ in range(2000):
        g = random_graph(rng)
        w = tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(rng.randint(0, 12)))
        assert W.normal_form(g, [list(x) for x in w]) == W.normal_form(g, w), (g, w)


def test_tuple_letters_are_shared():
    # an inserted tuple letter is the caller's object; a list letter is
    # stored as a tuple and still cancels
    x = ("t", 1)
    w = W.multiply_letter(EDGE, W.parse_word("s"), x)
    assert w == (("s", 1), ("t", 1)) and w[1] is x
    y = ["s", -1]
    v = W.multiply_letter(EDGE, (), y)
    assert v == (("s", -1),) and type(v[0]) is tuple
    assert W.multiply_letter(EDGE, v, ["s", 1]) == ()
    assert W.multiply_letter(EDGE, w, ["t", -1]) == (("s", 1),)


def test_equality_iff_same_normal_form():
    # two spellings of the same element agree; distinct elements do not
    g = C4
    w1 = W.parse_word("a b c")
    w2 = W.parse_word("b a c")
    assert W.normal_form(g, w1) == W.normal_form(g, w2)
    assert W.normal_form(g, W.parse_word("a c")) != W.normal_form(g, W.parse_word("c a"))


def test_multiply_invert():
    assert W.multiply(EDGE, W.parse_word("s"), W.parse_word("s^-1")) == ()
    assert W.multiply(EDGE, W.parse_word("s"), W.parse_word("t")) == W.parse_word("s t")
    assert W.multiply(EDGE, W.parse_word("t"), W.parse_word("s")) == W.parse_word("s t")
    w = W.parse_word("s t")
    assert W.invert(EDGE, w) == W.normal_form(EDGE, W.free_invert(w))
    rng = random.Random(2)
    for _ in range(200):
        g = rng.choice(GRAPH_ZOO)
        n = rng.randint(0, 5)
        w = W.normal_form(g, tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(n)))
        assert W.multiply(g, w, W.invert(g, w)) == ()


def test_exponent():
    assert W.exponent(W.parse_word("s t^-1")) == 0
    assert W.exponent(W.parse_word("s s t")) == 3
    assert W.exponent(W.parse_word("s t s^-1 t^-1")) == 0
    rng = random.Random(3)
    for _ in range(100):
        g = rng.choice(GRAPH_ZOO)
        w1 = tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(rng.randint(0, 5)))
        w2 = tuple((rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(rng.randint(0, 5)))
        assert W.exponent(W.multiply(g, w1, w2)) == W.exponent(w1) + W.exponent(w2)


def test_is_balanced():
    assert W.is_balanced([W.parse_word("s t s^-1 t^-1")])
    assert not W.is_balanced([W.parse_word("x x")])
    surface = W.parse_word("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1")
    assert W.is_balanced([surface])


def test_parabolic_project():
    # C4 = {a,c} join {b,d}
    w = W.parse_word("a b c")
    proj = W.parabolic_project(C4, ["a", "c"], w)
    assert proj == W.normal_form(C4.induced(["a", "c"]), W.parse_word("a c"))
    assert W.parabolic_project(EDGE, ["s", "t"], W.parse_word("s t")) == W.parse_word("s t")
    assert W.parabolic_project(EDGE, ["s"], W.parse_word("s t")) == W.parse_word("s")
    with pytest.raises(NotAJoinFactor):
        W.parabolic_project(C4, ["a", "b"], w)


def test_parabolic_project_is_retraction():
    # project after inclusion is the identity on the factor
    rng = random.Random(4)
    sub = C4.induced(["a", "c"])
    for _ in range(100):
        w = W.normal_form(sub, tuple((rng.choice("ac"), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))))
        assert W.parabolic_project(C4, ["a", "c"], w) == w


def test_parabolic_project_is_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        w1 = tuple((rng.choice("abcd"), rng.choice((1, -1))) for _ in range(rng.randint(0, 4)))
        w2 = tuple((rng.choice("abcd"), rng.choice((1, -1))) for _ in range(rng.randint(0, 4)))
        lhs = W.parabolic_project(C4, ["a", "c"], W.multiply(C4, w1, w2))
        sub = C4.induced(["a", "c"])
        rhs = W.multiply(sub, W.parabolic_project(C4, ["a", "c"], w1), W.parabolic_project(C4, ["a", "c"], w2))
        assert lhs == rhs


def test_complete_graph_abelianisation():
    g = complete_graph("xyz")
    rng = random.Random(6)
    for _ in range(100):
        w = tuple((rng.choice("xyz"), rng.choice((1, -1))) for _ in range(rng.randint(0, 6)))
        nf = W.normal_form(g, w)
        counts = {}
        for gen, e in w:
            counts[gen] = counts.get(gen, 0) + e
        expect = []
        for gen in g.vertices:
            c = counts.get(gen, 0)
            expect.extend([(gen, 1 if c > 0 else -1)] * abs(c))
        assert nf == tuple(expect)


def test_unknown_generator_and_cap():
    with pytest.raises(UnknownGenerator):
        W.normal_form(EDGE, W.parse_word("x"))
    with pytest.raises(WordLengthCap):
        W.normal_form(EDGE, (("s", 1),) * (W.WORD_LENGTH_CAP + 1))
    # the one-letter product checks the letter itself and caps the result
    for bad in (("x", 1), ("s", 2), ("s", 0)):
        with pytest.raises(UnknownGenerator):
            W.multiply_letter(EDGE, W.parse_word("s"), bad)
    at_cap = (("s", 1),) * W.WORD_LENGTH_CAP
    with pytest.raises(WordLengthCap):
        W.multiply_letter(EDGE, at_cap, ("t", 1))
    assert W.multiply_letter(EDGE, at_cap, ("s", -1)) == at_cap[1:]

"""The element contract of ``Engine``: every engine's token spelling round-trips
through ``from_tokens``, every derived operation an engine overrides agrees
with the base derivation from the primitives, and ``coset_split`` splits an
element into its coset's representative and a U-remainder; in the
automorphic regime two elements share a representative iff they share the
inverse-tail name (``oracles.inverse_tail_key``).
Also the model's ``left_split``, which moves a U-element past a generator, the
finite model's arithmetic tables against plain permutation arithmetic, and the
rejection of U values outside U by every model and engine."""

import inspect
import itertools
import random
from fractions import Fraction

import pytest
from oracles import cube_element, inverse_tail_key

from topraag import words as W
from topraag.complexes import build_ball, nerve_graph
from topraag.elements import (
    Engine,
    act_letter,
    base_sequence,
    engine_for,
    gen_token,
    invert_tokens,
    to_normal_sequence,
    u_token,
)
from topraag.errors import ModelError, NotInDomain, UnknownGenerator
from topraag.graphs import cycle_graph, edge_graph, edgeless_graph, path_graph
from topraag.models import (
    BaseModel,
    FiniteModel,
    ShiftModel,
    TrivialModel,
    model_from_config,
    perm_from_cycles,
    perm_identity,
    perm_inv,
    perm_mul,
    s3_a3_model,
)

S3A3 = s3_a3_model()
# phi(O) != O on a finite model: only the tree engine has a canonical form
GENERAL = FiniteModel(
    3, S3A3.u_gens, [perm_from_cycles(3, [[0, 1]])], [perm_from_cycles(3, [[0, 2]])]
)
# phi = inversion on O = A3: automorphic, but phi is not the identity on O
INVERSION = FiniteModel(
    3, S3A3.u_gens, [perm_from_cycles(3, [[0, 1, 2]])], [perm_from_cycles(3, [[0, 2, 1]])]
)
# phi = squaring on O = Z5 inside U = F20 <= S5 has order 4, so phi^e,
# phi^|e| and phi^sign(e) differ on blocks of exponent -1 or 2
C5 = perm_from_cycles(5, [[0, 1, 2, 3, 4]])
F20 = FiniteModel(
    5, [C5, perm_from_cycles(5, [[1, 2, 4, 3]])], [C5], [perm_from_cycles(5, [[0, 2, 4, 1, 3]])]
)
# O not normal in U, so a remainder pushed through a pair changes its
# representative: O = <(0 1)> in S3 with phi = id, and O = S3 on {0, 1, 2}
# in S4 with phi = conjugation by (1 2)
T01 = perm_from_cycles(3, [[0, 1]])
S3_O2 = FiniteModel(3, S3A3.u_gens, [T01], [T01])
S4_S3 = FiniteModel(
    4,
    [perm_from_cycles(4, [[0, 1]]), perm_from_cycles(4, [[0, 1, 2, 3]])],
    [perm_from_cycles(4, [[0, 1]]), perm_from_cycles(4, [[0, 1, 2]])],
    [perm_from_cycles(4, [[0, 2]]), perm_from_cycles(4, [[0, 2, 1]])],
)
ST = edgeless_graph("st")

CASES = [
    ("automorphic", S3A3, edge_graph()),
    ("automorphic", TrivialModel(), cycle_graph("abcd")),
    ("automorphic", INVERSION, edge_graph()),
    ("automorphic", F20, cycle_graph("abcd")),
    ("automorphic", S3_O2, path_graph("pqr")),
    ("automorphic", S4_S3, edge_graph()),
    ("semidirect", ShiftModel(2), edge_graph()),
    ("semidirect", ShiftModel(3), path_graph("pqr")),
    ("semidirect", ShiftModel(4), edge_graph()),
    ("semidirect", ShiftModel(6), path_graph("pqr")),
    ("tree", ShiftModel(2), ST),
    ("tree", GENERAL, ST),
]
IDS = [
    "s3a3-edge", "trivial-c4", "inversion-edge", "f20-c4", "s3-o2-path3", "s4-s3-edge", "shift2-edge", "shift3-path3", "shift4-edge",
    "shift6-path3", "shift2-st", "general-st",
]

PRIMITIVES = ("identity", "mul_token", "tokens", "key", "coset_split", "apartment_key", "format")
DERIVED = ("from_tokens", "mul", "inv", "exponent", "a_part", "n_part", "coset_rep")


def u_samples(model):
    if hasattr(model, "U"):
        return sorted(model.U)
    return list(range(-3 * model.m, 3 * model.m + 1))


def outside_U(model):
    """Values that are not elements of the model's U, hashable or not."""
    if model.kind == "shift":
        return [1.5, Fraction(1, 2), "1", (0,)]
    if model.kind == "trivial":
        return [1, (0,), 1.5, []]
    d = model.degree
    # (0, ..., d) is no permutation of degree d, but perm_mul(a, it) == a
    out = [(0,) * d, tuple(range(d + 1)), list(range(d)), 1.5]
    return out + [p for p in itertools.permutations(range(d)) if p not in model.U][:1]


def u_of_tokens(eng, a):
    """The element of U that a equals, or None when a is not in U: by the
    tokens contract an element of U is spelled by U tokens only."""
    toks = eng.tokens(a)
    if any(t[0] != "u" for t in toks):
        return None
    out = eng.model.identity()
    for _, u in toks:
        out = eng.model.mul(out, u)
    return out


def random_tokens(model, graph, rng, max_len=10):
    us = u_samples(model)
    toks = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.4:
            toks.append(u_token(rng.choice(us)))
        else:
            toks.append(gen_token(rng.choice(graph.vertices), rng.choice((1, -1))))
    return tuple(toks)


def overrides(eng):
    return [name for name in DERIVED if getattr(type(eng), name) is not getattr(Engine, name)]


@pytest.mark.parametrize("regime, model, graph", CASES, ids=IDS)
def test_engine_contract(regime, model, graph):
    eng = engine_for(model, graph)
    assert eng.regime == regime
    kept = overrides(eng)
    rng = random.Random(f"contract-{regime}-{model.kind}-{len(graph.vertices)}")
    words = [random_tokens(model, graph, rng) for _ in range(300)]
    elems = [eng.from_tokens(w) for w in words]
    ident = eng.identity()
    for w, a, b in zip(words, elems, elems[1:] + elems[:1]):
        assert eng.from_tokens(eng.tokens(a)) == a
        if "from_tokens" in kept:
            assert Engine.from_tokens(eng, w) == a
        if "mul" in kept:
            assert eng.mul(a, b) == Engine.mul(eng, a, b)
        for name in ("inv", "exponent", "a_part", "n_part"):
            if name in kept:
                assert getattr(eng, name)(a) == getattr(Engine, name)(eng, a), name
        # the derived operations themselves
        assert eng.mul(a, eng.inv(a)) == ident
        assert eng.exponent(a) == W.exponent(eng.a_part(a))
        n = eng.n_part(a)
        assert eng.a_part(n) == ()
        artin = eng.from_tokens(tuple(gen_token(gen, e) for gen, e in eng.a_part(a)))
        assert eng.mul(n, artin) == a
        # a = rep * u, rep is its own representative, and all of aU shares it
        rep, u = eng.coset_split(a)
        assert eng.mul(rep, eng.from_tokens((u_token(u),))) == a
        assert eng.coset_split(rep)[1] == model.identity()
        for w in u_samples(model):
            aw = eng.mul_token(a, u_token(w))
            assert eng.coset_split(aw) == (rep, model.mul(u, w))
    # representatives partition the elements as the inverse tails do
    if regime == "automorphic":
        named = {(eng.coset_rep(a), inverse_tail_key(eng, a)) for a in elems}
        assert len(named) == len({r for r, _ in named}) == len({k for _, k in named})
    # U elements are spelled by U tokens that fold back to them; a generator's
    # spelling has a generator token
    for u in u_samples(model):
        assert u_of_tokens(eng, eng.from_tokens((u_token(u),))) == u
    assert u_of_tokens(eng, eng.from_tokens((gen_token(graph.vertices[0], 1),))) is None


@pytest.mark.parametrize("regime, model, graph", CASES, ids=IDS)
def test_engine_rejects_malformed_letters(regime, model, graph):
    # an unknown generator or a sign other than +-1 raises on every path a
    # letter token enters by; the second pass would read any product the
    # first one stored, and every valid letter product is stored first
    eng = engine_for(model, graph)
    v = graph.vertices[0]
    elems = [eng.identity(), eng.from_tokens(random_tokens(model, graph, random.Random(regime), 8))]
    for a in elems:
        for gen in graph.vertices:
            for sign in (1, -1):
                eng.mul_token(a, gen_token(gen, sign))
    for _ in range(2):
        for a in elems:
            for bad in (("gen", "zz", 1), ("gen", v, 2), ("gen", v, 0), ("gen", v, -2)):
                with pytest.raises(UnknownGenerator):
                    eng.mul_token(a, bad)
                with pytest.raises(UnknownGenerator):
                    eng.from_tokens((gen_token(v, 1), bad))


@pytest.mark.parametrize("regime, model, graph", CASES, ids=IDS)
def test_engine_rejects_u_tokens_outside_U(regime, model, graph):
    # every path a U token enters by raises NotInDomain; the first loop
    # stores every valid product with the samples, so the second pass of
    # bad tokens also meets filled tables
    eng = engine_for(model, graph)
    v = graph.vertices[0]
    elems = [eng.identity(), eng.from_tokens(random_tokens(model, graph, random.Random(regime), 8))]
    for a in elems:
        for u in u_samples(model):
            eng.mul_token(a, u_token(u))
    for _ in range(2):
        for a in elems:
            for bad in outside_U(model):
                with pytest.raises(NotInDomain):
                    eng.mul_token(a, u_token(bad))
                with pytest.raises(NotInDomain):
                    eng.from_tokens((gen_token(v, 1), u_token(bad)))


@pytest.mark.parametrize("model", [S3A3, TrivialModel(), INVERSION, F20], ids=["s3a3", "trivial", "inversion", "f20"])
def test_act_letter_rejects_u_outside_U(model):
    g = edge_graph()
    seqs = [base_sequence(model), act_letter(model, g, gen_token("s", 1), base_sequence(model))]
    for seq in seqs:
        for bad in outside_U(model):
            with pytest.raises(NotInDomain):
                act_letter(model, g, u_token(bad), seq)


FINITE = [S3A3, GENERAL, INVERSION, F20]
FINITE_IDS = ["s3a3", "general", "inversion", "f20"]


@pytest.mark.parametrize("model", FINITE, ids=FINITE_IDS)
def test_finite_tables_match_permutation_arithmetic(model):
    # a fresh model, so the first pass fills the tables and the second reads them
    model = model_from_config(model.to_json())
    us = sorted(model.U)
    for _ in range(2):
        assert model.identity() == perm_identity(model.degree)
        for a in us:
            assert model.inv(a) == perm_inv(a)
            for b in us:
                assert model.mul(a, b) == perm_mul(a, b)
            for sign in (1, -1):
                assert model.left_split(a, sign) == BaseModel.left_split(model, a, sign)
    for bad in outside_U(model):
        for call in (
            lambda: model.mul(us[1], bad),
            lambda: model.mul(bad, us[1]),
            lambda: model.inv(bad),
            lambda: model.left_split(bad, 1),
            lambda: model.left_split(bad, -1),
        ):
            with pytest.raises(NotInDomain):
                call()


def test_parse_u_rejects_a_permutation_outside_U():
    assert F20.parse_u("perm[0,1,2,3,4]") == perm_identity(5)
    for u in F20.U:
        assert F20.parse_u(F20.format_u(u)) == u
    with pytest.raises(ModelError, match="not an element of U"):
        F20.parse_u("perm[1,0,2,3,4]")


AUTOMORPHIC = [(m, g) for regime, m, g in CASES if regime == "automorphic"]
AUTOMORPHIC_IDS = [i for i, (regime, _, _) in zip(IDS, CASES) if regime == "automorphic"]


@pytest.mark.parametrize("model, graph", AUTOMORPHIC, ids=AUTOMORPHIC_IDS)
def test_memoised_block_arithmetic_matches_the_reference_fold(model, graph):
    # one engine warmed by a ball and its nerve, so mul, inv and a_part read
    # filled block records and merges; the reference left fold reads none
    ball = build_ball(model, graph, 2)
    nerve_graph(ball)
    eng = ball.engine
    assert eng._blocks and eng._merges
    elems = list(ball.vertex_reps) + [cube_element(ball, c) for c in ball.cubes]
    elems += [eng.n_part(a) for a in elems[:20]]
    elems += [eng.inv(a) for a in elems]
    rng = random.Random(f"memo-{model.kind}-{len(graph.vertices)}")
    us = u_samples(model)
    for _ in range(300):
        a, b, u = rng.choice(elems), rng.choice(elems), u_token(rng.choice(us))
        ta, tb = eng.tokens(a), eng.tokens(b)
        assert eng.mul(a, b) == to_normal_sequence(model, graph, ta + tb)
        assert eng.mul_token(a, u) == to_normal_sequence(model, graph, ta + (u,))
        assert eng.inv(a) == to_normal_sequence(model, graph, invert_tokens(model, ta))
        letters = tuple(t for t in ta if t[0] == "gen")
        reference = to_normal_sequence(model, graph, letters)
        assert eng.a_part(a) == (reference.tail[0][0] if reference.tail else ())
    for block, record in eng._blocks.items():
        assert record == (W.exponent(block), W.invert(graph, block))
    for (a, a1), merged in eng._merges.items():
        assert merged == W.multiply(graph, a, a1)


def test_nerve_inverts_each_block_once(monkeypatch):
    # the block records and merges of one engine serve a whole ball and its
    # nerve: the word layer inverts each distinct block at most once, and
    # the nerve merges each distinct pair of blocks at most once
    invert, multiply = W.invert, W.multiply
    inverted, merged = [], []

    def counted_invert(g, w):
        inverted.append(w)
        return invert(g, w)

    def counted_multiply(g, w1, w2):
        merged.append((w1, w2))
        return multiply(g, w1, w2)

    monkeypatch.setattr(W, "invert", counted_invert)
    ball = build_ball(S3A3, edge_graph(), 3)
    monkeypatch.setattr(W, "multiply", counted_multiply)
    nerve = nerve_graph(ball)
    assert nerve.edges
    assert 0 < len(inverted) == len(set(inverted))
    assert 0 < len(merged) == len(set(merged))


def test_engines_keep_only_cheaper_overrides():
    kept = {eng.regime: overrides(eng) for eng in (engine_for(m, g) for _, m, g in CASES)}
    assert kept == {
        "automorphic": ["mul", "inv", "a_part"],
        "semidirect": ["mul", "inv", "a_part", "n_part"],
        "tree": [],
    }


def test_engine_raises_only_for_primitives():
    raising = [
        name for name, fn in vars(Engine).items()
        if inspect.isfunction(fn) and "raise NotImplementedError" in inspect.getsource(fn)
    ]
    assert raising == list(PRIMITIVES)


@pytest.mark.parametrize(
    "model",
    [S3A3, INVERSION, GENERAL, ShiftModel(2), ShiftModel(3)],
    ids=["s3a3", "inversion", "general", "shift2", "shift3"],
)
def test_left_split(model):
    # u t = rep t conj, i.e. u = rep phi(conj), for sign +1;
    # u t^-1 = rep t^-1 conj, i.e. u = rep u' with phi(u') = conj, for sign -1
    for u in u_samples(model):
        for sign in (1, -1):
            rep, conj = model.left_split(u, sign)
            assert rep in model.left_transversal(1 if sign == 1 else 0)
            if sign == 1:
                assert model.mul(rep, model.phi(conj)) == u
            else:
                u_prime = model.mul(model.inv(rep), u)
                assert model.in_O(u_prime) and model.phi(u_prime) == conj

"""The element contract of ``Engine``: every engine's token spelling round-trips
through ``from_tokens``, and every derived operation an engine overrides
agrees with the base derivation from the primitives."""

import random

import pytest

from topraag import words as W
from topraag.elements import Engine, engine_for, gen_token, u_token
from topraag.graphs import cycle_graph, edge_graph, edgeless_graph, path_graph
from topraag.models import FiniteModel, ShiftModel, TrivialModel, perm_from_cycles, s3_a3_model

S3A3 = s3_a3_model()
# phi(O) != O on a finite model: only the tree engine has a canonical form
GENERAL = FiniteModel(
    3, S3A3.u_gens, [perm_from_cycles(3, [[0, 1]])], [perm_from_cycles(3, [[0, 2]])]
)
ST = edgeless_graph("st")

CASES = [
    ("automorphic", S3A3, edge_graph()),
    ("automorphic", TrivialModel(), cycle_graph("abcd")),
    ("semidirect", ShiftModel(2), edge_graph()),
    ("semidirect", ShiftModel(3), path_graph("pqr")),
    ("tree", ShiftModel(2), ST),
    ("tree", GENERAL, ST),
]
IDS = ["s3a3-edge", "trivial-c4", "shift2-edge", "shift3-path3", "shift2-st", "general-st"]

DERIVED = ("from_tokens", "mul", "inv", "u_value", "exponent", "a_part", "n_part")


def u_samples(model):
    if hasattr(model, "U"):
        return sorted(model.U)
    if model.kind == "shift":
        return list(range(-3 * model.m, 3 * model.m + 1))
    return [model.identity()]


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
    for u in u_samples(model):
        assert eng.u_value(eng.from_tokens((u_token(u),))) == u
    with pytest.raises(ValueError):
        eng.u_value(eng.from_tokens((gen_token(graph.vertices[0], 1),)))


def test_engines_keep_only_cheaper_overrides():
    kept = {eng.regime: overrides(eng) for eng in (engine_for(m, g) for _, m, g in CASES)}
    assert kept == {
        "automorphic": ["from_tokens", "mul"],
        "semidirect": ["mul", "inv", "exponent", "a_part", "n_part"],
        "tree": [],
    }

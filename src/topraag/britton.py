"""Britton machinery: canonical forms in iterated HNN extensions with no
commutation, and the one-letter retraction.

* ``TreeEngine``     -- canonical forms over an edgeless graph (the group is
                        the iterated HNN extension of U; its coset complex is
                        the Bass-Serre tree).  Elements are pinch-free step
                        chains r1 t1^e1 ... rn tn^en * u with each r a left
                        coset representative.
* ``hnn_retract``    -- image under the epimorphism sending every generator
                        to the single stable letter, Britton-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words as W
from .errors import NotInDomain, RegimeMismatch
from .graphs import Graph, single_vertex
from .models import BaseModel
from .elements import Engine, engine_for, gen_token, u_token


@dataclass(frozen=True)
class TreeElement:
    """steps: ((gen, sign, rep), ...); the element is prod(rep * gen^sign) * tail."""

    steps: tuple
    tail: object


class TreeEngine(Engine):
    """Canonical HNN normal form with left transversals; edgeless graphs only."""

    regime = "tree"

    def __init__(self, model: BaseModel, graph: Graph):
        if graph.edges:
            raise RegimeMismatch("tree engine is only for edgeless graphs")
        super().__init__(model, graph)

    def identity(self):
        return TreeElement((), self.model.identity())

    def mul_token(self, g, token):
        m = self.model
        if token[0] == "u":
            # ShiftModel.mul adds any numbers, so check that U = Z here
            if m.kind == "shift" and not isinstance(token[1], int):
                raise NotInDomain(f"{token[1]!r} is not in U = Z")
            return TreeElement(g.steps, m.mul(g.tail, token[1]))
        _, gen, sign = token
        if gen not in self.graph._adj or (sign != 1 and sign != -1):
            W.check_letters(self.graph, ((gen, sign),))
        steps, tail = g.steps, g.tail
        # pinch: ... t^-sign * tail * t^sign collapses when tail is in the
        # relevant associated subgroup
        if steps and steps[-1][0] == gen and steps[-1][1] == -sign:
            inside = m.in_phiO(tail) if sign == 1 else m.in_O(tail)
            if inside:
                conj = m.phi_inv(tail) if sign == 1 else m.phi(tail)
                prev_gen, prev_sign, prev_rep = steps[-1]
                return TreeElement(steps[:-1], m.mul(prev_rep, conj))
        rep, new_tail = m.left_split(tail, sign)
        return TreeElement(steps + ((gen, sign, rep),), new_tail)

    def tokens(self, g):
        toks = []
        for gen, sign, rep in g.steps:
            toks.append(u_token(rep))
            toks.append(gen_token(gen, sign))
        toks.append(u_token(g.tail))
        return tuple(toks)

    def key(self, g):
        return g.steps, g.tail

    def coset_split(self, g):
        # gU is determined by the step chain alone
        return TreeElement(g.steps, self.model.identity()), g.tail

    def apartment_key(self, n):
        raise RegimeMismatch("apartment bookkeeping is not wired for tree engines")

    def format(self, g):
        m = self.model
        bits = []
        for gen, sign, rep in g.steps:
            bits.append(m.format_u(rep))
            bits.append(gen if sign == 1 else f"{gen}^-1")
        bits.append(m.format_u(g.tail))
        return " ".join(bits)


@dataclass(frozen=True)
class BrittonWord:
    """Pinch-free alternating word u0 t^e1 u1 ... over the one-letter HNN."""

    letter: str
    tokens: tuple


def hnn_retract(model: BaseModel, graph: Graph, tokens, letter: str = "t") -> BrittonWord:
    """Image of a token word under u |-> u, generator |-> the stable letter.

    The result is the canonical form in the one-letter HNN over the model,
    re-expressed as a pinch-free alternating word.
    """
    point = single_vertex(letter)
    target = engine_for(model, point)
    mapped = []
    for tok in tokens:
        if tok[0] == "u":
            mapped.append(tok)
        else:
            mapped.append(gen_token(letter, tok[2]))
    elem = target.from_tokens(mapped)
    return _britton_view(target, elem, letter)


def _britton_view(engine: Engine, elem, letter: str) -> BrittonWord:
    """The engine's spelling of elem with adjacent U-letters merged, trivial
    ones dropped and adjacent t^e t^-e cancelled; the identity is one U-letter."""
    m = engine.model
    toks = []
    for tok in engine.tokens(elem):
        if tok[0] == "u" and toks and toks[-1][0] == "u":
            tok = u_token(m.mul(toks.pop()[1], tok[1]))
        if tok[0] == "u" and tok[1] == m.identity():
            continue
        if tok[0] == "gen" and toks and toks[-1] == gen_token(tok[1], -tok[2]):
            toks.pop()
        else:
            toks.append(tok)
    return BrittonWord(letter, tuple(toks) or (u_token(m.identity()),))

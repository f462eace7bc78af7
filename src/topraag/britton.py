"""Britton machinery: canonical forms in iterated HNN extensions with no
commutation, the one-letter retraction, and two independent equality oracles.

* ``TreeEngine``     -- canonical forms over an edgeless graph (the group is
                        the iterated HNN extension of U; its coset complex is
                        the Bass-Serre tree).  Elements are pinch-free step
                        chains r1 t1^e1 ... rn tn^en * u with each r a left
                        coset representative.
* ``hnn_retract``    -- image under the epimorphism sending every generator
                        to the single stable letter, Britton-reduced.
* ``bs_word_reduce`` -- pinch-only reducer for words over a shift model and
                        one stable letter; equality oracle for BS(1, m).
* ``AmalgamNormalizer`` -- canonical forms when phi is the identity on O:
                        the group is the amalgam of U and O x A_Gamma over O,
                        and the classical alternating normal form applies.
                        Used as an independent cross-check of the rewriting
                        engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words as W
from .errors import RegimeMismatch
from .graphs import Graph, single_vertex
from .models import BaseModel, ShiftModel
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
        m = self.model
        return (
            tuple((gen, sign, m.elem_key(rep)) for gen, sign, rep in g.steps),
            m.elem_key(g.tail),
        )

    def is_in_U(self, g):
        return not g.steps

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

    def stable_count(self) -> int:
        return sum(1 for t in self.tokens if t[0] == "gen")


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


def britton_is_pinch_free(model: BaseModel, bw: BrittonWord) -> bool:
    """No subword t w t^-1 with w in O nor t^-1 w t with w in phi(O)."""
    toks = list(bw.tokens)
    i = 0
    while i < len(toks):
        if toks[i][0] != "gen":
            i += 1
            continue
        sign = toks[i][2]
        j = i + 1
        u = model.identity()
        while j < len(toks) and toks[j][0] == "u":
            u = model.mul(u, toks[j][1])
            j += 1
        if j < len(toks) and toks[j][0] == "gen" and toks[j][2] == -sign:
            inside = model.in_O(u) if sign == 1 else model.in_phiO(u)
            if inside:
                return False
        i += 1
    return True


def bs_word_reduce(model: ShiftModel, tokens) -> tuple:
    """Pinch-only Britton reduction of a word over U and one stable letter.

    Independent of the engines: repeatedly merge adjacent U-letters and
    remove pinches t u t^-1 -> phi(u) and t^-1 v t -> phi_inv(v) (the latter
    only when v is divisible by m).  By Britton's lemma the result is trivial
    iff the word is; no other canonicalization is attempted.
    """
    toks = [t for t in tokens]
    changed = True
    while changed:
        changed = False
        out = []
        for t in toks:
            if t[0] == "u" and out and out[-1][0] == "u":
                out[-1] = u_token(model.mul(out[-1][1], t[1]))
            elif t[0] == "u" and t[1] == model.identity():
                continue
            else:
                out.append(t)
        toks = out
        for i in range(len(toks)):
            if toks[i][0] != "gen":
                continue
            sign = toks[i][2]
            j = i + 1
            u = model.identity()
            if j < len(toks) and toks[j][0] == "u":
                u = toks[j][1]
                j += 1
            if j < len(toks) and toks[j][0] == "gen" and toks[j][2] == -sign:
                if sign == 1:
                    toks[i:j + 1] = [u_token(model.phi(u))]
                    changed = True
                    break
                if model.in_phiO(u):
                    toks[i:j + 1] = [u_token(model.phi_inv(u))]
                    changed = True
                    break
    return tuple(toks)


def bs_words_equal(model: ShiftModel, toks1, toks2) -> bool:
    from .elements import invert_tokens

    reduced = bs_word_reduce(model, tuple(toks1) + invert_tokens(model, toks2))
    if any(t[0] == "gen" for t in reduced):
        return False
    u = model.identity()
    for t in reduced:
        u = model.mul(u, t[1])
    return u == model.identity()


class AmalgamNormalizer:
    """Canonical forms for phi = id_O: the group is U *_O (O x A_Gamma).

    Elements are written o * c1 * c2 * ... with the c alternating between
    nontrivial right-coset representatives of O in U and nontrivial Artin
    words; uniqueness is the classical amalgam normal form.  This is an
    independent algorithm from the rewriting action and serves as an
    equality oracle for it.
    """

    def __init__(self, model: BaseModel, graph: Graph):
        ident = model.identity()
        for w in getattr(model, "O", [ident]):
            if model.phi(w) != w:
                raise RegimeMismatch("amalgam oracle needs phi = id on O")
        self.model = model
        self.graph = graph

    def identity(self):
        return (self.model.identity(), ())

    def normalize(self, tokens):
        # fold by LEFT multiplication: the O head sits at the left end, so a
        # prepended letter never cascades through the chain
        form = self.identity()
        for tok in reversed(tokens):
            form = self._left_mul(tok, form)
        return form

    def _left_mul(self, tok, form):
        m = self.model
        o, chain = form
        if tok[0] == "gen":
            # Artin letters commute with the O head; merge with a leading
            # Artin part or prepend a new one
            word = W.single(tok[1], tok[2])
            if chain and chain[0][0] == "A":
                merged = W.multiply(self.graph, word, chain[0][1])
                if merged:
                    return o, (("A", merged),) + chain[1:]
                return o, chain[1:]
            return o, (("A", word),) + chain
        u = m.mul(tok[1], o)
        if chain and chain[0][0] == "U":
            u = m.mul(u, chain[0][1])
            chain = chain[1:]
        omega, rep = m.decompose(u)
        if rep != m.identity():
            chain = (("U", rep),) + chain
        return omega, chain

    def key(self, form):
        o, chain = form
        m = self.model
        return (
            m.elem_key(o),
            tuple(
                (kind, m.elem_key(val) if kind == "U" else val) for kind, val in chain
            ),
        )

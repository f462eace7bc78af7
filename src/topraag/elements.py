"""Exact element arithmetic in the group generated by a base model U and the
Artin generators of a graph, in the regimes where a canonical form exists.

Regimes and engines
-------------------
* phi(O) = O ("automorphic"):  elements are normal sequences
  (u0, a1, u1, ..., an, un) with the a_i nontrivial canonical Artin words and
  u1..u_{n-1} nontrivial right-coset representatives; left multiplication by
  a generator letter rewrites the sequence through a three-case rule and
  to_normal_sequence folds a word letter by letter (the reference, which
  reads no memo).  The engine multiplies on the right, pushing a
  U-remainder left through the pairs by a w = phi^{e(a)}(w) a for w in O,
  and acts by whole blocks, reading each block's exponent and inverse, and
  each merge of two blocks, from per-engine memos.  The least sequence over
  aU ends in the trivial representative, so coset_split tries |O| remainders.
* O = U with phi shrinking and the graph connected: see ``semidirect``.
* edgeless graphs over any model: see ``britton``.

``engine_for`` picks the right engine; all engines share the Engine API used
by the cube-complex builder.
"""

from __future__ import annotations

from typing import NamedTuple

from . import words as W
from .errors import RegimeMismatch, RelationViolation
from .graphs import Graph
from .models import BaseModel

# A token is either ("u", element-of-U) or ("gen", generator, +1/-1).
Token = tuple


def u_token(u) -> Token:
    return ("u", u)


def gen_token(gen: str, e: int) -> Token:
    return ("gen", gen, e)


def parse_tokens(model: BaseModel, g: Graph, text: str) -> tuple[Token, ...]:
    """Parse "s 3 t^-1" / "s perm[1,0,2]" style element words."""
    out = []
    for tok in text.split():
        base, caret, power = tok.partition("^")
        if base in g._adj:
            n = int(power) if caret else 1
            sign = 1 if n > 0 else -1
            out.extend([gen_token(base, sign)] * abs(n))
        else:
            out.append(u_token(model.parse_u(tok)))
    return tuple(out)


def invert_tokens(model: BaseModel, toks) -> tuple[Token, ...]:
    return tuple(
        u_token(model.inv(t[1])) if t[0] == "u" else gen_token(t[1], -t[2]) for t in reversed(toks)
    )


class NormalSequence(NamedTuple):
    """Canonical representative (head, ((a1, u1), ..., (an, un)))."""

    head: object
    tail: tuple

    @property
    def length(self) -> int:
        return len(self.tail)


def base_sequence(model: BaseModel, u=None) -> NormalSequence:
    return NormalSequence(model.identity() if u is None else u, ())


def _left_block(
    model: BaseModel, g: Graph, a: W.Word, e: int, head, tail: tuple, multiply
) -> NormalSequence:
    """a * (head; tail) for a nonempty canonical Artin word a of exponent e:
    with head = omega u_hat, a omega = phi^e(omega) a, and a merges into the
    first block only when u_hat is trivial, by multiply (``W.multiply`` or
    a lookup with its signature and result)."""
    omega, u_hat = model.decompose(head)
    head = model.phi_power(omega, e)
    if not tail or u_hat != model.identity():
        return NormalSequence(head, ((a, u_hat),) + tail)
    (a1, u1), rest = tail[0], tail[1:]
    merged = multiply(g, a, a1)
    if not merged:
        return NormalSequence(model.mul(head, u1), rest)
    return NormalSequence(head, ((merged, u1),) + rest)


def _right_u(model: BaseModel, seq: NormalSequence, u, exponent) -> NormalSequence:
    """seq * u for u in U.  The remainder c moves left through each pair:
    u_i c = omega r, and a_i omega = phi^{e(a_i)}(omega) a_i, with e(a_i)
    read by exponent (the engine's block record).  A non-final u_i is a
    nontrivial representative, so u_i c is not in O and blocks never
    merge."""
    ident = model.identity()
    tail = list(seq.tail)
    c, i = u, len(tail)
    while i and c != ident:
        i -= 1
        a, r = tail[i]
        omega, r = model.decompose(model.mul(r, c))
        tail[i] = (a, r)
        c = model.phi_power(omega, exponent(a))
    return NormalSequence(model.mul(seq.head, c), tuple(tail))


def _right_letter(model: BaseModel, g: Graph, seq: NormalSequence, gen: str, sign: int) -> NormalSequence:
    """seq * gen^sign: the letter joins the last block when the last
    representative is trivial, else starts a new pair; a pair whose block
    cancels is dropped."""
    ident = model.identity()
    tail, block = seq.tail, ()
    if tail and tail[-1][1] == ident:
        tail, block = tail[:-1], tail[-1][0]
    merged = W.multiply_letter(g, block, (gen, sign))
    return NormalSequence(seq.head, tail + (((merged, ident),) if merged else ()))


def act_letter(model: BaseModel, g: Graph, token: Token, seq: NormalSequence) -> NormalSequence:
    """Left multiplication of a normal sequence by one letter."""
    if not model.is_automorphic:
        raise RegimeMismatch("normal sequences need phi(O) = O")
    if token[0] == "u":
        return NormalSequence(model.mul(token[1], seq.head), seq.tail)
    _, gen, sign = token
    if gen not in g._adj or (sign != 1 and sign != -1):
        W.check_letters(g, ((gen, sign),))
    return _left_block(model, g, W.single(gen, sign), sign, seq.head, seq.tail, W.multiply)


def act_word(model: BaseModel, g: Graph, tokens, seq: NormalSequence) -> NormalSequence:
    for token in reversed(tokens):
        seq = act_letter(model, g, token, seq)
    return seq


def to_normal_sequence(model: BaseModel, g: Graph, tokens) -> NormalSequence:
    """Canonical form of the element spelled by the tokens."""
    return act_word(model, g, tokens, base_sequence(model))


def word_of(seq: NormalSequence) -> tuple[Token, ...]:
    toks = [u_token(seq.head)]
    for a, u in seq.tail:
        toks.extend(gen_token(gen, e) for gen, e in a)
        toks.append(u_token(u))
    return tuple(toks)


class Engine:
    """Shared element API over a fixed (model, graph) pair.

    Elements are opaque, hashable canonical values; ``key`` serializes them
    into sortable data and two elements are equal in the group iff their
    keys agree.  ``coset_split`` splits an element of the left U-coset gU,
    the vertex set of the coset cube complex, into the coset's canonical
    representative and a U-remainder; the representative (``coset_rep``)
    names gU, and two elements get one name iff they lie in one coset.

    Each engine supplies the primitives ``identity``, ``mul_token``,
    ``tokens``, ``key``, ``coset_split``, ``apartment_key`` and ``format``;
    the group operations below derive from them.  An engine may override a
    derived method with a cheaper computation on its own representation
    that returns the same element.
    """

    regime = "abstract"

    def __init__(self, model: BaseModel, graph: Graph):
        self.model = model
        self.graph = graph

    # -- primitives ----------------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def mul_token(self, a, token):
        """a * token, canonical."""
        raise NotImplementedError

    def tokens(self, a) -> tuple[Token, ...]:
        """A token word spelling a; an element of U is spelled by U tokens only."""
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def coset_split(self, a):
        """(rep, u) with a = rep * u, u in U and rep the same for all of aU."""
        raise NotImplementedError

    def apartment_key(self, n):
        """Canonical key of the apartment containing n * (base apartment)."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    # -- derived -------------------------------------------------------------
    def from_tokens(self, tokens):
        out = self.identity()
        for tok in tokens:
            out = self.mul_token(out, tok)
        return out

    def mul(self, a, b):
        for tok in self.tokens(b):
            a = self.mul_token(a, tok)
        return a

    def inv(self, a):
        return self.from_tokens(invert_tokens(self.model, self.tokens(a)))

    def exponent(self, a) -> int:
        """Image under the generators |-> 1, U |-> 0 homomorphism to Z."""
        return sum(tok[2] for tok in self.tokens(a) if tok[0] == "gen")

    def a_part(self, a) -> W.Word:
        """Image under the epimorphism onto the Artin group that kills U."""
        letters = tuple((tok[1], tok[2]) for tok in self.tokens(a) if tok[0] == "gen")
        return W.normal_form(self.graph, letters)

    def n_part(self, a):
        """a * a_part(a)^-1, the factor in the normal closure of U."""
        toks = tuple(gen_token(gen, -e) for gen, e in reversed(self.a_part(a)))
        return self.mul(a, self.from_tokens(toks))

    def coset_rep(self, a):
        return self.coset_split(a)[0]


class AutomorphicEngine(Engine):
    """Normal-sequence engine; needs phi(O) = O and a finite U."""

    regime = "automorphic"

    def __init__(self, model: BaseModel, graph: Graph):
        if not model.is_automorphic:
            raise RegimeMismatch("automorphic engine needs phi(O) = O")
        super().__init__(model, graph)
        self._O = sorted(u for u in model.U if model.in_O(u))
        # per-engine memos, filled on a miss by the word layer: a block's
        # record block -> (exponent, canonical inverse), and the merge
        # (a, a1) -> canonical a a1 of two blocks
        self._blocks = {}
        self._merges = {}

    def _block(self, a):
        rec = self._blocks.get(a)
        if rec is None:
            e, inverse = W.exponent(a), W.invert(self.graph, a)
            rec = self._blocks[a] = (e, inverse)
            self._blocks.setdefault(inverse, (-e, a))
        return rec

    def _exponent(self, a):
        return self._block(a)[0]

    def _multiply(self, g, a, a1):
        # W.multiply's signature; g is always the engine's graph
        merged = self._merges.get((a, a1))
        if merged is None:
            merged = self._merges[a, a1] = W.multiply(g, a, a1)
        return merged

    def identity(self):
        return base_sequence(self.model)

    def mul_token(self, a, token):
        if token[0] == "u":
            return _right_u(self.model, a, token[1], self._exponent)
        return _right_letter(self.model, self.graph, a, token[1], token[2])

    def tokens(self, a):
        return word_of(a)

    def key(self, a):
        return a.head, a.tail

    def coset_split(self, a):
        # the least key over aU, a = (a v) * v^-1: as v runs over U, un v =
        # omega r runs over O x R, r = 1 (the least permutation) in the least
        # key, and c = phi^{e(an)}(omega) enters the pairs before an from O
        m = self.model
        if not a.tail:
            return base_sequence(m), a.head
        an, un = a.tail[-1]
        rest = NormalSequence(a.head, a.tail[:-1])
        (head, tail), c = min((_right_u(m, rest, c, self._exponent), c) for c in self._O)
        x = m.mul(m.inv(m.phi_power(c, -self._exponent(an))), un)
        return NormalSequence(head, tail + ((an, m.identity()),)), x

    def apartment_key(self, n):
        # apartments n*Sigma0 = n'*Sigma0 iff n^-1 n' lies in the pointwise
        # stabiliser of the base apartment, which is O here
        return min(self.key(_right_u(self.model, n, w, self._exponent)) for w in self._O)

    def format(self, a):
        m = self.model
        parts = [m.format_u(a.head)]
        for word, u in a.tail:
            parts.append(W.format_word(word))
            parts.append(m.format_u(u))
        return " ".join(parts)

    # Overrides: a's blocks act on the left of b whole, with one decompose,
    # phi power and merge lookup each; a block's exponent and inverse are
    # read from its record.
    def mul(self, a, b):
        m, g = self.model, self.graph
        head, tail = b
        for block, u in reversed(a.tail):
            e = self._exponent(block)
            head, tail = _left_block(m, g, block, e, m.mul(u, head), tail, self._multiply)
        return NormalSequence(m.mul(a.head, head), tail)

    def inv(self, a):
        # a^-1 = un^-1 an^-1 ... u1^-1 a1^-1 u0^-1, folded from the right
        m, g = self.model, self.graph
        head, tail = m.inv(a.head), ()
        for block, u in a.tail:
            e, inverse = self._block(block)
            head, tail = _left_block(m, g, inverse, -e, head, tail, self._multiply)
            head = m.mul(m.inv(u), head)
        return NormalSequence(head, tail)

    def a_part(self, a):
        # the blocks' product, merged pairwise through the memo
        out = ()
        for block, _ in a.tail:
            out = self._multiply(self.graph, out, block) if out else block
        return out


def verify_relations(model: BaseModel, graph: Graph, samples=None) -> dict:
    """Check the defining relations through whichever engine is in force.

    Beyond t w t^-1 = phi(w) and the edge commutators, this exercises the
    multiplicativity of phi and the letter-inverse identities on arbitrary
    U-heads; a corrupted phi table that survives the direct comparison still
    trips those.  Raises RelationViolation on failure.
    """
    engine = engine_for(model, graph)
    checked = {"conjugation": 0, "multiplicativity": 0, "commutators": 0, "inverses": 0}
    if samples is None:
        if hasattr(model, "U"):
            samples = sorted(model.U)
        else:
            samples = [0, 1, -1, 2, 5, model.m, -3 * model.m]
    o_samples = [u for u in samples if model.in_O(u)]

    elem = engine.from_tokens

    def expect(name, lhs, rhs):
        if engine.key(lhs) != engine.key(rhs):
            raise RelationViolation(name)

    for t in graph.vertices:
        for w in o_samples:
            expect(
                f"t w t^-1 != phi(w) for t={t!r}, w={model.format_u(w)}",
                elem((gen_token(t, 1), u_token(w), gen_token(t, -1))),
                elem((u_token(model.phi(w)),)),
            )
            checked["conjugation"] += 1
        for w1 in o_samples[:6]:
            for w2 in o_samples[:6]:
                lhs = elem(
                    (gen_token(t, 1), u_token(model.mul(w1, w2)), gen_token(t, -1))
                )
                rhs = engine.mul(
                    elem((gen_token(t, 1), u_token(w1), gen_token(t, -1))),
                    elem((gen_token(t, 1), u_token(w2), gen_token(t, -1))),
                )
                expect(f"phi not multiplicative through {t!r}", lhs, rhs)
                checked["multiplicativity"] += 1
        for u0 in samples:
            for sign in (1, -1):
                expect(
                    f"{t}^{-sign} {t}^{sign} u != u at u={model.format_u(u0)}",
                    elem((gen_token(t, -sign), gen_token(t, sign), u_token(u0))),
                    elem((u_token(u0),)),
                )
                checked["inverses"] += 1
    for e in graph.edges:
        s, t = sorted(e)
        for u0 in samples[:4]:
            expect(
                f"[{s},{t}] != 1 through the engine",
                elem((gen_token(s, 1), gen_token(t, 1), u_token(u0))),
                elem((gen_token(t, 1), gen_token(s, 1), u_token(u0))),
            )
            checked["commutators"] += 1
    return {"engine": engine.regime, "checked": checked, "ok": True}


def engine_for(model: BaseModel, graph: Graph) -> Engine:
    """Pick the canonical-form engine for this (model, graph) pair."""
    from .britton import TreeEngine
    from .semidirect import SemidirectEngine

    if model.is_automorphic:
        return AutomorphicEngine(model, graph)
    if model.is_shrinking:
        if graph.is_connected():
            return SemidirectEngine(model, graph)
        if not graph.edges:
            return TreeEngine(model, graph)
        raise RegimeMismatch(
            "shift models need a connected graph (or an edgeless one); "
            "split the graph into connected components first"
        )
    if not graph.edges:
        return TreeEngine(model, graph)
    raise RegimeMismatch(
        "no canonical form: model is neither automorphic nor shrinking and "
        "the graph has edges"
    )

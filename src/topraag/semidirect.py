"""Canonical elements over a shift model with a connected graph.

With O = U = Z and phi multiplication by m, the normal closure N of U is the
ascending union of the conjugates s^-k U s^k, and s^-k u s^k |-> u / m^k
identifies it with Z[1/m]: an element of N is stored as that value, an int or
a Fraction, and spelled as the pair (k, u) with k least only in keys and
output.  Every element splits uniquely as n * a with n in N and a an Artin
word, and every Artin generator conjugates N by one shift:

    a * n * a^-1  =  n * m^e(a).

That law is derived, not displayed, so it ships with two oracles: the
conjugation-agreement test across generator pairs and the Britton cross-check
against the one-letter HNN of U (see ``britton`` and the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import words as W
from .errors import DisconnectedGraph, NotInDomain, RegimeMismatch
from .graphs import Graph
from .models import INFINITE, ShiftModel
from .elements import Engine, gen_token, u_token


@dataclass(frozen=True)
class SemidirectElement:
    """n * a with n the value in Z[1/m] of a normal-closure element and a
    canonical.

    e is the exponent of a, carried so that no operation re-sums the word;
    every constructor sets it, and it takes no part in equality."""

    n: int | Fraction
    a: W.Word
    e: int = field(compare=False)


class SemidirectEngine(Engine):
    regime = "semidirect"

    def __init__(self, model: ShiftModel, graph: Graph):
        if not model.is_shrinking:
            raise RegimeMismatch("semidirect engine needs O = U with phi shrinking")
        if not graph.is_connected():
            raise DisconnectedGraph("semidirect engine needs a connected graph")
        super().__init__(model, graph)
        # (a, gen, sign) -> canonical a gen^sign.  The Artin parts of a ball's
        # elements come from a small Artin ball, so one-letter products repeat;
        # a miss runs multiply_letter, which checks the letter, so a bad
        # letter is never stored.
        self._letter_products = {}

    def identity(self):
        return SemidirectElement(0, (), 0)

    def make(self, n, a: W.Word) -> SemidirectElement:
        a = W.normal_form(self.graph, a)
        return SemidirectElement(n, a, W.exponent(a))

    def mul_token(self, g, token):
        if token[0] == "u":
            if not isinstance(token[1], int):
                raise NotInDomain(f"{token[1]!r} is not in U = Z")
            return SemidirectElement(g.n + token[1] * self.model.scale(g.e), g.a, g.e)
        _, gen, sign = token
        key = (g.a, gen, sign)
        a = self._letter_products.get(key)
        if a is None:
            a = self._letter_products[key] = W.multiply_letter(self.graph, g.a, (gen, sign))
        return SemidirectElement(g.n, a, g.e + sign)

    def tokens(self, g):
        # n * a spelled t^-k u t^k a: every generator conjugates the normal
        # closure by the same shift, so any one of them serves as t
        t = self.graph.vertices[0]
        k, u = self.model.spell(g.n)
        toks = [gen_token(t, -1)] * k + [u_token(u)] + [gen_token(t, 1)] * k
        return tuple(toks) + tuple(gen_token(gen, e) for gen, e in g.a)

    def key(self, g):
        return (self.model.spell(g.n), g.a)

    def coset_split(self, g):
        # gU = g'U iff the Artin parts agree and the n-parts agree modulo
        # s^e U s^-e = m^e Z with e the common exponent; g = rep * u with
        # n = rep + u * m^e, so u is the floor quotient
        u, rep = divmod(g.n, self.model.scale(g.e))
        return SemidirectElement(rep, g.a, g.e), u

    def apartment_key(self, n):
        # the pointwise stabiliser of the base apartment is trivial here
        if n.a:
            raise ValueError("apartment keys take elements of the normal closure")
        return self.model.spell(n.n)

    def latitude(self, g):
        """Latitude of an element of the normal closure."""
        if g.a:
            raise ValueError("latitude takes elements of the normal closure")
        return self.model.latitude(g.n)

    def format(self, g):
        k, u = self.model.spell(g.n)
        n_str = f"({self.model.format_u(u)}/{self.model.m}^{k})"
        a_str = W.format_word(g.a) or "1"
        return f"{n_str} * {a_str}"

    # one exact expression on the value: overrides of the derived operations
    def mul(self, g, h):
        n = g.n + h.n * self.model.scale(g.e)
        return SemidirectElement(n, W.multiply(self.graph, g.a, h.a), g.e + h.e)

    def inv(self, g):
        return SemidirectElement(-g.n * self.model.scale(-g.e), W.invert(self.graph, g.a), -g.e)

    def a_part(self, g):
        return g.a

    def n_part(self, g):
        return SemidirectElement(g.n, (), 0)


def random_semidirect_tokens(model: ShiftModel, graph: Graph, rng, length: int):
    """Random token word over U and the generators, for sampling tests."""
    toks = []
    for _ in range(length):
        if rng.random() < 0.4:
            toks.append(u_token(rng.randint(-3 * model.m, 3 * model.m)))
        else:
            toks.append(gen_token(rng.choice(graph.vertices), rng.choice((1, -1))))
    return tuple(toks)


__all__ = [
    "SemidirectElement",
    "SemidirectEngine",
    "random_semidirect_tokens",
    "INFINITE",
]

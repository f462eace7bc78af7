"""Words in a right-angled Artin group and their canonical forms.

A word is a tuple of letters (generator, +1/-1).  The canonical form of a
word is the ShortLex-least word of its class under cancelling and swapping
commuting letters.  One rule computes it: ``multiply_letter`` appends one
letter to a canonical word, and ``normal_form`` is its fold from the empty
word.  Two canonical words are equal in the group iff they are equal as
tuples.
"""

from __future__ import annotations

from .errors import NotAJoinFactor, UnknownGenerator, WordLengthCap
from .graphs import Graph

Letter = tuple[str, int]
Word = tuple[Letter, ...]

WORD_LENGTH_CAP = 10_000


def parse_word(text: str) -> Word:
    """Parse whitespace-separated tokens like "s t^-1 s" into a word."""
    letters = []
    for tok in text.split():
        if "^" in tok:
            gen, _, exp = tok.partition("^")
            n = int(exp)
        else:
            gen, n = tok, 1
        if n == 0:
            continue
        sign = 1 if n > 0 else -1
        letters.extend([(gen, sign)] * abs(n))
    return tuple(letters)


def format_word(w: Word) -> str:
    if not w:
        return ""
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in w)


def check_letters(g: Graph, w: Word) -> None:
    for gen, e in w:
        if gen not in g._adj:
            raise UnknownGenerator(f"letter {gen!r} is not a vertex of the graph")
        if e not in (1, -1):
            raise UnknownGenerator(f"letter exponent must be +1/-1, got {e}")


def exponent(w: Word) -> int:
    return sum(e for _, e in w)


def is_balanced(relators) -> bool:
    """True iff every relator has exponent sum zero."""
    return all(exponent(r) == 0 for r in relators)


def free_invert(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def normal_form(g: Graph, w: Word) -> Word:
    """Canonical form of w: the fold of ``multiply_letter`` from the empty
    word, canonical by induction on the length."""
    if len(w) > WORD_LENGTH_CAP:
        raise WordLengthCap(f"word of length {len(w)} exceeds cap {WORD_LENGTH_CAP}")
    out = ()
    for x in w:
        out = multiply_letter(g, out, x)
    return out


def multiply(g: Graph, w1: Word, w2: Word) -> Word:
    return normal_form(g, tuple(w1) + tuple(w2))


def multiply_letter(g: Graph, w: Word, x: Letter) -> Word:
    """Canonical form of w x, for w canonical and one letter x; w is not
    checked.

    Scan back from the end of w past the letters commuting with x.  If the
    scan stops at x^-1, that letter cancels.  Otherwise x may sit anywhere
    after the stop, and it goes before the first letter there whose
    generator comes later in the vertex order, which gives the least such
    word (Hermiller-Meier ShortLex forms of graph products).  The letters
    passed commute with x, so none has x's generator and the sign never
    decides.  A tuple x is stored as it is, so words share letter objects;
    any other spelling is stored as the tuple (gen, e), so that a later
    x^-1 finds it even when x came as a list.  A prepended letter can
    reorder the letters after it, so left multiples keep ``multiply``.
    """
    gen, e = x
    commuting = g._adj.get(gen)
    if commuting is None or (e != 1 and e != -1):
        check_letters(g, (x,))
    i = len(w) - 1
    while i >= 0 and w[i][0] in commuting:
        i -= 1
    if i >= 0 and w[i] == (gen, -e):
        return w[:i] + w[i + 1:]
    if len(w) >= WORD_LENGTH_CAP:
        raise WordLengthCap(f"word of length {len(w) + 1} exceeds cap {WORD_LENGTH_CAP}")
    order = g.order
    rank = order[gen]
    i += 1
    while i < len(w) and order[w[i][0]] < rank:
        i += 1
    return w[:i] + (x if type(x) is tuple else (gen, e),) + w[i:]


def invert(g: Graph, w: Word) -> Word:
    return normal_form(g, free_invert(w))


def single(gen: str, e: int = 1) -> Word:
    return ((gen, e),)


def parabolic_project(g: Graph, t_subset, w: Word) -> Word:
    """Delete letters outside T; valid when T and its complement commute."""
    keep = set(t_subset)
    unknown = keep - set(g.vertices)
    if unknown:
        raise UnknownGenerator(f"unknown vertices in T: {sorted(unknown)}")
    rest = set(g.vertices) - keep
    for a in keep:
        for b in rest:
            if not g.adjacent(a, b):
                raise NotAJoinFactor(
                    f"[T, S-T] != 1: {a!r} and {b!r} are not adjacent"
                )
    sub = g.induced(keep)
    return normal_form(sub, tuple(l for l in w if l[0] in keep))

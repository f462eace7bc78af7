"""Words in a right-angled Artin group and their canonical forms.

A word is a tuple of letters (generator, +1/-1).  The canonical form of a
word is the ShortLex-least element of its shuffle class after it has been
made shuffle-reduced: each letter in turn cancels against an earlier inverse
separated from it only by letters commuting with it, and the reduced word is
then rewritten greedily into the least lexicographic order of its shuffle
class.  Two canonical words are equal in the group iff they are equal as
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


def _shuffle_reduce(g: Graph, w) -> list[Letter]:
    # One backward scan per appended letter: skip the letters commuting with
    # it, then cancel against a matching inverse.  The scan stops at the same
    # generator or at a non-commuting letter.  A cancelled letter commutes
    # with every letter after it, so removing it never unblocks another pair
    # and the output stays reduced.
    adj = g._adj
    out = []
    for letter in w:
        gen, e = letter
        i = len(out) - 1
        while i >= 0 and out[i][0] in adj[gen]:
            i -= 1
        if i >= 0 and out[i] == (gen, -e):
            del out[i]
        else:
            out.append(letter)
    return out


def _lex_least(g: Graph, w: list[Letter]) -> list[Letter]:
    # Greedy extraction of the ShortLex-least member of the shuffle class:
    # repeatedly emit the least letter that commutes with everything still
    # pending to its left.  Plain adjacent bubbling to a fixpoint is NOT
    # enough: a word can be locally swap-minimal without being least (e.g.
    # over the 4-cycle a-b-c-d the words "a^-1 c^-1 a b" and "a^-1 b c^-1 a"
    # are both bubble-fixed but equal in the group).
    # One scan per emitted letter: `allowed` holds the generators commuting
    # with every pending letter seen so far (no self-loops, so a repeated
    # generator is blocked too).
    order, adj = g.order, g._adj
    pending = list(w)
    out = []
    while pending:
        gen, e = pending[0]
        best, best_key = 0, (order[gen], e != 1)
        allowed = adj[gen]
        for i in range(1, len(pending)):
            if not allowed:
                break
            gen, e = pending[i]
            if gen in allowed:
                key = (order[gen], e != 1)
                if key < best_key:
                    best, best_key = i, key
            allowed = allowed & adj[gen]
        out.append(pending.pop(best))
    return out


def normal_form(g: Graph, w: Word) -> Word:
    if len(w) > WORD_LENGTH_CAP:
        raise WordLengthCap(f"word of length {len(w)} exceeds cap {WORD_LENGTH_CAP}")
    check_letters(g, w)
    return tuple(_lex_least(g, _shuffle_reduce(g, w)))


def multiply(g: Graph, w1: Word, w2: Word) -> Word:
    return normal_form(g, tuple(w1) + tuple(w2))


def multiply_letter(g: Graph, w: Word, x: Letter) -> Word:
    """Canonical form of w x, for w canonical (as normal_form returns it) and
    one letter x; w is not checked.

    Scan back from the end of w past the letters commuting with x.  If the
    scan stops at x^-1, that letter cancels.  Otherwise x may sit anywhere
    after the stop, and it goes before the first letter there whose
    generator comes later in the vertex order, which gives the least such
    word (Hermiller-Meier ShortLex forms of graph products).  The letters
    passed commute with x, so none has x's generator and the sign never
    decides.  A prepended letter can reorder the letters after it, so left
    multiples keep ``multiply``.
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
    return w[:i] + (x,) + w[i:]


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

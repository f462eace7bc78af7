"""Reference implementations kept beside the tests as oracles.

``normal_form_bruteforce`` is the ShortLex-least word of the whole shuffle
class, found by search; of the word layer it uses only ``check_letters``.

``chain_complex`` accepts hand-oriented cell lists: a face may be stored
under any corner indexing of its cube, and every incidence is signed by the
hypercube symmetry between the stored and the induced indexing.  The
library's chain_complex requires faces in induced sub-mask order and must
agree with this one on every complex that topraag produces.
"""

from topraag.errors import NonClosedComplex, WordLengthCap
from topraag.homology import ChainComplex, SparseMatrix
from topraag.words import check_letters


def chain_complex(cells) -> ChainComplex:
    """Cellular chain complex of a cube collection.

    ``cells`` is a CubeBall or an iterable of (dim, ctype, corners) with
    corners indexed by subset bitmask.  The boundary of a d-cube is the
    signed sum over coordinates of (upper face - lower face), sign (-1)^i.
    Each degree's cells are ordered colexicographically, largest corner
    first, so for every n the cells on vertex ids < n come first in every
    degree: the full subcomplex on an id prefix is a column prefix.
    Raises NonClosedComplex when a face is missing.
    """
    records = cells.cells_for_homology() if hasattr(cells, "cells_for_homology") else list(cells)
    index: dict[tuple[int, frozenset], int] = {}
    stored: dict[int, list[tuple]] = {}
    for dim, ctype, corners in sorted(records, key=lambda r: (r[0], sorted(r[2], reverse=True))):
        key = (dim, frozenset(corners))
        if key in index:
            continue
        column = stored.setdefault(dim, [])
        index[key] = len(column)
        column.append(tuple(corners))
    per_dim = {d: len(column) for d, column in stored.items()}
    boundaries = {}
    for dim in range(1, max(per_dim, default=0) + 1):
        bd = boundaries[dim] = SparseMatrix(per_dim.get(dim - 1, 0), per_dim.get(dim, 0))
        for col, corners in enumerate(stored.get(dim, ())):
            for i in range(dim):
                sign = (-1) ** i
                lower, upper = _face_corner_tuples(corners, dim, i)
                for face, fsign in ((upper, sign), (lower, -sign)):
                    row = index.get((dim - 1, frozenset(face)))
                    if row is None:
                        raise NonClosedComplex(
                            f"missing {dim - 1}-face of a {dim}-cube: {sorted(face)}"
                        )
                    orient = _relative_orientation(stored[dim - 1][row], face)
                    bd.set(row, col, bd.get(row, col) + fsign * orient)
    return ChainComplex(boundaries, per_dim, stored)


def _face_corner_tuples(corners, dim, axis):
    """Corner tuples (in induced sub-mask order) of both faces along an axis."""
    lower = []
    upper = []
    for mask in range(1 << dim):
        if (mask >> axis) & 1:
            upper.append(corners[mask])
        else:
            lower.append(corners[mask])
    return tuple(lower), tuple(upper)


def _relative_orientation(stored: tuple, induced: tuple) -> int:
    """Orientation of one corner-indexing of a cube against another.

    Both tuples index the same vertex set by {0,1}^d bitmasks.  The transition
    is a hypercube symmetry X -> pi(X xor c); its orientation is the parity of
    the axis permutation pi times (-1)^popcount(c).  Raw cell lists may orient
    shared faces arbitrarily, so this factor keeps dd = 0.
    """
    if stored == induced:
        return 1
    d = (len(stored) - 1).bit_length()
    pos = {v: mask for mask, v in enumerate(stored)}
    c = pos[induced[0]]
    perm = []
    for i in range(d):
        image = pos[induced[1 << i]] ^ c
        if image.bit_count() != 1:
            raise NonClosedComplex("face vertex sets do not match a cube symmetry")
        perm.append(image.bit_length() - 1)
    # verify the remaining corners agree with the inferred symmetry
    for mask in range(1 << d):
        mapped = 0
        for i in range(d):
            if (mask >> i) & 1:
                mapped |= 1 << perm[i]
        if pos[induced[mask]] != mapped ^ c:
            raise NonClosedComplex("face vertex sets do not match a cube symmetry")
    sign = -1 if _permutation_parity(perm) else 1
    if c.bit_count() % 2:
        sign = -sign
    return sign


def _permutation_parity(perm) -> bool:
    """True for odd permutations."""
    seen = [False] * len(perm)
    odd = False
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            odd = not odd
    return odd


def shuffle_class(g, w, cap: int = 200_000) -> set:
    """Every word reachable by swaps of adjacent commuting letters and by
    cancelling adjacent inverse pairs.  Brute-force oracle for small words."""
    check_letters(g, w)
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if a[0] == b[0] and a[1] == -b[1]:
                nxt = cur[:i] + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            elif a[0] != b[0] and g.adjacent(a[0], b[0]):
                nxt = cur[:i] + (b, a) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) > cap:
            raise WordLengthCap("shuffle class exploded past the oracle cap")
    return seen


def _letter_key(g, letter):
    gen, e = letter
    return (g.order[gen], 0 if e == 1 else 1)


def normal_form_bruteforce(g, w) -> tuple:
    """Oracle: ShortLex-least member of the full shuffle class."""
    cls = shuffle_class(g, w)
    shortest = min(len(x) for x in cls)
    candidates = [x for x in cls if len(x) == shortest]
    return min(candidates, key=lambda x: [_letter_key(g, l) for l in x])

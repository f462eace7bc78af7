"""Reference implementations kept beside the tests as oracles.

``normal_form_bruteforce`` is the ShortLex-least word of the whole shuffle
class, found by search; of the word layer it uses only ``W.check_letters``.
``normal_form_greedy`` reaches the same word for long inputs by another
algorithm: one shuffle-reducing pass, then greedy extraction of the least
letter.

``chain_complex`` accepts hand-oriented cell lists: a face may be stored
under any corner indexing of its cube, and every incidence is signed by the
hypercube symmetry between the stored and the induced indexing.  The
library's chain_complex requires faces in induced sub-mask order and must
agree with this one on every complex that topraag produces.

``cube_faces`` lists the faces of a ball cube by enumerating all pairs of
bitmasks, and ``skeleton_neighbours`` reads the 1-skeleton of a ball from
its 1-cubes; the ball itself keeps neither.

``ball_json`` is the export of a ball as a dict: ``build --out`` writes
the bytes of ``json.dumps(ball_json(ball), indent=2, sort_keys=True)`` and a
newline, record by record, without building it.

``cube_element`` multiplies out the element g = r_v c that defines a ball
cube.  ``stabiliser_by_action`` and ``fixed_cells_by_action`` act with
engine elements on the ball's vertex representatives: n fixes a vertex iff
n * rep lies in its coset.  They check the table-walk stabilisers and the
name-based fixed cells of ``topraag.complexes``.  ``link_by_scan`` builds
the link of one vertex by a scan over every cube of the ball.

``rank_over_Q`` (fraction elimination) and ``rank_mod2`` (bitmask
elimination) check the ranks of the Smith normal form; the two Euler
characteristics check homology against cell counts.  ``reference_snf`` is
the Smith normal form by a heap-driven row sweep of +-1 pivots, the dense
core reduced by the transform path of ``smith_normal_form``; it checks the
column reduction, with and without clearing.

``least_key_coset_split`` is the automorphic engine's coset split by search:
the least key over all of ``aU``, one right action by each element of U.
``inverse_tail_key`` names ``aU`` another way, by the tail of the normal
sequence of ``a^-1``: U acting on the left of ``a^-1`` changes only its head.

``bs_word_reduce`` / ``bs_words_equal`` decide equality in BS(1, m) by
pinch-only Britton reduction, ``britton_is_pinch_free`` checks the output of
``hnn_retract``, and ``AmalgamNormalizer`` gives the classical amalgam normal
form when phi is the identity on O, independent of the rewriting engine.
"""

from fractions import Fraction

import heapq
import itertools

from topraag import words as W
from topraag.complexes import base_apartment_trace
from topraag.elements import invert_tokens, to_normal_sequence, u_token
from topraag.graphs import SimplicialComplex
from topraag.errors import NonClosedComplex, RegimeMismatch, WordLengthCap
from topraag.homology import ChainComplex, SparseMatrix, smith_normal_form


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


def cube_faces(cube) -> set:
    """Vertex sets of all 3^d faces of a cube, one per pair A <= B <= ctype:
    the face of (A, B) spans the corners whose bitmask x has A <= x <= B."""
    d = cube.dim
    out = set()
    for lo in range(1 << d):
        rest = [i for i in range(d) if not (lo >> i) & 1]
        for pick in range(1 << len(rest)):
            hi = lo
            for j, i in enumerate(rest):
                if (pick >> j) & 1:
                    hi |= 1 << i
            out.add(frozenset(
                cube.corners[x] for x in range(1 << d) if (x & lo) == lo and (x | hi) == hi
            ))
    return out


def skeleton_neighbours(ball) -> list[set]:
    """Neighbours of every vertex of a ball, read from its 1-cubes."""
    out = [set() for _ in range(ball.n_vertices)]
    for cube in ball.cubes:
        if cube.dim == 1:
            a, b = cube.corners
            out[a].add(b)
            out[b].add(a)
    return out


def ball_json(ball) -> dict:
    """The ball's vertices, cubes and meta block as the export lays them out."""
    return {
        "vertices": [
            {"id": v, "rep": ball.engine.format(rep), "exp": e, "dist": d}
            for v, (rep, d, e) in enumerate(zip(ball.vertex_reps, ball.dist, ball.exponent))
        ],
        "cubes": [
            {"dim": c.dim, "type": list(c.ctype), "verts": sorted(c.corners),
             "min_corner": c.corners[0]}
            for c in ball.cubes
        ],
        "meta": {
            "model": ball.model.to_json(),
            "graph": ball.graph.to_json(),
            "radius": ball.radius,
            "regime": ball.engine.regime,
        },
    }


def cube_element(ball, cube):
    """The element g = r_v c defining the cube, v = cube.corners[0] and
    c = cube.rep: its corner of mask S is g t_S U."""
    return ball.engine.mul_token(ball.vertex_reps[cube.corners[0]], u_token(cube.rep))


def stabiliser_by_action(ball, cube) -> set:
    """The u in U whose conjugate g u g^-1, g = cube_element(ball, cube),
    fixes every corner of the cube by engine action."""
    engine = ball.engine
    g = cube_element(ball, cube)
    g_inv = engine.inv(g)
    out = set()
    for u in ball.model.U:
        n = engine.mul(engine.mul_token(g, u_token(u)), g_inv)
        if all(ball.vertex_id_of(engine.mul(n, ball.vertex_reps[v])) == v for v in cube.corners):
            out.add(u)
    return out


def fixed_cells_by_action(ball, n):
    """The trace vertex words and trace cubes (word, ctype, cube id) of the
    base apartment fixed pointwise by n, acting on every corner."""
    verts, cubes = base_apartment_trace(ball)
    engine = ball.engine
    fixed_ids = {
        v for v in set(verts.values())
        if ball.vertex_id_of(engine.mul(n, ball.vertex_reps[v])) == v
    }
    fixed_vertices = {word for word, v in verts.items() if v in fixed_ids}
    fixed_cubes = [
        (word, ctype, cid) for word, ctype, cid in cubes
        if fixed_ids.issuperset(ball.cubes[cid].corners)
    ]
    return fixed_vertices, fixed_cubes


def link_by_scan(ball, v):
    """The link of v, one simplex per nonempty set of the edges at v of a
    positive-dimensional cube cornered at v, scanning every cube; None when
    there is none."""
    simplices = set()
    for c in ball.cubes:
        if c.dim == 0 or v not in c.corners:
            continue
        mask_v = c.corners.index(v)
        edges = [frozenset((v, c.corners[mask_v ^ (1 << i)])) for i in range(c.dim)]
        for k in range(1, c.dim + 1):
            for combo in itertools.combinations(edges, k):
                simplices.add(frozenset(combo))
    return SimplicialComplex(frozenset(simplices)) if simplices else None


def shuffle_class(g, w, cap: int = 200_000) -> set:
    """Every word reachable by swaps of adjacent commuting letters and by
    cancelling adjacent inverse pairs.  Brute-force oracle for small words."""
    W.check_letters(g, w)
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


def shuffle_reduce(g, w) -> list:
    """Cancel every letter against an earlier inverse separated from it only
    by letters commuting with it, in one pass.

    One backward scan per appended letter: skip the letters commuting with
    it, then cancel against a matching inverse.  The scan stops at the same
    generator or at a non-commuting letter.  A cancelled letter commutes
    with every letter after it, so removing it never unblocks another pair
    and the output stays reduced.
    """
    out = []
    for letter in w:
        gen, e = letter
        i = len(out) - 1
        while i >= 0 and g.adjacent(gen, out[i][0]):
            i -= 1
        if i >= 0 and out[i] == (gen, -e):
            del out[i]
        else:
            out.append(letter)
    return out


def lex_least(g, w) -> list:
    """Least lexicographic member of the shuffle class of a reduced word.

    Repeatedly emit the least letter that commutes with everything still
    pending to its left.  Plain adjacent bubbling to a fixpoint is NOT
    enough: a word can be locally swap-minimal without being least (e.g.
    over the 4-cycle a-b-c-d the words "a^-1 c^-1 a b" and "a^-1 b c^-1 a"
    are both bubble-fixed but equal in the group).

    One scan per emitted letter: ``allowed`` holds the generators commuting
    with every pending letter seen so far (no self-loops, so a repeated
    generator is blocked too).
    """
    pending = list(w)
    out = []
    while pending:
        best, best_key = 0, _letter_key(g, pending[0])
        allowed = g.neighbors(pending[0][0])
        for i in range(1, len(pending)):
            if not allowed:
                break
            gen = pending[i][0]
            if gen in allowed:
                key = _letter_key(g, pending[i])
                if key < best_key:
                    best, best_key = i, key
            allowed = allowed & g.neighbors(gen)
        out.append(pending.pop(best))
    return out


def normal_form_greedy(g, w) -> tuple:
    """Oracle for long words: the greedy extraction of the reduced word."""
    W.check_letters(g, w)
    return tuple(lex_least(g, shuffle_reduce(g, w)))


def least_key_coset_split(engine, a) -> tuple:
    """Oracle: (rep, x) with rep the normal sequence of least key over aU and
    a = rep * x, searched over every u in U as rep = a u, x = u^-1."""
    model = engine.model
    cands = ((engine.mul_token(a, u_token(u)), u) for u in sorted(model.U))
    rep, u = min(cands, key=lambda c: engine.key(c[0]))
    return rep, model.inv(u)


def inverse_tail_key(engine, a) -> tuple:
    """Oracle: a name of the coset aU in the automorphic regime, the tail of
    a^-1 = (a^-1)_head (1; tail), folded from a's tokens by the reference
    left fold; two elements share it iff they lie in one coset."""
    model = engine.model
    return to_normal_sequence(model, engine.graph, invert_tokens(model, engine.tokens(a))).tail


def rank_over_Q(matrix) -> int:
    """Independent rank oracle: fraction Gaussian elimination."""
    if isinstance(matrix, SparseMatrix):
        matrix = [[matrix.get(i, j) for j in range(matrix.ncols)] for i in range(matrix.nrows)]
    mat = [[Fraction(v) for v in row] for row in matrix]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(m):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def rank_mod2(matrix) -> int:
    """Rank over GF(2) via bitmask elimination."""
    if isinstance(matrix, SparseMatrix):
        rows = [0] * matrix.nrows
        for i, j, v in matrix.entries():
            if v % 2:
                rows[i] ^= 1 << j
    else:
        rows = []
        for row in matrix:
            bits = 0
            for j, v in enumerate(row):
                if v % 2:
                    bits |= 1 << j
            rows.append(bits)
    rank = 0
    for col_bit in _bits_in_use(rows):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & col_bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & col_bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _bits_in_use(rows):
    used = 0
    for r in rows:
        used |= r
    out = []
    bit = 1
    while bit <= used:
        if used & bit:
            out.append(bit)
        bit <<= 1
    return out


def reference_snf(matrix: SparseMatrix) -> list[int]:
    """Smith normal form divisors: a sparse +-1 pivot sweep, then the dense
    core through the transform path of smith_normal_form."""
    rows = {i: dict(row) for i, row in matrix.rows.items() if row}
    units = _sparse_unit_eliminate(rows)
    return [1] * units + smith_normal_form(_extract_core(rows), with_transforms=True).divisors


def _sparse_unit_eliminate(rows: dict[int, dict[int, int]]) -> int:
    """Eliminate +-1 pivots in place in one pass; returns their number.

    Rows are visited shortest first through a lazy heap: every row that an
    elimination changes is pushed again under its new length, and stale
    entries are skipped when popped, so each row is looked at after its last
    change and no +-1 entry survives.  Within a row the unit whose column
    has the fewest entries is taken, which keeps fill-in low.  A unit pivot
    needs only row operations to clear its column; its row and column then
    drop out, since column operations would touch nothing else.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    count = 0
    while heap:
        length, pi = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or len(prow) != length:
            continue
        pj = None
        for j, v in prow.items():
            if (v == 1 or v == -1) and (pj is None or len(cols[j]) < len(cols[pj])):
                pj = j
        if pj is None:
            continue
        pv = prow[pj]
        del rows[pi]
        for j in prow:
            cols[j].discard(pi)
        for i in cols.pop(pj):
            row = rows[i]
            factor = row.pop(pj) * pv  # pv is its own inverse
            for j, v in prow.items():
                if j == pj:
                    continue
                new = row.get(j, 0) - factor * v
                if new:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    cols[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del rows[i]
        count += 1
    return count


def _extract_core(rows):
    live_rows = sorted(rows)
    live_cols = sorted({j for row in rows.values() for j in row})
    return [[rows[i].get(j, 0) for j in live_cols] for i in live_rows]


def euler_characteristic_from_counts(counts: dict[int, int]) -> int:
    return sum((-1) ** d * n for d, n in counts.items())


def euler_characteristic_from_homology(res) -> int:
    # reduced: add back the augmentation rank
    return 1 + sum((-1) ** d * b for d, b in res.betti.items())


def britton_is_pinch_free(model, bw) -> bool:
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


def bs_word_reduce(model, tokens) -> tuple:
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


def bs_words_equal(model, toks1, toks2) -> bool:
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

    def __init__(self, model, graph):
        ident = model.identity()
        for w in getattr(model, "O", [ident]):
            if model.phi(w) != w:
                raise RegimeMismatch("amalgam oracle needs phi = id on O")
        self.model = model
        self.graph = graph

    def identity(self):
        return (self.model.identity(), ())

    def normalize(self, tokens):
        """The form (o, chain); equal elements give equal, hashable forms."""
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

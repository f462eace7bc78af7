"""Exact integral cellular homology of finite cube complexes.

Boundary matrices carry the standard cubical signs; Smith normal form runs
over arbitrary-precision integers as one column reduction by unit pivots
before the dense core reduction, top down through a chain complex with
clearing, and every chain complex is checked to satisfy dd = 0 on
construction.  Reduced homology is computed from the augmented complex, and
persistence ranks are read off the bigger complex's pivots.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

from .errors import EmptyWindow, NonClosedComplex

class SparseMatrix:
    """Integer matrix as row -> {col: value}."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}

    def set(self, i: int, j: int, v: int):
        row = self.rows.setdefault(i, {})
        if v:
            row[j] = v
        else:
            row.pop(j, None)

    def get(self, i: int, j: int) -> int:
        return self.rows.get(i, {}).get(j, 0)

    def entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        out = SparseMatrix(self.nrows, other.ncols)
        for i, row in self.rows.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in other.rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, v in acc.items():
                if v:
                    out.set(i, j, v)
        return out


@dataclass
class SNFResult:
    divisors: list[int]      # nonzero diagonal entries, each dividing the next
    rank: int
    shape: tuple[int, int]
    transforms: tuple | None = None   # (S, T) with S * M * T = D when requested
    lows: frozenset = frozenset()     # rows of the unit pivots of the column reduction
    core: list = field(default_factory=list)   # residual columns (row -> value), cleared

    def diagonal(self):
        m, n = self.shape
        d = [0] * min(m, n)
        for i, v in enumerate(self.divisors):
            d[i] = v
        return d


def smith_normal_form(matrix, with_transforms: bool = False, clear=frozenset()) -> SNFResult:
    """Exact Smith normal form.

    ``matrix`` is a dense list of rows or a SparseMatrix.  Without
    transforms, the columns not in ``clear`` are reduced left to right:
    each is reduced by earlier pivots at its lowest (largest) row until that
    row has no pivot, and it becomes a pivot when its low entry is +-1.
    Every other nonzero column is residual and is then cleared on all pivot
    rows, bottom up.  Column steps are unimodular, and pivots with distinct
    unit lows give D = I_|P| + SNF(core) by row steps that leave the
    cleared residual alone, so only the residual core goes through the
    dense algorithm; ``lows`` and ``core`` keep the reduction.  A column in
    ``clear`` must be an integer combination of the other columns.
    """
    if isinstance(matrix, SparseMatrix):
        rows = matrix.rows
        shape = (matrix.nrows, matrix.ncols)
    else:
        rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(matrix) if any(row)}
        shape = (len(matrix), len(matrix[0]) if matrix else 0)
    if with_transforms:
        dense = [[rows.get(i, {}).get(j, 0) for j in range(shape[1])] for i in range(shape[0])]
        divisors, s_mat, t_mat = _dense_snf(dense, carry=True)
        return SNFResult(divisors, len(divisors), shape, (s_mat, t_mat))
    columns = {j: {} for j in range(shape[1]) if j not in clear}
    for i, row in rows.items():
        for j, v in row.items():
            col = columns.get(j)
            if col is not None:
                col[i] = v
    pivots: dict[int, dict[int, int]] = {}
    residual = []
    for col in columns.values():
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                if col[low] == 1 or col[low] == -1:
                    pivots[low] = col
                else:
                    residual.append(col)
                break
            _subtract(col, pivot, col[low] * pivot[low])  # a unit is its own inverse
    core = []
    for col in residual:
        todo = [-i for i in col if i in pivots]
        heapq.heapify(todo)
        while todo:
            i = -heapq.heappop(todo)
            if i in col:
                pivot = pivots[i]
                for r in _subtract(col, pivot, col[i] * pivot[i]):
                    if r in pivots:
                        heapq.heappush(todo, -r)
        if col:
            core.append(col)
    # every core divisor is a multiple of 1, so the chain stays sorted
    divisors = [1] * len(pivots) + _core_divisors(core, 0)
    return SNFResult(divisors, len(divisors), shape, lows=frozenset(pivots), core=core)


def _subtract(col, pivot, factor):
    """col -= factor * pivot in place; returns the rows it fills in."""
    filled = []
    for i, v in pivot.items():
        new = col.get(i, 0) - factor * v
        if new:
            if i not in col:
                filled.append(i)
            col[i] = new
        else:
            del col[i]
    return filled


def _core_divisors(core, a: int):
    """Smith normal form divisors of the residual core on its rows >= a."""
    live_rows = sorted({i for col in core for i in col if i >= a})
    return _dense_snf([[col.get(i, 0) for col in core] for i in live_rows], carry=False)[0]


def _dense_snf(mat, carry: bool):
    """Smith normal form of a dense matrix; optionally carry the row/column
    transforms S, T with S * M * T = D.

    The pivot is the least nonzero entry left.  Its row and column are
    cleared by 2x2 unimodular steps: an exact quotient where the pivot
    divides the entry, otherwise the extended-gcd step that puts the gcd in
    the pivot and zero beside it.  The pivot strictly shrinks at every gcd
    step, so one clearing takes few sweeps, and the step coefficients are
    bounded by the two entries they combine.  Repeated floor-division
    sweeps that swap remainders into the pivot instead let a 4x6 core reach
    18,000-bit entries; here the entries of random 50x50 cores stay as
    small as the last divisor.  A pivot that does not divide the rest of
    the matrix takes in the offending row and is cleared again, so the
    divisors come out as a sorted divisibility chain.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    s_mat = [[int(i == j) for j in range(m)] for i in range(m)] if carry else None
    t_mat = [[int(i == j) for j in range(n)] for i in range(n)] if carry else None
    row_mats = (mat, s_mat) if carry else (mat,)
    col_mats = (mat, t_mat) if carry else (mat,)

    def row_step(i1, i2, a, b, c, d):
        # (row i1, row i2) <- (a r1 + b r2, c r1 + d r2), with ad - bc = 1
        for x in row_mats:
            r1, r2 = x[i1], x[i2]
            x[i1] = [a * u + b * v for u, v in zip(r1, r2)]
            x[i2] = [c * u + d * v for u, v in zip(r1, r2)]

    def col_step(j1, j2, a, b, c, d):
        for x in col_mats:
            for r in x:
                u, v = r[j1], r[j2]
                r[j1] = a * u + b * v
                r[j2] = c * u + d * v

    def coefficients(p, e):
        # a 2x2 unimodular step sending (p, e) to (g, 0)
        if e % p == 0:
            return 1, 0, -(e // p), 1
        g, x, y = _xgcd(p, e)
        return x, y, -(e // g), p // g

    divisors = []
    for top in range(min(m, n)):
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                v = mat[i][j]
                if v and (pivot is None or abs(v) < abs(mat[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        for x in row_mats:
            x[top], x[pi] = x[pi], x[top]
        for x in col_mats:
            for r in x:
                r[top], r[pj] = r[pj], r[top]
        while True:
            for i in range(top + 1, m):
                if mat[i][top]:
                    row_step(top, i, *coefficients(mat[top][top], mat[i][top]))
            for j in range(top + 1, n):
                if mat[top][j]:
                    col_step(top, j, *coefficients(mat[top][top], mat[top][j]))
            if any(mat[i][top] for i in range(top + 1, m)):
                continue
            p = mat[top][top]
            offender = next(
                (i for i in range(top + 1, m) if any(v % p for v in mat[i][top + 1 :])), None
            )
            if offender is None:
                break
            row_step(top, offender, 1, 1, 0, 1)
        if carry and mat[top][top] < 0:
            for x in row_mats:
                x[top] = [-v for v in x[top]]
        divisors.append(abs(mat[top][top]))
    return divisors, s_mat, t_mat


def _xgcd(a: int, b: int):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


class ChainComplex:
    """Integer boundary matrices per degree, dd = 0 verified exactly."""

    def __init__(self, boundaries: dict[int, SparseMatrix], counts: dict[int, int], cells=None):
        self.boundaries = boundaries
        self.counts = counts
        self.cells = cells or {}  # degree -> corner tuples in column order
        self._snf: dict[int, SNFResult] = {}
        self._check_dd()

    @property
    def top_degree(self):
        return max(self.counts) if self.counts else -1

    def snf(self, degree: int) -> SNFResult:
        """Smith normal form of the boundary from ``degree`` to ``degree - 1``,
        computed once per complex, top down with clearing: the degree above
        goes first, and the columns at its pivot lows are dropped.  Such a
        column is an integer combination of earlier columns (the reduced
        column above has a unit at that low, its other entries on earlier
        rows, and bounds to zero), so the divisors do not change.  Degree 0 is the augmentation
        row, left with one column per component; a degree without cells has
        the empty boundary."""
        res = self._snf.get(degree)
        if res is None:
            lows = self.snf(degree + 1).lows if degree <= self.top_degree else frozenset()
            if degree == 0:
                matrix = SparseMatrix(1, self.counts.get(0, 0))
                matrix.rows[0] = {j: 1 for j in range(matrix.ncols) if j not in lows}
            else:
                matrix = self.boundaries.get(degree)
            if matrix is None:
                res = SNFResult([], 0, (self.counts.get(degree - 1, 0), self.counts.get(degree, 0)))
            else:
                res = smith_normal_form(matrix, clear=lows)
            self._snf[degree] = res
        return res

    def prefix(self, n: int) -> "ChainComplex":
        """The full subcomplex on vertex ids < n.  With cells in colex order
        (as ``chain_complex`` keeps them) its cells are the first cells of
        every degree and its boundaries the top-left blocks; degrees without
        cells and rows left empty are dropped, as a rebuild would drop them."""
        cells = {}
        for d, column in self.cells.items():
            k = bisect.bisect_left(column, n, key=max)
            if k:
                cells[d] = column[:k]
        counts = {d: len(column) for d, column in cells.items()}
        boundaries = {}
        for d in range(1, max(counts, default=0) + 1):
            bd = boundaries[d] = SparseMatrix(counts.get(d - 1, 0), counts.get(d, 0))
            for i, row in self.boundaries[d].rows.items():
                if i < bd.nrows:
                    kept = {j: v for j, v in row.items() if j < bd.ncols}
                    if kept:
                        bd.rows[i] = kept
        return ChainComplex(boundaries, counts, cells)

    def _check_dd(self):
        for d, bd in self.boundaries.items():
            upper = self.boundaries.get(d + 1)
            if upper is None:
                continue
            prod = bd.mul(upper)
            if prod.nnz():
                raise NonClosedComplex(f"dd != 0 between degrees {d + 1} and {d - 1}")


def chain_complex(cells) -> ChainComplex:
    """Cellular chain complex of a cube collection.

    ``cells`` is a CubeBall or an iterable of (dim, ctype, corners) with
    corners indexed by subset bitmask.  A cell is named by its corner tuple,
    and every face must be stored under its induced tuple: the corners of
    the face in sub-mask order, as every cube producer in topraag emits them
    (corners by mask from the cube's least-exponent corner).  The boundary
    of a d-cube is the signed sum over coordinates of (upper face - lower
    face), sign (-1)^i.  Duplicate tuples are dropped.  Each degree's cells
    are ordered colexicographically, largest corner first, so for every n
    the cells on vertex ids < n come first in every degree: the full
    subcomplex on an id prefix is a column prefix.  Raises NonClosedComplex
    when a face is not stored under its induced tuple.
    """
    records = cells.cells_for_homology() if hasattr(cells, "cells_for_homology") else list(cells)
    index: dict[tuple, int] = {}
    stored: dict[int, list[tuple]] = {}
    for dim, ctype, corners in sorted(records, key=lambda r: (r[0], sorted(r[2], reverse=True))):
        corners = tuple(corners)
        if corners in index:
            continue
        column = stored.setdefault(dim, [])
        index[corners] = len(column)
        column.append(corners)
    per_dim = {d: len(column) for d, column in stored.items()}
    boundaries = {}
    for dim in range(1, max(per_dim, default=0) + 1):
        bd = boundaries[dim] = SparseMatrix(per_dim.get(dim - 1, 0), per_dim.get(dim, 0))
        for col, corners in enumerate(stored.get(dim, ())):
            for i in range(dim):
                sign = (-1) ** i
                lower, upper = _face_corner_tuples(corners, dim, i)
                for face, fsign in ((upper, sign), (lower, -sign)):
                    row = index.get(face)
                    if row is None:
                        raise NonClosedComplex(
                            f"{dim - 1}-face {face} of the {dim}-cube {corners} is not a stored "
                            "cell; faces must be stored in induced sub-mask order"
                        )
                    bd.set(row, col, fsign)
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


@dataclass
class HomologyResult:
    betti: dict[int, int]
    torsion: dict[int, list[int]]
    reduced: bool = True
    computed_through: int = 0

    def is_zero(self, degree: int) -> bool:
        return self.betti.get(degree, 0) == 0 and not self.torsion.get(degree)

    def to_json(self):
        return {
            "reduced": self.reduced,
            "computed_through": self.computed_through,
            "degrees": {
                str(d): {"betti": self.betti.get(d, 0), "torsion": self.torsion.get(d, [])}
                for d in sorted(set(self.betti) | set(self.torsion))
            },
        }


def reduced_homology(cc: ChainComplex) -> HomologyResult:
    """Reduced integral homology from Smith normal forms of the boundaries,
    with the augmentation map adjoined in degree 0."""
    top = cc.top_degree
    betti = {}
    torsion = {}
    for d in range(0, top + 1):
        betti[d] = cc.counts.get(d, 0) - cc.snf(d).rank - cc.snf(d + 1).rank
        if betti[d] < 0:
            raise AssertionError("negative betti number; rank computation broken")
        torsion[d] = [x for x in cc.snf(d + 1).divisors if x > 1]
    return HomologyResult(betti, torsion, reduced=True, computed_through=top)


def homology_of_cells(cells) -> HomologyResult:
    """Reduced homology of a cube collection, given as for chain_complex."""
    return reduced_homology(chain_complex(cells))


def homological_connectivity(res: HomologyResult):
    """Largest n with reduced homology zero through degree n, capped by the
    computed range; (-1, flag) when already H0 is nonzero."""
    n = -1
    for d in range(0, res.computed_through + 1):
        if res.is_zero(d):
            n = d
        else:
            break
    capped = n == res.computed_through
    return n, "within computed range" if capped else "exact below computed range"


def sublevel_complex(ball, t: int):
    """Cells of a standard-apartment ball with max corner exponent <= t: the
    cube bQ_T enters iff e(b) + |T| <= t."""
    cells = []
    for c in ball.cubes:
        top_exp = ball.exponent[c.corners[0]] + c.dim
        if top_exp <= t:
            cells.append((c.dim, c.ctype, c.corners))
    return cells


def simplicial_chain_complex(simplices) -> ChainComplex:
    """Chain complex of a simplicial complex given as vertex sets; standard
    alternating signs over sorted vertex tuples."""
    sorted_simplices = sorted(
        {tuple(sorted(s, key=repr)) for s in simplices}, key=lambda s: (len(s), repr(s))
    )
    index = {}
    per_dim = {}
    for s in sorted_simplices:
        d = len(s) - 1
        index[s] = per_dim.get(d, 0)
        per_dim[d] = index[s] + 1
    top = max(per_dim) if per_dim else -1
    boundaries = {d: SparseMatrix(per_dim.get(d - 1, 0), per_dim.get(d, 0)) for d in range(1, top + 1)}
    for s in sorted_simplices:
        d = len(s) - 1
        if d == 0:
            continue
        col = index[s]
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face not in index:
                raise NonClosedComplex(f"missing face {face} of simplex {s}")
            boundaries[d].set(index[face], col, (-1) ** i)
    cc = ChainComplex(boundaries, per_dim)
    return cc


def clique_complex_homology(graph) -> HomologyResult:
    """Reduced homology of the clique complex of a graph."""
    from .graphs import clique_complex

    sc = clique_complex(graph)
    return reduced_homology(simplicial_chain_complex(sc.simplices))


def persistent_reduced_betti(small, big, degree: int) -> int:
    """Rank of the map on reduced homology induced by an inclusion A <= B of
    subcomplexes, in one degree.

    ``small`` and ``big`` are the ChainComplexes of A and B, or their cell
    lists.  The k-cells of A must be the first k-cells of B, in the same
    column order; chain_complex orders cells so that this holds whenever A
    is the full subcomplex of B on a prefix of its vertex ids.  Since A is
    a subcomplex, reduced cycles of A meet boundaries of B exactly in the
    chains of A that bound in B, which collapses the computation to three
    integer ranks:

        rank im = rank [dB_{k+1} | E_A] - rank dA_k - rank dB_{k+1}

    where E_A is the coordinate inclusion of the k-cells of A into those of
    B (unit columns on the first a rows) and dA_0 means the augmentation
    row.  The unit columns clear those a rows, so

        rank [dB_{k+1} | E_A] = a + rank dB_{k+1}(B, A)

    with dB_{k+1}(B, A) the relative boundary into C_k(B, A): dB_{k+1}
    without its first a rows.  Deleting rows commutes with the column steps
    of B's reduction.  On the rows >= a its pivots with a low < a vanish,
    the others keep distinct unit lows, and the residual is zero on every
    pivot row, so the relative rank is read off B's pivots with no new Smith
    normal form: the pivots whose low is >= a, plus the rank of B's residual
    core on its rows >= a.  This is exact with torsion too.  Raises
    NonClosedComplex when A's k-cells are not a prefix of B's.
    """
    ccA = small if isinstance(small, ChainComplex) else chain_complex(small)
    ccB = big if isinstance(big, ChainComplex) else chain_complex(big)
    k = degree
    a_cells = ccA.cells.get(k, [])
    if ccB.cells.get(k, [])[: len(a_cells)] != a_cells:
        raise NonClosedComplex("small complex is not a prefix of the big one")
    a = len(a_cells)
    res = ccB.snf(k + 1)
    relative = sum(1 for low in res.lows if low >= a) + len(_core_divisors(res.core, a))
    return a + relative - ccA.snf(k).rank - res.rank


def valley_homology_report(graph, latitude: int, word_radius: int, **caps) -> dict:
    """Two-radius stabilisation protocol for truncated valleys.

    Computes reduced homology of the valley window at ``word_radius`` and
    ``word_radius + 1``, plus the persistent reduced Betti numbers of the
    inclusion in degrees 0 and 1.  Every finite window strands fringe cells,
    so the per-window numbers need not agree; the persistent numbers are the
    stabilised answer, with ``stabilised_plain`` recording plain agreement.
    Only the bigger window is built, under ``caps`` (``vertex_cap``,
    ``cube_cap``, as for valley_cells).  Its vertex ids are sorted by word
    length and both windows share the e-range, so the smaller window is the
    full subcomplex on the ids of the words of length <= ``word_radius``,
    sliced from the bigger chain complex as a column prefix in every degree.
    """
    from .complexes import valley_cells

    if word_radius < 0:
        raise EmptyWindow(f"window radius {word_radius} is negative")
    e_lo = latitude - word_radius - 2
    verts, cubes = valley_cells(graph, latitude, (e_lo, latitude), word_radius + 1, **caps)
    m = sum(1 for w in verts if len(w) <= word_radius)
    cc_big = chain_complex(cubes)
    cc_small = cc_big.prefix(m)
    reports = {
        word_radius: reduced_homology(cc_small).to_json(),
        word_radius + 1: reduced_homology(cc_big).to_json(),
    }
    persistent = {k: persistent_reduced_betti(cc_small, cc_big, k) for k in (0, 1)}
    plain_agree = reports[word_radius] == reports[word_radius + 1]
    return {
        "latitude": latitude,
        "window": {"word_radius": word_radius, "e_range": [e_lo, latitude]},
        "per_radius": {str(r): reports[r] for r in reports},
        "persistent_reduced_betti": {str(k): v for k, v in persistent.items()},
        "stabilised_plain": plain_agree,
    }

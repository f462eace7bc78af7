"""Smith normal form, chain complexes, reduced homology, persistence."""

import itertools
import random
import signal

import pytest

import oracles
from oracles import (
    euler_characteristic_from_counts,
    euler_characteristic_from_homology,
    rank_mod2,
    rank_over_Q,
)
from topraag.errors import EmptyWindow, NonClosedComplex
from topraag.graphs import complete_graph, cycle_graph, edge_graph, path_graph, single_vertex
from topraag.models import ShiftModel, TrivialModel, s3_a3_model
from topraag.complexes import build_ball, valley_cells
from topraag.homology import (
    ChainComplex,
    SparseMatrix,
    chain_complex,
    clique_complex_homology,
    homological_connectivity,
    homology_of_cells,
    persistent_reduced_betti,
    reduced_homology,
    simplicial_chain_complex,
    smith_normal_form,
    sublevel_complex,
    valley_homology_report,
)


def dense_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).divisors == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]).divisors == []
    assert smith_normal_form([[1, 0], [0, 1]]).divisors == [1, 1]


def test_snf_diag23_bruteforce_2x2():
    # every unimodular S, T (entries in a small window) keeps the divisors
    got = smith_normal_form([[2, 0], [0, 3]])
    assert got.divisors == [1, 6]
    rng = random.Random(0)
    for _ in range(200):
        s = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if s[0][0] * s[1][1] - s[0][1] * s[1][0] not in (1, -1):
            continue
        m = dense_mul(s, [[2, 0], [0, 3]])
        assert smith_normal_form(m).divisors == [1, 6]


def test_snf_transforms():
    rng = random.Random(1)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m, with_transforms=True)
        s_mat, t_mat = res.transforms
        d = dense_mul(dense_mul(s_mat, m), t_mat)
        diag = res.diagonal()
        for i in range(rows):
            for j in range(cols):
                assert d[i][j] == (diag[min(i, j)] if i == j else 0)
        for i in range(len(res.divisors) - 1):
            assert res.divisors[i + 1] % res.divisors[i] == 0
        # transform path agrees with the sparse path
        assert res.divisors == smith_normal_form(m).divisors


def test_smith_normal_form_rank_matches_Q_rank_random():
    rng = random.Random(2)
    for _ in range(120):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 2)) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m).rank == rank_over_Q(m)


# Small dense matrices on which floor-division Euclid passes let core
# entries swell past ten thousand bits; sympy gives the invariant factors.
SWELL_CASES = [
    (
        [[1, 4, 4, 0, 0, 6, 3, 0, 0], [0, 0, 4, 0, 6, 4, 0, 6, 0], [-2, 0, 6, 2, -1, 1, 1, 3, 4],
         [0, 0, 1, 0, 3, 4, 2, -2, 0], [0, 0, -2, 6, 6, 0, 3, 0, 2], [1, 0, 0, 0, 4, 3, -2, -2, 0],
         [6, 3, 1, -1, 0, 3, 3, 2, 1]],
        [1, 1, 1, 1, 1, 1, 4],
    ),
    (
        [[3, 0, -1, 4, 0, 0, -2, 0, 3], [0, 1, 1, 0, 0, 3, 3, 3, 3], [-1, 4, 0, 0, 6, 6, 3, 6, 6],
         [6, 6, 1, 0, 3, 4, 1, 0, 2], [1, 0, 4, 2, 0, 0, 1, -2, 0], [0, -2, 0, -1, 1, -2, -2, 0, 0],
         [-2, 1, 1, 0, -2, 3, 0, -2, 0], [-1, 3, 4, 1, -1, 0, 1, -2, -2], [4, 3, 1, 1, 2, 6, -1, 0, 1]],
        [1, 1, 1, 1, 1, 1, 1, 1, 522918],
    ),
]


def _fail_on_alarm(signum, frame):
    raise TimeoutError("smith_normal_form did not return in time")


def test_snf_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def expected(m):
        factors = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        return [abs(int(x)) for x in factors if x]

    rng = random.Random(4)
    cases = [m for m, _ in SWELL_CASES]
    for _ in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        cases.append([[rng.choice((0, 0, 1, -1, 2, -2, 3, 4, 6)) for _ in range(cols)] for _ in range(rows)])
    for _ in range(100):
        # products through a thin middle factor: low rank and large divisors
        rows, mid, cols = rng.randint(2, 9), rng.randint(1, 6), rng.randint(2, 9)
        left = [[rng.choice((0, 2, -2, 3, 4, 6)) for _ in range(mid)] for _ in range(rows)]
        right = [[rng.choice((0, 1, 2, -3, 4)) for _ in range(cols)] for _ in range(mid)]
        cases.append(dense_mul(left, right))
    old_handler = signal.signal(signal.SIGALRM, _fail_on_alarm)
    signal.alarm(60)
    try:
        for m, want in SWELL_CASES:
            assert smith_normal_form(m).divisors == want
            assert smith_normal_form(m, with_transforms=True).divisors == want
        with_torsion = 0
        for m in cases:
            got = smith_normal_form(m).divisors
            assert got == expected(m), m
            with_torsion += any(d > 1 for d in got)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
    assert with_torsion >= 100, with_torsion


def test_snf_unit_pivots_on_valley_boundaries():
    # the boundaries are mostly +-1 entries, so the unit pivots of the column
    # reduction do nearly all the work; Q-rank and GF(2) rank check it
    # independently
    for graph in (path_graph("pqr"), complete_graph("abc")):
        verts, cubes = valley_cells(graph, 0, (-5, 0), 3)
        cc = chain_complex(cubes)
        assert cc.boundaries
        for bd in cc.boundaries.values():
            res = smith_normal_form(bd)
            assert res.rank == rank_over_Q(bd)
            assert sum(1 for x in res.divisors if x % 2) == rank_mod2(bd)


def test_rank_mod2():
    assert rank_mod2([[1, 1], [1, 1]]) == 1
    assert rank_mod2([[2, 0], [0, 3]]) == 1  # the even diagonal entry dies
    assert rank_mod2([[1, 0], [0, 1]]) == 2


def test_mod2_betti_detects_torsion():
    # a synthetic complex with Z/2 torsion: one 0-cell, one 1-cell, one
    # 2-cell glued twice (boundary matrix [2]); like a projective plane
    b1 = SparseMatrix(1, 1)
    b2 = SparseMatrix(1, 1)
    b2.set(0, 0, 2)
    cc = ChainComplex({1: b1, 2: b2}, {0: 1, 1: 1, 2: 1})
    res = reduced_homology(cc)
    assert res.betti[1] == 0 and res.torsion[1] == [2]
    # universal coefficients: dim H_k(F2) = betti_k + t_k(2) + t_{k-1}(2)
    dim_h1_mod2 = 1 - rank_mod2([[0]]) - rank_mod2([[2]])
    assert dim_h1_mod2 == res.betti[1] + 1  # torsion contributes once


# The 6-vertex real projective plane: the ten triangles of the hemi-icosahedron.
RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def test_rp2_torsion_through_a_residual_core():
    simplices = {frozenset(f) for t in RP2_TRIANGLES for k in (1, 2, 3) for f in itertools.combinations(t, k)}
    cc = simplicial_chain_complex(simplices)
    assert cc.counts == {0: 6, 1: 15, 2: 10}
    res = reduced_homology(cc)
    assert res.betti == {0: 0, 1: 0, 2: 0}
    assert res.torsion == {0: [], 1: [2], 2: []}
    # a unit pivot only gives the divisor 1, so the 2 comes from the core,
    # cleared on the pivot rows
    top = cc.snf(2)
    assert top.core and not any(i in top.lows for col in top.core for i in col)
    assert top.divisors == oracles.reference_snf(cc.boundaries[2])


def _loops(boundary_columns, n_loops):
    # one vertex, n_loops 1-cells (so d1 = 0) and one 2-cell per column; the
    # cell labels only need to be distinct
    b2 = SparseMatrix(n_loops, len(boundary_columns))
    for j, column in enumerate(boundary_columns):
        for i, v in column.items():
            b2.set(i, j, v)
    cells = {0: [(0,)], 1: [(0, i) for i in range(n_loops)], 2: [(0, 0, 0, j) for j in range(b2.ncols)]}
    cells = {d: c for d, c in cells.items() if c}
    boundaries = {1: SparseMatrix(1, n_loops), 2: b2}
    return ChainComplex({d: boundaries[d] for d in cells if d}, {d: len(c) for d, c in cells.items()}, cells)


def _stacked_persistence(cc_a, cc_b, k):
    # the rank of [dB_{k+1} | E_A], as in _two_window_report
    a = cc_a.counts.get(k, 0)
    n_cols = cc_b.counts.get(k + 1, 0)
    stacked = SparseMatrix(cc_b.counts.get(k, 0), n_cols + a)
    for i, j, v in (cc_b.boundaries[k + 1].entries() if k + 1 in cc_b.boundaries else ()):
        stacked.set(i, j, v)
    for j in range(a):
        stacked.set(j, n_cols + j, 1)
    return smith_normal_form(stacked).rank - cc_a.snf(k).rank - cc_b.snf(k + 1).rank


def test_relative_rank_reads_the_residual_core():
    # B: loops e0, e1, e2 and 2-cells with boundaries 2 e1 + 2 e2 and e2, so
    # H1(B) = Z e0 + Z/2 e1.  The first column is residual at its low e2 until
    # the second becomes the pivot there; cleared, it leaves the core [2] on
    # row e1.  A keeps the vertex and the first a loops.
    columns = [{1: 2, 2: 2}, {2: 1}]
    cc_b = _loops(columns, 3)
    assert [dict(col) for col in cc_b.snf(2).core] == [{1: 2}]
    assert cc_b.snf(2).lows == {2}
    for a in range(4):
        for k in (0, 1):
            cc_a = _loops([], a)
            assert persistent_reduced_betti(cc_a, cc_b, k) == _stacked_persistence(cc_a, cc_b, k), (a, k)
    # the class of the loop e0 survives; the pivots alone (none has its low
    # on e1) would read rank 0
    assert persistent_reduced_betti(_loops([], 1), cc_b, 1) == 1


# The square (0, 1, 3, 2) has the induced faces (0, 1), (1, 2), (3, 2) and
# (0, 3); the cyclic circle stores the last two as (2, 3) and (3, 0), so
# only the orientation-search oracle accepts it with the square attached.
CYCLIC_CIRCLE = [(0, (), (i,)) for i in range(4)] + [
    (1, ("x",), (0, 1)),
    (1, ("x",), (1, 2)),
    (1, ("x",), (2, 3)),
    (1, ("x",), (3, 0)),
]
INDUCED_CIRCLE = [(0, (), (i,)) for i in range(4)] + [
    (1, ("x",), (0, 1)),
    (1, ("x",), (1, 2)),
    (1, ("x",), (3, 2)),
    (1, ("x",), (0, 3)),
]
SQUARE = (2, ("x", "y"), (0, 1, 3, 2))


def assert_circle_and_square(build, circle):
    cc = build(circle)
    assert cc.counts == {0: 4, 1: 4}
    res = reduced_homology(cc)
    assert res.betti == {0: 0, 1: 1}
    res2 = reduced_homology(build(circle + [SQUARE]))
    assert all(v == 0 for v in res2.betti.values())


def test_chain_complex_squares():
    assert_circle_and_square(chain_complex, INDUCED_CIRCLE)


def test_oracle_chain_complex_squares_cyclic():
    assert_circle_and_square(oracles.chain_complex, CYCLIC_CIRCLE)


def test_chain_complex_rejects_a_face_not_in_induced_order():
    with pytest.raises(NonClosedComplex, match=r"\(0, 3\).*induced sub-mask order"):
        chain_complex(CYCLIC_CIRCLE + [SQUARE])


def test_chain_complex_three_cube():
    # solid 3-cube from a trivial-model ball over K3
    ball = build_ball(TrivialModel(), complete_graph("abc"), 3)
    cubes3 = [c for c in ball.cubes if c.dim == 3]
    assert cubes3
    cc = chain_complex(ball)
    per_column = {}
    for row in cc.boundaries[3].rows.values():
        for j in row:
            per_column[j] = per_column.get(j, 0) + 1
    assert len(per_column) == cc.counts[3] and all(n == 6 for n in per_column.values())
    res = reduced_homology(cc)
    assert all(v == 0 for v in res.betti.values())
    assert all(not t for t in res.torsion.values())


def test_missing_face_raises():
    with pytest.raises(NonClosedComplex):
        chain_complex([(0, (), (0,)), (1, ("x",), (0, 1))])


def test_two_points():
    res = homology_of_cells([(0, (), (0,)), (0, (), (1,))])
    assert res.betti[0] == 1
    n, flag = homological_connectivity(res)
    assert n == -1


def test_connectivity_values():
    circle = [(0, (), (i,)) for i in range(4)] + [
        (1, ("x",), (0, 1)),
        (1, ("x",), (1, 2)),
        (1, ("x",), (2, 3)),
        (1, ("x",), (3, 0)),
    ]
    res = homology_of_cells(circle)
    n, flag = homological_connectivity(res)
    assert n == 0 and flag == "exact below computed range"
    ball = build_ball(TrivialModel(), edge_graph(), 2)
    res = homology_of_cells(ball)
    n, flag = homological_connectivity(res)
    assert n == res.computed_through and flag == "within computed range"


def test_euler_characteristic_consistency():
    rng = random.Random(3)
    models = [TrivialModel(), ShiftModel(2), s3_a3_model()]
    graphs = [edge_graph(), complete_graph("abc"), cycle_graph("abcd"), path_graph("pqr")]
    for _ in range(12):
        model = rng.choice(models)
        graph = rng.choice(graphs)
        try:
            ball = build_ball(model, graph, rng.randint(1, 2))
        except Exception:
            continue
        counts = {}
        for c in ball.cubes:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        res = reduced_homology(chain_complex(ball))
        assert euler_characteristic_from_counts(counts) == euler_characteristic_from_homology(res)


def test_simplicial_homology():
    # boundary of a triangle = circle; filled triangle = disc
    hollow = [frozenset(s) for s in ({"a", "b"}, {"b", "c"}, {"a", "c"}, {"a"}, {"b"}, {"c"})]
    res = reduced_homology(simplicial_chain_complex(hollow))
    assert res.betti == {0: 0, 1: 1}
    filled = hollow + [frozenset({"a", "b", "c"})]
    res = reduced_homology(simplicial_chain_complex(filled))
    assert all(v == 0 for v in res.betti.values())


def test_clique_complex_homology():
    res = clique_complex_homology(cycle_graph("abcd"))
    assert res.betti[0] == 0 and res.betti[1] == 1
    res = clique_complex_homology(complete_graph("abc"))
    assert all(v == 0 for v in res.betti.values())


def test_persistence_identity_inclusion():
    cells = [(0, (), (i,)) for i in range(4)] + [
        (1, ("x",), (0, 1)),
        (1, ("x",), (1, 2)),
        (1, ("x",), (2, 3)),
        (1, ("x",), (3, 0)),
    ]
    assert persistent_reduced_betti(cells, cells, 0) == 0
    assert persistent_reduced_betti(cells, cells, 1) == 1


def test_persistence_cycle_dies_in_disc():
    assert persistent_reduced_betti(INDUCED_CIRCLE, INDUCED_CIRCLE + [SQUARE], 1) == 0
    # two components merging kill the extra H0 class
    two = [(0, (), (0,)), (0, (), (1,))]
    joined = two + [(1, ("x",), (0, 1))]
    assert persistent_reduced_betti(two, joined, 0) == 0


def test_oracle_persistence_cycle_dies_in_disc_cyclic():
    circle = oracles.chain_complex(CYCLIC_CIRCLE)
    disc = oracles.chain_complex(CYCLIC_CIRCLE + [SQUARE])
    assert persistent_reduced_betti(circle, disc, 1) == 0


def test_persistence_rejects_a_small_complex_that_is_not_a_prefix():
    # vertex 1 alone is a subcomplex of the edge, but not on an id prefix
    edge = [(0, (), (0,)), (0, (), (1,)), (1, ("x",), (0, 1))]
    with pytest.raises(NonClosedComplex):
        persistent_reduced_betti([(0, (), (1,))], edge, 0)
    # a cell the big complex does not have at all
    with pytest.raises(NonClosedComplex):
        persistent_reduced_betti([(0, (), (0,)), (0, (), (2,))], edge, 0)


def test_valley_homology_reports():
    rep = valley_homology_report(edge_graph(), 0, 4)
    assert rep["persistent_reduced_betti"] == {"0": 0, "1": 0}
    assert rep["stabilised_plain"]
    rep = valley_homology_report(complete_graph("abc"), 0, 4)
    assert rep["persistent_reduced_betti"] == {"0": 0, "1": 0}
    with pytest.raises(EmptyWindow):
        valley_homology_report(edge_graph(), 0, -1)


def test_valley_homology_c4():
    rep = valley_homology_report(cycle_graph("abcd"), 0, 4)
    assert rep["persistent_reduced_betti"]["0"] == 0
    assert rep["persistent_reduced_betti"]["1"] > 0


def _two_window_report(graph, latitude, word_radius):
    # reference protocol: both windows built on their own, the smaller one
    # mapped into the bigger through its words, and the inclusion rank read
    # off the stacked matrix [dB_{k+1} | E_A]
    e_lo = latitude - word_radius - 2
    windows = {}
    for r in (word_radius, word_radius + 1):
        verts, cubes = valley_cells(graph, latitude, (e_lo, latitude), r)
        windows[r] = (verts, chain_complex(cubes))
    verts_a, cc_a = windows[word_radius]
    verts_b, cc_b = windows[word_radius + 1]
    vmap = {vid: verts_b[w] for w, vid in verts_a.items()}
    persistent = {}
    for k in (0, 1):
        row_of = {frozenset(cell): i for i, cell in enumerate(cc_b.cells.get(k, []))}
        n_cols = cc_b.counts.get(k + 1, 0)
        a_cells = cc_a.cells.get(k, [])
        stacked = SparseMatrix(cc_b.counts.get(k, 0), n_cols + len(a_cells))
        for i, j, v in (cc_b.boundaries[k + 1].entries() if k + 1 in cc_b.boundaries else ()):
            stacked.set(i, j, v)
        for j, cell in enumerate(a_cells):
            stacked.set(row_of[frozenset(vmap[v] for v in cell)], n_cols + j, 1)
        persistent[str(k)] = (
            smith_normal_form(stacked).rank - cc_a.snf(k).rank - cc_b.snf(k + 1).rank
        )
    per_radius = {str(r): reduced_homology(cc).to_json() for r, (_, cc) in windows.items()}
    return {
        "latitude": latitude,
        "window": {"word_radius": word_radius, "e_range": [e_lo, latitude]},
        "per_radius": per_radius,
        "persistent_reduced_betti": persistent,
        "stabilised_plain": per_radius[str(word_radius)] == per_radius[str(word_radius + 1)],
    }


def test_valley_report_matches_two_window_protocol():
    graphs = (edge_graph(), path_graph("pqr"), complete_graph("abc"), cycle_graph("abcd"))
    for graph in graphs:
        for latitude in (-1, 0, 1):
            for word_radius in range(5):
                assert valley_homology_report(graph, latitude, word_radius) == _two_window_report(
                    graph, latitude, word_radius
                )


def test_valley_connectivity_matches_clique_complex():
    for graph in (edge_graph(), complete_graph("abc"), cycle_graph("abcd")):
        lg = clique_complex_homology(graph)
        rep = valley_homology_report(graph, 0, 4)
        pers = rep["persistent_reduced_betti"]
        assert (pers["0"] == 0) == lg.is_zero(0)
        assert (pers["1"] == 0) == (lg.is_zero(0) and lg.is_zero(1))


DIFF_GRAPHS = {
    "c4": cycle_graph("abcd"),
    "edge": edge_graph(),
    "k3": complete_graph("abc"),
    "path3": path_graph("pqr"),
    "point": single_vertex("s"),
}


def assert_equal_complexes(got, want):
    assert got.counts == want.counts
    assert got.cells == want.cells
    assert got.boundaries.keys() == want.boundaries.keys()
    for d, bd in got.boundaries.items():
        assert (bd.nrows, bd.ncols) == (want.boundaries[d].nrows, want.boundaries[d].ncols), d
        assert bd.rows == want.boundaries[d].rows, d


def assert_same_chain_complex(cells):
    assert_equal_complexes(chain_complex(cells), oracles.chain_complex(cells))


@pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
def test_chain_complex_matches_oracle_on_balls(name):
    for model in (TrivialModel(), ShiftModel(2), ShiftModel(3), s3_a3_model()):
        for r in range(4):
            assert_same_chain_complex(build_ball(model, DIFF_GRAPHS[name], r))


@pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
def test_chain_complex_matches_oracle_on_valley_windows(name):
    # each window as valley_homology_report builds it, word radius 1 to 6
    for latitude in (-1, 0, 1):
        for word_radius in range(6):
            e_range = (latitude - word_radius - 2, latitude)
            _, cubes = valley_cells(DIFF_GRAPHS[name], latitude, e_range, word_radius + 1)
            assert_same_chain_complex(cubes)


def _fresh_divisors(cells, degrees):
    # a fresh complex asked for its degrees in the given order
    cc = chain_complex(cells)
    return {d: cc.snf(d).divisors for d in degrees}


def assert_cleared_snf_matches_the_reference(cells):
    cc = chain_complex(cells)
    top = cc.top_degree
    got = _fresh_divisors(cells, range(top, -1, -1))
    assert got == _fresh_divisors(cells, [*range(1, top + 1), 0])
    for d in range(1, top + 1):
        bd = cc.boundaries[d]
        want = oracles.reference_snf(bd)
        assert got[d] == want, d
        assert smith_normal_form(bd).divisors == want, d
    aug = SparseMatrix(1, cc.counts.get(0, 0))
    for j in range(aug.ncols):
        aug.set(0, j, 1)
    assert got[0] == oracles.reference_snf(aug)


@pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
def test_cleared_snf_matches_the_reference_sweep(name):
    # the balls of test_chain_complex_matches_oracle_on_balls and the windows
    # of valley_homology_report up to word radius 5
    for model in (TrivialModel(), ShiftModel(2), ShiftModel(3), s3_a3_model()):
        for r in range(4):
            assert_cleared_snf_matches_the_reference(build_ball(model, DIFF_GRAPHS[name], r))
    for latitude in (-1, 0, 1):
        for word_radius in range(6):
            e_range = (latitude - word_radius - 2, latitude)
            _, cubes = valley_cells(DIFF_GRAPHS[name], latitude, e_range, word_radius + 1)
            assert_cleared_snf_matches_the_reference(cubes)


@pytest.mark.parametrize("name", sorted(DIFF_GRAPHS))
def test_prefix_matches_the_rebuilt_window(name):
    # the small window of valley_homology_report, sliced from the big
    # window's complex, against the complex built from its own cells
    for latitude in (-1, 0, 1):
        for word_radius in range(6):
            e_range = (latitude - word_radius - 2, latitude)
            verts, cubes = valley_cells(DIFF_GRAPHS[name], latitude, e_range, word_radius + 1)
            big = chain_complex(cubes)
            m = sum(1 for w in verts if len(w) <= word_radius)
            for n in (0, m):
                rebuilt = chain_complex([c for c in cubes if max(c[2]) < n])
                assert_equal_complexes(big.prefix(n), rebuilt)


def test_dd_zero_on_generated_complexes():
    # construction itself checks dd = 0; touch several shapes
    for model, graph, r in [
        (TrivialModel(), cycle_graph("abcd"), 2),
        (ShiftModel(2), edge_graph(), 2),
        (s3_a3_model(), edge_graph(), 2),
    ]:
        cc = chain_complex(build_ball(model, graph, r))
        for d, bd in cc.boundaries.items():
            if d + 1 in cc.boundaries:
                assert not bd.mul(cc.boundaries[d + 1]).nnz()

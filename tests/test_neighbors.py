"""Property tests of the ball layer (CSR sweeps, per-row kernels and the
maximal functions and porosity scan built on them) against
``weighted_stats`` and the naive-loop oracles."""

import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import mmtrace as mt
from mmtrace import _neighbors as nb
from oracles import oball, oE, omass, oporous_mask, oquery_pairs_lists, osharp, osharp_mu_s1

TOL = 1e-12
PROPS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw):
    """A cloud on a coarse lattice (so many distances tie and land exactly
    on a closed-ball boundary), a subset (possibly one point), weights,
    values with ties, a radius taken from the pairwise distances or drawn
    freely, and a pair budget (tiny budgets split rows across blocks)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 24))
    coords = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=dim, max_size=dim),
                                    min_size=n, max_size=n)), dtype=float) / 4.0
    weights = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    values = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 3.0]) | st.floats(-5, 5),
                                    min_size=n, max_size=n)))
    subset = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    dists = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
    radius = draw(st.sampled_from(sorted(set(dists.ravel()) - {0.0}) or [0.5]) | st.floats(0.01, 2.0))
    budget = draw(st.sampled_from([1, 3, 7, nb.PAIR_BLOCK]))
    return coords, weights, values, subset, float(radius), budget


def _space(coords, weights, matrix, resolution=1.0):
    if matrix:
        dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        return mt.FiniteMetricMeasureSpace(weights=weights, dist_matrix=dist, resolution=resolution, validate=False)
    return mt.FiniteMetricMeasureSpace(weights=weights, coords=coords, resolution=resolution, validate=False)


def _oracle_rows(coords, subset, radius, centres=None):
    in_sub = {int(i): p for p, i in enumerate(subset)}
    return [[in_sub[i] for i in oball(coords, x, radius) if i in in_sub] for x in (subset if centres is None else centres)]


def _sweep(nbrs, radius):
    """A test-local CSR of the balls around the subset's own points, joined
    from ``rows_of`` (the layer keeps no sweep)."""
    return _joined(list(nbrs.rows_of(nbrs.ids, radius)))


def _ranked_rows(nbrs, centres, radius, rank, counts=None):
    """``rows_of``'s blocks with rows listing rank[j] for j, sorted, from
    the layer's ``_row_blocks``."""
    return [(int(at[0]), int(at[-1]) + 1, rows)
            for at, rows in nbrs._row_blocks(np.asarray(centres, dtype=int), radius, counts, rank, False)]


def _row_deviations(csr, w, g):
    """Per row of csr: the deviation reader's value, the rows ranked and
    handed over in blocks of at most PAIR_BLOCK pairs."""
    out = np.zeros(csr[0].size - 1)
    rank, read = nb.deviation_reader(w, g, nb.value_order(g), out.__setitem__)
    for lo, hi, cols, starts, lengths in nb._rows(csr):
        read(np.arange(lo, hi), (np.append(starts, cols.size), (nb._ranked(cols, lengths, rank) % g.size).astype(np.int32)))
    return out


def _centred_means(csr, w, g, fn):
    """Per row a of a subset's own balls: the means reader's value."""
    out = np.empty(csr[0].size - 1)
    nb.means_reader(w, g, fn, out.__setitem__)[1](np.arange(out.size), csr)
    return out


def _pair_abs_diffs(csr_a, wa, ga, csr_b, wb, gb, ia, ib):
    """gl3's numerators from the two kernels it streams through: table
    rows over the rows ia of csr_a, summed over the rows ib of csr_b."""
    u, q = np.unique(gb, return_inverse=True)
    rows = np.unique(ia)
    table = nb.diff_table(_gather(csr_a, rows), wa, ga, u, np.searchsorted(u, ga))
    return nb.table_sums(csr_b, ib, wb, np.searchsorted(rows, ia), q, table)


@PROPS
@given(instances(), st.booleans())
def test_self_lists_and_row_kernels(inst, matrix):
    coords, weights, values, subset, radius, budget = inst
    space = _space(coords, weights, matrix)
    nbrs = nb.subset_neighbors(space, subset)
    indptr, indices = _sweep(nbrs, radius)
    rows = _oracle_rows(coords, subset, radius)
    assert indices.dtype == np.int32 and indptr[-1] == indices.size
    assert [list(indices[indptr[a]:indptr[a + 1]]) for a in range(subset.size)] == rows

    w, g = weights[subset], values[subset]
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        blocks = list(nb._blocks(indptr))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == subset.size
        assert all(hi == lo + 1 or indptr[hi] - indptr[lo] <= budget for lo, hi in blocks)
        mass = nb.row_sums((indptr, indices), w)
        dev = _row_deviations((indptr, indices), w, g)
        avg = g + _centred_means((indptr, indices), w, g, lambda d: d)
    sub_w = np.zeros(space.n)
    sub_w[subset] = weights[subset]
    for a, row in enumerate(rows):
        assert abs(mass[a] - omass(coords, sub_w, subset[a], radius)) <= TOL * mass[a]
        ref = mt.weighted_stats(g[row], w[row])
        assert abs(dev[a] - ref.best_dev) <= TOL * max(1.0, ref.best_dev)
        assert abs(dev[a] - oE(g[row], w[row])) <= TOL * max(1.0, ref.best_dev)
        assert abs(avg[a] - ref.mean) <= TOL * max(1.0, abs(ref.mean))


@PROPS
@given(instances(), st.data(), st.booleans())
def test_cross_pairs_and_pair_abs_diffs(inst, data, matrix):
    coords, weights, values, subset_a, radius, budget = inst
    n = coords.shape[0]
    subset_b = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    space = _space(coords, weights, matrix)
    na, nbb = nb.subset_neighbors(space, subset_a), nb.subset_neighbors(space, subset_b)
    ia, ib = na.cross_pairs(nbb, radius)
    want = [(a, b) for a, x in enumerate(subset_a) for b, y in enumerate(subset_b)
            if y in oball(coords, x, radius)]
    assert list(zip(ia.tolist(), ib.tolist())) == want

    rows_a = _oracle_rows(coords, subset_a, radius)
    b_sub = {int(i): p for p, i in enumerate(subset_b)}
    rows_b = [[b_sub[i] for i in oball(coords, y, radius) if i in b_sub] for y in subset_b]
    wa, ga, wb, gb = weights[subset_a], values[subset_a], weights[subset_b], values[subset_b]
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        got = _pair_abs_diffs(_sweep(na, radius), wa, ga, _sweep(nbb, radius), wb, gb, ia, ib)
    for t, (a, b) in enumerate(want):
        ref = sum(wa[x] * wb[y] * abs(ga[x] - gb[y]) for x in rows_a[a] for y in rows_b[b])
        assert abs(got[t] - ref) <= TOL * max(1.0, ref)


@PROPS
@given(instances(), st.data(), st.booleans())
def test_pair_abs_diffs_on_repeated_pairs(inst, data, matrix):
    """Pairs of any rows, repeated, so many (row a, point y) combinations
    recur within and across blocks."""
    coords, weights, values, subset, radius, budget = inst
    space = _space(coords, weights, matrix)
    nbrs = nb.subset_neighbors(space, subset)
    m = subset.size
    ia = np.sort(np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=40))))
    ib = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=ia.size, max_size=ia.size)))
    rows = _oracle_rows(coords, subset, radius)
    w, g = weights[subset], values[subset]
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        got = _pair_abs_diffs(_sweep(nbrs, radius), w, g, _sweep(nbrs, radius), w, g, ia, ib)
    assert np.all(got >= 0)
    for t, (a, b) in enumerate(zip(ia, ib)):
        ref = sum(w[x] * w[y] * abs(g[x] - g[y]) for x in rows[a] for y in rows[b])
        assert abs(got[t] - ref) <= TOL * max(1.0, ref)


def test_gl3_finite_on_a_step():
    """Where both balls hold one value of a 0/1 step, the prefix-sum terms
    cancel to a zero that rounded to -5e-16 and made gl3 NaN."""
    space, pw = mt.generate(mt.difficult_case_spec(1 / 24), verify=False)
    f = mt.make_sample_function(space, pw, "step")
    assert np.isfinite(mt.gluing(space, pw, f, 2.5, which=3).value)


def _some_ids(data, n):
    """Point ids in any order, with repeats, on or off the subset."""
    return np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30)))


@PROPS
@given(instances(), st.data(), st.booleans())
def test_rows_of_around_any_centres(inst, data, matrix):
    coords, weights, values, subset, radius, budget = inst
    centres = _some_ids(data, coords.shape[0])
    space = _space(coords, weights, matrix)
    nbrs = nb.subset_neighbors(space, subset)
    in_sub = {int(i): p for p, i in enumerate(subset)}
    want = [[in_sub[i] for i in oball(coords, x, radius) if i in in_sub] for x in centres]
    np.testing.assert_array_equal(nbrs.counts_of(centres, radius), [len(row) for row in want])
    w, g = weights[subset], values[subset]
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        blocks = list(nbrs.rows_of(centres, radius))
        dev = np.concatenate([_row_deviations(csr, w, g) for _, _, csr in blocks])
    assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]] and blocks[-1][1] == centres.size
    assert all(hi == lo + 1 or csr[0][-1] <= budget for lo, hi, csr in blocks)
    rows = [list(ind[ptr[a]:ptr[a + 1]]) for _, _, (ptr, ind) in blocks for a in range(ptr.size - 1)]
    assert rows == want
    # value-ranked rows list rank[j] in increasing order
    rank = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(subset.size)
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        ranked = _ranked_rows(nbrs, centres, radius, rank, nbrs.counts_of(centres, radius))
        dev_of = nbrs.deviations_of(centres, radius, w, g)
    got = [list(ind[ptr[a]:ptr[a + 1]]) for _, _, (ptr, ind) in ranked for a in range(ptr.size - 1)]
    assert got == [sorted(rank[row].tolist()) for row in want]
    for a, row in enumerate(want):
        ref = oE(g[row], w[row])
        assert abs(dev[a] - ref) <= TOL * max(1.0, ref)
        assert abs(dev_of[a] - ref) <= TOL * max(1.0, ref)


@PROPS
@given(instances(), st.data(), st.booleans())
def test_ball_sums_equal_row_sums(inst, data, matrix):
    """Around the subset's own points the sums equal ``row_sums`` over
    their sweep, around any points the oracle."""
    coords, weights, values, subset, radius, budget = inst
    space = _space(coords, weights, matrix)
    nbrs = nb.subset_neighbors(space, subset)
    stack = np.stack([weights[subset], values[subset]])
    centres = _some_ids(data, coords.shape[0])
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        own = nbrs.ball_sums(subset, radius, stack)
        got = nbrs.ball_sums(centres, radius, stack)
    for w, row in zip(stack, own):
        np.testing.assert_allclose(row, nb.row_sums(_sweep(nbrs, radius), w), rtol=TOL, atol=TOL)
    in_sub = {int(i): p for p, i in enumerate(subset)}
    for a, x in enumerate(centres):
        members = [in_sub[i] for i in oball(coords, x, radius) if i in in_sub]
        for w, row in zip(stack, got):
            assert abs(row[a] - sum(w[members])) <= TOL * max(1.0, sum(abs(w[members])))


def _values_of_kind(data, kind, drawn):
    """The drawn values, or values that stop the scale sweep early: random,
    a single spike, a constant."""
    n = drawn.size
    if kind == "random":
        return np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(-1.0, 1.0, n)
    if kind == "spike":
        return np.where(np.arange(n) == data.draw(st.integers(0, n - 1)), 5.0, 0.0)
    return drawn if kind == "drawn" else np.full(n, 0.3)


@PROPS
@given(instances(), st.data(), st.booleans(), st.sampled_from(["drawn", "random", "spike", "constant"]))
def test_calderon_maximal_matches_oracle(inst, data, matrix, kind):
    """Scales 2^-j for j = 0..2, so doubled radii 2, 1, 1/2 land on lattice
    distances; evaluation points may lie off S."""
    coords, weights, values, subset, _, budget = inst
    values = _values_of_kind(data, kind, values)
    eval_ids = _some_ids(data, coords.shape[0])
    space = _space(coords, weights, matrix, resolution=0.25)
    piece = mt.SubsetPiece(ids=subset, theta=0.5, weights=weights[subset])
    seq = mt.build_measure_sequence(space, mt.compose_piecewise([piece]), 1.0)
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        got = mt.calderon_maximal(space, seq, values, eval_ids)
    mk = [seq.dense(k) for k in range(seq.k_max + 1)]
    for x, val in zip(eval_ids, got):
        want = osharp(coords, set(subset.tolist()), mk, values, int(x), seq.k_max)
        assert abs(val - want) <= TOL * max(1.0, want)


@PROPS
@given(instances(), st.data(), st.booleans())
def test_sharp_mu_s1_matches_oracle(inst, data, matrix):
    coords, weights, values, s1, _, budget = inst
    s2 = np.array(sorted(data.draw(st.sets(st.integers(0, coords.shape[0] - 1), min_size=1))))
    space = _space(coords, weights, matrix, resolution=0.25)
    pw = mt.compose_piecewise([
        mt.SubsetPiece(ids=s1, theta=0.0, weights=weights[s1]),
        mt.SubsetPiece(ids=s2, theta=1.0, weights=weights[s2]),
    ])
    # the cloud lies in the unit cube, so every ball at r_top = 2 holds S1
    assert np.all(nb.subset_neighbors(space, s1).counts_of(pw.union_ids, 2.0) == s1.size)
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        got = mt.sharp_mu_s1(space, pw, values)
    for x, val in zip(pw.union_ids, got):
        want = osharp_mu_s1(coords, weights, set(s1.tolist()), values, int(x), space.scale_floor)
        assert abs(val - want) <= TOL * max(1.0, want)


@PROPS
@given(instances(), st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0), st.booleans())
def test_porosity_scan_matches_oracle(inst, sigma, matrix):
    coords, weights, _, subset, radius, _ = inst
    space = _space(coords, weights, matrix, resolution=0.25)
    grid = [radius, 1.0, 0.5]
    rep = mt.porosity_scan(space, subset, sigma, grid)
    for r, mask in zip(grid, rep.porous_points_per_scale):
        assert mask.tolist() == oporous_mask(coords, subset.tolist(), sigma, r, 0.25)


@pytest.mark.parametrize("matrix", [False, True])
def test_calderon_probe_misses_only_fine_scales(matrix):
    """A point off S whose finest probe ball is empty still takes the
    coarser scales, where the probe meets S."""
    coords = np.array([[0.0], [0.0], [0.5]])
    space = _space(coords, np.ones(3), matrix, resolution=0.25)
    piece = mt.SubsetPiece(ids=np.array([0, 1]), theta=0.5, weights=np.ones(2))
    seq = mt.build_measure_sequence(space, mt.compose_piecewise([piece]), 1.0)
    values = np.array([-1.0, 0.0, 7.0])
    got = mt.calderon_maximal(space, seq, values, [2, 0])
    mk = [seq.dense(k) for k in range(seq.k_max + 1)]
    want = [osharp(coords, {0, 1}, mk, values, x, seq.k_max) for x in (2, 0)]
    assert want[0] == 1.0
    np.testing.assert_allclose(got, want, rtol=TOL)


def test_porosity_masks_shared_per_sigma_and_grid():
    coords = np.stack(np.meshgrid(np.arange(9) / 8, np.arange(9) / 8, indexing="ij"), -1).reshape(-1, 2)
    space = mt.FiniteMetricMeasureSpace(weights=np.full(81, 1 / 81), coords=coords, resolution=1 / 8)
    line = np.flatnonzero(coords[:, 1] == 0.5)
    first = mt.porosity_scan(space, line, 0.25, [0.5, 0.25])
    with mock.patch("mmtrace.regularity._kd_tree", side_effect=AssertionError("rebuilt")):
        again = mt.porosity_scan(space, line, 0.25, [0.5, 0.25])
    assert all(a is b for a, b in zip(first.porous_points_per_scale, again.porous_points_per_scale))
    assert not first.porous_points_per_scale[0].flags.writeable
    other = mt.porosity_scan(space, line, 0.5, [0.5, 0.25])
    assert other.porous_points_per_scale[0] is not first.porous_points_per_scale[0]


@pytest.mark.parametrize("matrix", [False, True])
def test_rows_of_block_mixing_empty_and_non_empty_rows(matrix):
    """A block whose centres have empty and non-empty rows: its tree holds
    only the centres of the non-empty rows, and every row equals the
    brute-force scan."""
    coords = np.stack(np.meshgrid(np.arange(9) / 8, np.arange(9) / 8, indexing="ij"), -1).reshape(-1, 2)
    space = _space(coords, np.ones(81), matrix)
    subset = np.flatnonzero(coords[:, 0] == 0.0)
    nbrs = nb.SubsetNeighbors(space, subset)
    centres = np.array([80, 0, 40, 9, 72, 18, 4, 44])
    want = _oracle_rows(coords, subset, 0.2, centres)
    sizes = []
    # the subset's own tree is built on its first KD query, before the patch
    nbrs.counts_of(centres, 0.2)
    with mock.patch.object(nb, "_kd_tree", side_effect=lambda pts: sizes.append(len(pts)) or cKDTree(pts)):
        blocks = list(nbrs.rows_of(centres, 0.2))
    assert len(blocks) == 1
    ptr, ind = blocks[0][2]
    assert [ind[ptr[a] : ptr[a + 1]].tolist() for a in range(centres.size)] == want
    assert 0 < sum(map(bool, want)) < centres.size
    assert sizes == ([] if matrix else [sum(map(bool, want))])


def test_long_row_split_from_its_block():
    """A row longer than the pair budget is reduced as a block of its own."""
    coords = np.linspace(0, 1, 40).reshape(-1, 1)
    space = mt.FiniteMetricMeasureSpace(weights=np.full(40, 1 / 40), coords=coords)
    rng = np.random.default_rng(5)
    g = rng.normal(size=40)
    balls = _sweep(nb.subset_neighbors(space, np.arange(40)), 2.0)
    assert np.all(np.diff(balls[0]) == 40)
    want = mt.weighted_stats(g, space.weights).best_dev
    with mock.patch.object(nb, "PAIR_BLOCK", 16):
        assert list(nb._blocks(balls[0]))[:2] == [(0, 1), (1, 2)]
        dev = _row_deviations(balls, space.weights, g)
    np.testing.assert_allclose(dev, want, rtol=TOL)


def test_empty_rows_reduce_to_zero():
    """np.add.reduceat gives the next element for an empty row."""
    csr = (np.array([0, 2, 2, 4, 4]), np.array([0, 1, 1, 2], dtype=np.int32))
    np.testing.assert_array_equal(nb.row_sums(csr, np.array([1.0, 2.0, 4.0])), [3.0, 0.0, 6.0, 0.0])
    np.testing.assert_array_equal(_row_deviations(csr, np.ones(3), np.array([0.0, 1.0, 5.0])), [0.5, 0.0, 2.0, 0.0])
    only_empty = (np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int32))
    np.testing.assert_array_equal(_row_deviations(only_empty, np.ones(3), np.zeros(3)), [0.0, 0.0])


def test_subset_neighbors_cached_per_space_and_ids(grid1d_11):
    a = nb.subset_neighbors(grid1d_11, [3, 1, 2])
    assert nb.subset_neighbors(grid1d_11, np.array([1, 2, 3])) is a
    assert nb.subset_neighbors(grid1d_11, [1, 2]) is not a
    other = mt.FiniteMetricMeasureSpace(weights=grid1d_11.weights, coords=grid1d_11.coords)
    assert nb.subset_neighbors(other, [1, 2, 3]) is not a


def test_cache_does_not_keep_the_space_alive():
    space = mt.FiniteMetricMeasureSpace(weights=np.ones(3), coords=np.arange(3.0).reshape(-1, 1))
    nbrs = nb.subset_neighbors(space, [0, 2])
    nbrs.deviations_of([0, 1], 1.0, np.ones(2), np.arange(2.0))
    del nbrs
    ref = weakref.ref(space)
    del space
    assert ref() is None


@PROPS
@given(instances(), st.data(), st.booleans())
def test_kernels_do_not_depend_on_the_block(inst, data, matrix):
    """A row's sum and deviation and a pair's numerator are the same bits
    whichever rows share its block."""
    coords, weights, values, subset, radius, _ = inst
    space = _space(coords, weights, matrix)
    nbrs = nb.subset_neighbors(space, subset)
    stack = np.stack([weights[subset], values[subset]])
    centres = _some_ids(data, coords.shape[0])
    m = subset.size
    ia = np.sort(np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=40))))
    ib = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=ia.size, max_size=ia.size)))
    w, g = stack

    def kernels():
        csr = _sweep(nbrs, radius)
        return [nbrs.ball_sums(centres, radius, stack), nbrs.deviations_of(centres, radius, w, g),
                nb.row_sums(csr, g), _pair_abs_diffs(csr, w, g, csr, w, g, ia, ib)]

    want = kernels()
    for budget in (1, 3, 7):
        with mock.patch.object(nb, "PAIR_BLOCK", budget):
            got = kernels()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def _joined(blocks):
    """One CSR from ``rows_of`` blocks: indptr from their row lengths."""
    lengths = [np.diff(ptr) for _, _, (ptr, _) in blocks]
    indices = [ind for _, _, (_, ind) in blocks]
    assert all(ptr.dtype == np.int64 and ind.dtype == np.int32 for _, _, (ptr, ind) in blocks)
    return np.concatenate([[0]] + lengths).cumsum(), np.concatenate([np.zeros(0, np.int32)] + indices)


def _gather(csr, rows, rank=None):
    """Rows of csr (with repeats) as a CSR; with rank, rank[j] for j, sorted."""
    indptr, indices = csr
    parts = [indices[indptr[a] : indptr[a + 1]] for a in rows]
    if rank is not None:
        parts = [np.sort(rank[p]).astype(np.int32) for p in parts]
    return np.concatenate([[0]] + [[p.size] for p in parts]).cumsum(), np.concatenate([np.zeros(0, np.int32)] + parts)


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_joined_takes_blocks_in_any_order():
    """``joined`` lays the rows of ``_per_ball`` blocks at their positions,
    whichever order the blocks come in, and empties the list it is given;
    a shared full row stands for each of its positions."""
    def block(at, rows):
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows]))).astype(np.int64)
        return np.array(at), (indptr, np.array([j for row in rows for j in row], dtype=np.int32))

    full = list(range(6))
    blocks = [block([2, 7, 4], [full]), block([0, 1], [[0, 2], []]), block([3, 5, 6], [[1, 3, 5], [4], [0, 1]]),
              block([9], [full]), block([8], [[2, 3]])]
    want = [[0, 2], [], full, [1, 3, 5], full, [4], [0, 1], full, [2, 3], full]
    for seed in range(6):
        kept = [blocks[a] for a in np.random.default_rng(seed).permutation(len(blocks))]
        indptr, indices = nb.joined(kept, len(want))
        assert not kept and indptr.dtype == np.int64 and indices.dtype == np.int32
        assert [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == want


@PROPS
@given(instances(), st.data())
def test_pair_lists_equal_the_query_pairs_oracle(inst, data):
    """``_sweep``, plain and ranked ``rows_of`` and ``cross_pairs`` give
    the arrays, dtypes too, of the whole-sweep query_pairs builder, on tree
    and matrix twins and for every pair budget."""
    coords, weights, _, subset, radius, budget = inst
    n = coords.shape[0]
    other = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    centres = subset[np.array(data.draw(st.lists(st.integers(0, subset.size - 1), max_size=30)), dtype=int)]
    rank = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(subset.size)
    union = np.union1d(subset, other)
    for matrix in (False, True):
        space = _space(coords, weights, matrix)
        want = oquery_pairs_lists(space, subset, radius)
        whole = oquery_pairs_lists(space, union, radius)
        a_at, b_at = np.searchsorted(union, subset), np.searchsorted(union, other)
        b_pos = np.full(union.size, -1)
        b_pos[b_at] = np.arange(other.size)
        ia, ib = [], []
        for a, u in enumerate(a_at):
            row = b_pos[whole[1][whole[0][u] : whole[0][u + 1]]]
            ib += sorted(row[row >= 0].tolist())
            ia += [a] * int(np.count_nonzero(row >= 0))
        with mock.patch.object(nb, "PAIR_BLOCK", budget):
            nbrs = nb.subset_neighbors(space, subset)
            pos = np.searchsorted(subset, centres)
            _assert_same(_joined(list(nbrs.rows_of(centres, radius))), _gather(want, pos))
            _assert_same(_joined(_ranked_rows(nbrs, centres, radius, rank)), _gather(want, pos, rank))
            _assert_same(nbrs._sweep(nbrs.ids, radius), want)
            _assert_same(nbrs.cross_pairs(nb.subset_neighbors(space, other), radius),
                         (np.array(ia, dtype=np.int32), np.array(ib, dtype=np.int32)))


GRID_SIDES = {1: (2, 30), 2: (2, 10), 3: (2, 5)}


@st.composite
def grid_boxes(draw, dim, m):
    """The ids of a box of the grid {0..m}^dim: per axis all of it, one
    index, the lower half or an interval, so single points, segments,
    faces, half-planes and the whole grid all occur."""
    sides = []
    for _ in range(dim):
        kind = draw(st.sampled_from(["all", "one", "half", "interval"]))
        lo = draw(st.integers(0, m))
        hi = {"all": (0, m), "one": (lo, lo), "half": (0, m // 2), "interval": (lo, draw(st.integers(lo, m)))}[kind]
        sides.append(np.arange(hi[0], hi[1] + 1))
    grid = np.meshgrid(*sides, indexing="ij")
    return np.sort(np.ravel_multi_index([g.ravel() for g in grid], (m + 1,) * dim))


def _assert_same_as_kd_twin(got, want, other, centres, radius, rank):
    """Counts, plain and ranked rows with their block bounds, the sweep
    (also against the query_pairs oracle) and cross pairs of ``got`` equal
    those of its KD twin ``want``, dtypes too."""
    for r in (None, rank):
        a, b = (list(x.rows_of(centres, radius)) if r is None else _ranked_rows(x, centres, radius, r) for x in (got, want))
        assert [blk[:2] for blk in a] == [blk[:2] for blk in b]
        for (_, _, csr_a), (_, _, csr_b) in zip(a, b):
            _assert_same(csr_a, csr_b)
    _assert_same([got.counts_of(centres, radius)], [want.counts_of(centres, radius)])
    _assert_same(got._sweep(got.ids, radius), want._sweep(want.ids, radius))
    _assert_same(got._sweep(got.ids, radius), oquery_pairs_lists(got.space, got.ids, radius))
    _assert_same(got.cross_pairs(nb.SubsetNeighbors(got.space, other), radius),
                 want.cross_pairs(nb.SubsetNeighbors(want.space, other), radius))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_box_stencils_equal_the_kd_rows(data):
    """On a union of one to three (possibly overlapping) boxes of a full
    grid, counts, plain and ranked rows with their block bounds, the sweep
    and cross pairs come from integer stencils without a KD tree, equal,
    dtypes too, to the KD builder's on a twin cloud that is no lattice (and
    the sweep to the query_pairs oracle); at ambiguous radii, and on a
    union that splits into more than ``_MAX_BOXES`` boxes, the KD tree
    answers."""
    from mmtrace._lattice import _budget
    from mmtrace.space import _pad

    dim = data.draw(st.integers(1, 3), label="dim")
    m = data.draw(st.integers(*GRID_SIDES[dim]), label="m")
    space = mt.build_grid_space(f"grid{dim}d", 1.0 / m)
    twin = mt.FiniteMetricMeasureSpace(weights=space.weights, coords=space.coords, resolution=2.0)
    assert space._lattice is not None and twin._lattice is None
    parts = data.draw(st.lists(grid_boxes(dim, m), min_size=1, max_size=3), label="boxes")
    ids, other = np.unique(np.concatenate(parts)), data.draw(grid_boxes(dim, m), label="other")
    j = data.draw(st.integers(0, dim * m * m + 2), label="j")
    kind = data.draw(st.sampled_from(["root", "dyadic", "ambiguous"]), label="kind")
    radius = {
        "root": math.sqrt(j) / m,
        "dyadic": 2.0 ** -data.draw(st.integers(-1, 6), label="k"),
        # padded, this radius lands on a lattice distance up to round-off
        "ambiguous": (math.sqrt(min(max(j, 1), dim * m * m)) / m - 1e-12) / (1 + 1e-12)
        * (1 + data.draw(st.integers(-8, 8), label="ulps") * 2.0**-52),
    }[kind]
    centres = np.array(data.draw(st.lists(st.sampled_from(ids) | st.integers(0, space.n - 1), max_size=40)), dtype=int)
    rank = np.random.default_rng(data.draw(st.integers(0, 2**16))).permutation(ids.size)
    budget = data.draw(st.sampled_from([1, 3, 7, nb.PAIR_BLOCK]), label="budget")
    got, want = (nb.SubsetNeighbors(s, ids) for s in (space, twin))
    if len(parts) == 1:
        assert len(got._boxes) == 1 and got._boxes[0].at is None
    if got._boxes is not None:
        # disjoint boxes that make up the subset
        held = np.concatenate([b.at if b.at is not None else np.arange(ids.size) for b in got._boxes])
        np.testing.assert_array_equal(np.sort(held), np.arange(ids.size))
    stencil = _budget(_pad(radius), m, dim) is not None
    assert stencil == (kind != "ambiguous")
    with mock.patch.object(nb, "PAIR_BLOCK", budget):
        _assert_same_as_kd_twin(got, want, other, centres, radius, rank)
    assert (got._tree is None) == (stencil and got._boxes is not None)


@pytest.mark.parametrize("dim,m,step", [(1, 40, 2), (2, 6, 5), (3, 3, 7)])
def test_subsets_past_the_box_cap_take_the_kd_path(dim, m, step):
    """Every step-th grid point makes more than ``_MAX_BOXES`` boxes: the
    decomposition gives up and the KD rows answer, equal to the twin's;
    a union of exactly ``_MAX_BOXES`` single points still reads stencils."""
    from mmtrace._lattice import _MAX_BOXES

    space = mt.build_grid_space(f"grid{dim}d", 1.0 / m)
    twin = mt.FiniteMetricMeasureSpace(weights=space.weights, coords=space.coords, resolution=2.0)
    scattered = np.arange(0, space.n, step)
    assert scattered.size > _MAX_BOXES
    got, want = (nb.SubsetNeighbors(s, scattered) for s in (space, twin))
    assert got._boxes is None
    rank = np.random.default_rng(step).permutation(scattered.size)
    for radius in (0.5 / m, 1.0 / m, 1.5 / m, 0.5):
        _assert_same_as_kd_twin(got, want, space.ids[:5], space.ids, radius, rank)
    assert got._tree is not None
    few = nb.SubsetNeighbors(space, scattered[:_MAX_BOXES])
    assert len(few._boxes) == _MAX_BOXES
    _assert_same_as_kd_twin(few, nb.SubsetNeighbors(twin, scattered[:_MAX_BOXES]), space.ids[:5], space.ids, 1.5 / m,
                            np.arange(_MAX_BOXES)[::-1])
    assert few._tree is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_porosity_masks_on_a_grid_equal_the_kd_twin(data):
    """On a full grid, a hole under one mesh cell (sigma = 0.01 here) makes
    the far set the grid minus the subset, and each mask compares stencil
    counts, with no KD tree at unambiguous reaches; wider holes (sigma 0.3
    and 1) take the KD code.  Masks equal those of a twin with the grid's
    resolution but no lattice (weights off the classes)."""
    from mmtrace import regularity as rg

    dim = data.draw(st.integers(1, 3), label="dim")
    m = data.draw(st.integers(*GRID_SIDES[dim]), label="m")
    space = mt.build_grid_space(f"grid{dim}d", 1.0 / m)
    twin = mt.FiniteMetricMeasureSpace(weights=np.arange(1.0, space.n + 1), coords=space.coords, resolution=1.0 / m)
    assert twin._lattice is None
    parts = data.draw(st.lists(grid_boxes(dim, m), min_size=1, max_size=3), label="boxes")
    ids = np.unique(np.concatenate(parts))
    js = data.draw(st.lists(st.integers(0, dim * m * m + 2), max_size=3), label="j")
    r_grid = mt.default_r_grid(space) + [math.sqrt(j) / m for j in js]
    for sigma in (0.01, 0.3, 1.0):
        with mock.patch.object(rg, "_kd_tree", wraps=rg._kd_tree) as trees:
            got = mt.porosity_scan(space, ids, sigma, r_grid).porous_points_per_scale
        want = mt.porosity_scan(twin, ids, sigma, r_grid).porous_points_per_scale
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        if sigma == 0.01 and all(nb._budget(nb._pad((1 - sigma) * r), m, dim) is not None for r in r_grid):
            assert trees.call_count == 0 and nb.subset_neighbors(space, ids)._tree is None


def test_self_lists_memory_per_stored_pair():
    """A sweep is filled block by block: its peak allocation is its own
    int32 indices plus a bounded block, not a whole-sweep int64 key array."""
    space, pw = mt.generate(mt.difficult_case_spec(1 / 64), verify=False)
    nbrs = nb.SubsetNeighbors(space, pw.pieces[0].ids)
    tracemalloc.start()
    try:
        indptr, indices = nbrs._sweep(nbrs.ids, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert indices.size == 3_139_149
    assert peak <= 5 * indices.size + 2e6

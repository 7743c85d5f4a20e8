"""The exact cover and the exact nice family, both 0-1 programs solved by
HiGHS, against plain subset enumeration at rel 1e-12.

HiGHS prunes and stops within an absolute 1e-6 of the costs it is given,
and the helper scales the costs so that this is 1e-13 of the smallest
one; these tests are what hold "exact" to 1e-12.  Hypothesis draws
weights and terms as dyadic rationals, tied or spread over decades;
continuous weights come from fixed seeds, and the near-tie pools space
their weights from 1e-5 down to 1e-11 apart, below the unscaled stop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtrace as mt
from mmtrace.content import _candidate_pool, _exact_cover, _pool_radii
from mmtrace.errors import InvalidParameter
from oracles import oball, oexact_cover, oexact_family, omass
from test_content import lattice_queries

PROPS = settings(max_examples=60, deadline=None)


def dyadic(lo_k: int):
    """k * 2^e for k in [lo_k, 40] and e in [-10, 10], or 1 + k * 2^-12:
    near ties that a relative gap stop of 1e-4 would not tell apart."""
    return st.one_of(st.builds(lambda k, e: k * 2.0**e, st.integers(lo_k, 40), st.integers(-10, 10)),
                     st.integers(max(lo_k, 0), 40).map(lambda k: 1.0 + k * 2.0**-12))


# whole pools at round-off scale, at unit scale and far above it
MAGNITUDES = st.sampled_from([2.0**-30, 1.0, 2.0**20])

# tied weights 2^-18 and 2^-30 apart, and 1 + spread * U
NEAR_TIES = [2.0**-18, 2.0**-30, 1e-5, 1e-7, 1e-9, 1e-11]


def near_ties(rng, spread, size):
    if spread in (2.0**-18, 2.0**-30):
        return 1.0 + rng.integers(0, 40, size) * spread
    return 1.0 + spread * rng.random(size)


class TestExactCover:
    @PROPS
    @given(lattice_queries())
    def test_lattice_pools_equal_the_enumeration(self, query):
        space, target, theta, delta = query
        # the first target points, for at most 12 candidates
        target = target[: max(1, 12 // len(_pool_radii(space, delta)))]
        sol = mt.hausdorff_content(space, mt.ContentQuery(target, theta, delta, "exact"))
        balls, _, _ = _candidate_pool(space, target, theta, delta)
        pos = {int(x): a for a, x in enumerate(target)}
        covers = [[pos[i] for i in oball(space.coords, b.center, b.radius) if i in pos] for b in balls]
        weights = [omass(space.coords, space.weights, b.center, b.radius) / b.radius**theta for b in balls]
        assert sol.value == pytest.approx(oexact_cover(target.size, covers, weights), rel=1e-12)
        chosen = [balls.index(b) for b in sol.balls]
        assert chosen == sorted(set(chosen))
        assert set().union(*(covers[i] for i in chosen)) == set(range(target.size))

    @PROPS
    @given(st.integers(1, 8), st.data())
    def test_random_pools_equal_the_enumeration(self, n_target, data):
        covers = [np.array(sorted(c)) for c in data.draw(st.lists(
            st.sets(st.integers(0, n_target - 1), min_size=1), min_size=1, max_size=12))]
        scale = data.draw(MAGNITUDES)
        weights = [scale * w for w in data.draw(st.lists(dyadic(0), min_size=len(covers), max_size=len(covers)))]
        want = oexact_cover(n_target, covers, weights)
        if want is None:
            with pytest.raises(InvalidParameter, match="cannot cover"):
                _exact_cover(n_target, covers, weights)
            return
        chosen, value = _exact_cover(n_target, covers, weights)
        assert value == pytest.approx(want, rel=1e-12)
        assert value == sum(weights[i] for i in chosen)
        assert chosen == sorted(set(chosen))
        assert set().union(*(set(covers[i].tolist()) for i in chosen)) == set(range(n_target))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    @pytest.mark.parametrize("seed", range(20))
    def test_continuous_weights_equal_the_enumeration(self, seed, scale):
        rng = np.random.default_rng(seed)
        n_target = int(rng.integers(1, 9))
        covers = [np.flatnonzero(rng.random(n_target) < 0.4) for _ in range(rng.integers(1, 13))]
        weights = list(scale * 10.0 ** rng.uniform(-4, 2, len(covers)))
        want = oexact_cover(n_target, covers, weights)
        if want is None:
            with pytest.raises(InvalidParameter, match="cannot cover"):
                _exact_cover(n_target, covers, weights)
        else:
            assert _exact_cover(n_target, covers, weights)[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spread", NEAR_TIES)
    @pytest.mark.parametrize("seed", range(60))
    def test_near_ties_equal_the_enumeration(self, seed, spread):
        # unscaled, HiGHS's 1e-6 stop misses the optimum on some of these
        rng = np.random.default_rng(seed)
        n_target = int(rng.integers(4, 9))
        covers = [c for c in (np.flatnonzero(rng.random(n_target) < 0.4) for _ in range(12)) if c.size]
        weights = list(near_ties(rng, spread, len(covers)))
        want = oexact_cover(n_target, covers, weights)
        if want is not None:
            assert _exact_cover(n_target, covers, weights)[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(40))
    def test_both_gap_is_not_negative(self, seed, theta):
        # masses 1e-9 apart: where greedy is optimal, an exact value above it shows as a negative gap
        rng = np.random.default_rng(seed)
        weights = 1.0 + 1e-9 * rng.random(9)
        space = mt.FiniteMetricMeasureSpace(weights=weights, coords=np.arange(9.0).reshape(-1, 1) / 8, resolution=1 / 8)
        target = rng.choice(9, 6, replace=False)
        both = mt.hausdorff_content(space, mt.ContentQuery(target, theta, 0.3, "both"))
        exact = mt.hausdorff_content(space, mt.ContentQuery(target, theta, 0.3, "exact"))
        assert both.optimality_gap >= 0
        assert both.value >= exact.value * (1 - 1e-14)

    def test_uncoverable_pool(self):
        with pytest.raises(InvalidParameter, match="cannot cover"):
            _exact_cover(3, [np.array([0, 1]), np.array([1])], [1.0, 0.5])
        with pytest.raises(InvalidParameter, match="cannot cover"):
            _exact_cover(1, [], [])

    def test_same_query_same_balls(self):
        coords = np.linspace(0, 1, 9).reshape(-1, 1)
        space = mt.FiniteMetricMeasureSpace(weights=np.full(9, 1 / 9), coords=coords, resolution=1 / 8)
        query = mt.ContentQuery([0, 2, 3, 7], 0.5, 0.6, "exact")
        first, second = (mt.hausdorff_content(space, query) for _ in range(2))
        assert first.balls == second.balls and first.value == second.value


@st.composite
def exact_family_pools(draw):
    """A 1-d or 2-d cloud (lattice or random), a subset, at most 12
    distinct candidate balls, their terms (dyadic, of either sign, zero
    included, at one magnitude), a budget from 1 up and a family kind."""
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        side = draw(st.integers(2, {1: 16, 2: 5}[dim]))
        axes = np.meshgrid(*[np.arange(side) / 8.0] * dim, indexing="ij")
        coords = np.stack([a.ravel() for a in axes], axis=1)
    else:
        coords = rng.uniform(0, 1, size=(draw(st.integers(2, 24)), dim))
    n = coords.shape[0]
    subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    keys = dict.fromkeys(zip(rng.integers(0, n, draw(st.integers(0, 12))).tolist(),
                             rng.choice([1.0, 0.5, 0.25, 0.125], 12).tolist()))
    cands = [mt.Ball(c, r) for c, r in keys]
    terms = draw(st.lists(st.one_of(dyadic(-40), st.sampled_from([-1.0, 0.0, 1.0, 2.0])),
                          min_size=len(cands), max_size=len(cands)))
    scale = draw(MAGNITUDES)
    terms = [scale * t for t in terms]
    return coords, subset, cands, dict(zip(keys, terms)), draw(st.integers(1, 12)), draw(st.sampled_from(["nice", "whitney"]))


def exact_family(space, subset, c, budget, terms, cands, kind="nice"):
    return mt.enumerate_or_search_nice_family(
        space, subset, c, budget, term_fn=lambda balls, masses: np.array([terms[(b.center, b.radius)] for b in balls]),
        kind=kind, candidates=cands, method="exact",
    )


class TestExactFamily:
    @settings(max_examples=80, deadline=None)
    @given(exact_family_pools(), st.sampled_from([1.0, 2.0, 6.0]))
    def test_equals_the_enumeration(self, inst, c):
        coords, subset, cands, terms, budget, kind = inst
        space = mt.FiniteMetricMeasureSpace(weights=np.ones(len(coords)), coords=coords, resolution=1 / 8)
        fam = exact_family(space, subset, c, budget, terms, cands, kind)
        s_set = set(map(int, subset))
        pool = [b for b in cands if b.radius <= 1.0 and s_set & set(oball(coords, b.center, c * b.radius))
                and not (kind == "whitney" and s_set & set(oball(coords, b.center, b.radius)))]
        want = oexact_family([oball(coords, b.center, b.radius) for b in pool],
                             [terms[(b.center, b.radius)] for b in pool], budget)
        got = [terms[(b.center, b.radius)] for b in fam.balls]
        assert sum(got) == pytest.approx(want, rel=1e-12)
        assert len(got) <= budget and all(t > 0 for t in got)
        chosen = [pool.index(b) for b in fam.balls]
        assert chosen == sorted(set(chosen))
        mt.validate_nice_family(space, subset, fam)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    @pytest.mark.parametrize("seed", range(10))
    def test_continuous_terms_equal_the_enumeration(self, seed, scale, grid1d_11):
        rng = np.random.default_rng(seed)
        cands = [mt.Ball(int(c), float(r)) for c, r in zip(
            rng.choice(11, 8, replace=False), rng.choice([0.1, 0.2, 0.3], 8))]
        terms = {(b.center, b.radius): scale * float(t) for b, t in zip(cands, rng.normal(0.5, 1.0, 8))}
        budget = int(rng.integers(1, 5))
        fam = exact_family(grid1d_11, np.arange(11), 2.0, budget, terms, cands)
        want = oexact_family([oball(grid1d_11.coords, b.center, b.radius) for b in cands],
                             [terms[(b.center, b.radius)] for b in cands], budget)
        assert sum(terms[(b.center, b.radius)] for b in fam.balls) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spread", NEAR_TIES)
    @pytest.mark.parametrize("seed", range(15))
    def test_near_tied_terms_equal_the_enumeration(self, seed, spread, grid1d_11):
        rng = np.random.default_rng(seed)
        cands = [mt.Ball(int(c), float(r)) for c, r in zip(
            rng.choice(11, 10, replace=False), rng.choice([0.1, 0.2, 0.3], 10))]
        terms = dict(zip(((b.center, b.radius) for b in cands), near_ties(rng, spread, 10).tolist()))
        budget = int(rng.integers(2, 6))
        fam = exact_family(grid1d_11, np.arange(11), 2.0, budget, terms, cands)
        want = oexact_family([oball(grid1d_11.coords, b.center, b.radius) for b in cands],
                             [terms[(b.center, b.radius)] for b in cands], budget)
        assert sum(terms[(b.center, b.radius)] for b in fam.balls) == pytest.approx(want, rel=1e-12)

    def test_budget_below_the_packing_number(self, grid1d_11):
        # eleven disjoint balls; a budget of 3 keeps the three largest terms
        cands = [mt.Ball(i, 0.01) for i in range(11)]
        terms = {(b.center, b.radius): float((7 * b.center) % 11) for b in cands}
        fam = exact_family(grid1d_11, np.arange(11), 2.0, 3, terms, cands)
        assert sorted(terms[(b.center, b.radius)] for b in fam.balls) == [8.0, 9.0, 10.0]
        assert [b.center for b in fam.balls] == sorted(b.center for b in fam.balls)

    def test_no_positive_term_gives_the_empty_family(self, grid1d_11):
        cands = [mt.Ball(i, 0.01) for i in range(5)]
        terms = {(b.center, b.radius): -float(b.center) for b in cands}
        assert exact_family(grid1d_11, np.arange(11), 2.0, 4, terms, cands).balls == []

    def test_same_query_same_balls(self, grid1d_11):
        # every term ties: many optimal families, one answer
        cands = [mt.Ball(i, r) for i in range(0, 11, 2) for r in (0.1, 0.2)]
        terms = {(b.center, b.radius): 1.0 for b in cands}
        first, second = (exact_family(grid1d_11, np.arange(11), 2.0, 3, terms, cands) for _ in range(2))
        assert len(first.balls) == 3 and first.balls == second.balls

    def test_pool_limit(self, grid1d_11):
        cands = [mt.Ball(i, r) for i in range(9) for r in (0.01, 0.02)]
        with pytest.raises(InvalidParameter, match="16 candidates"):
            exact_family(grid1d_11, np.arange(11), 2.0, 3, {(b.center, b.radius): 1.0 for b in cands}, cands)

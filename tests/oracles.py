"""Independent naive-loop oracles for the trace functionals.

Everything here is coded directly from the defining displays with plain
loops: ball membership is a full distance scan on the coordinates, the
deviation infimum is a minimum over the sampled values, scale sums are
explicit, and the cross-piece sums run over ordered (i, j) pairs without
any symmetry folding.  These share nothing with the package's
computational paths beyond the closed-ball float tolerance, which is a
modeling convention rather than an algorithm.
"""

import itertools
import math

import numpy as np

PAD = 1e-12


def oball(coords, center, r):
    c = coords[int(center)] if np.isscalar(center) or isinstance(center, (int, np.integer)) else np.asarray(center)
    d = np.sqrt(((coords - c) ** 2).sum(axis=1))
    return [int(i) for i in range(len(coords)) if d[i] <= r * (1 + PAD) + PAD]


def omass(coords, weights, center, r):
    return float(sum(weights[i] for i in oball(coords, center, r)))


def oE(vals, w):
    """Best-constant weighted L1 deviation by scanning candidates."""
    vals = list(map(float, vals))
    W = float(sum(w))
    if W <= 0 or not vals:
        return 0.0
    return min(sum(wi * abs(v - c) for v, wi in zip(vals, w)) / W for c in vals)


def oOSC(vals, w):
    W = float(sum(w))
    if W <= 0:
        return 0.0
    s = 0.0
    for i in range(len(vals)):
        for j in range(len(vals)):
            s += w[i] * w[j] * abs(vals[i] - vals[j])
    return s / (W * W)


def ok_of_r(r):
    k = 0
    while r > 2.0 ** (-k):
        k -= 1
    while r <= 2.0 ** (-k - 1):
        k += 1
    return k


class OPiece:
    def __init__(self, ids, theta, weights):
        self.ids = [int(i) for i in ids]
        self.theta = float(theta)
        self.w = {int(i): float(v) for i, v in zip(ids, weights)}


def opiece_ball(coords, piece, center, r):
    return [i for i in oball(coords, center, r) if i in piece.w]


def oavg(coords, piece, fvals, k, x):
    members = opiece_ball(coords, piece, x, 2.0 ** (-k))
    W = sum(piece.w[i] for i in members)
    return sum(piece.w[i] * fvals[i] for i in members) / W


def oavg2(coords, pi, pj, fvals, k, y, z):
    mi = opiece_ball(coords, pi, y, 2.0 ** (-k))
    mj = opiece_ball(coords, pj, z, 2.0 ** (-k))
    num = 0.0
    for a in mi:
        for b in mj:
            num += pi.w[a] * pj.w[b] * abs(fvals[a] - fvals[b])
    return num / (sum(pi.w[a] for a in mi) * sum(pj.w[b] for b in mj))


def obesov(coords, piece, fvals, s, p, k_max):
    lp = sum(piece.w[i] * abs(fvals[i]) ** p for i in piece.ids) ** (1.0 / p)
    semi_p = 0.0
    for k in range(1, k_max + 1):
        term = 0.0
        for x in piece.ids:
            members = opiece_ball(coords, piece, x, 2.0 ** (-k))
            e = oE([fvals[i] for i in members], [piece.w[i] for i in members])
            term += piece.w[x] * e**p
        semi_p += 2.0 ** (k * s * p) * term
    return lp + semi_p ** (1.0 / p)


def obesov_alt(coords, piece, fvals, s, p, k_max):
    lp = sum(piece.w[i] * abs(fvals[i]) ** p for i in piece.ids) ** (1.0 / p)
    semi_p = 0.0
    for k in range(1, k_max + 1):
        term = 0.0
        for x in piece.ids:
            members = opiece_ball(coords, piece, x, 2.0 ** (-k))
            W = sum(piece.w[i] for i in members)
            inner = sum(piece.w[i] * abs(fvals[x] - fvals[i]) ** p for i in members) / W
            term += piece.w[x] * inner
        semi_p += 2.0 ** (k * s * p) * term
    return lp + semi_p ** (1.0 / p)


def ogl(coords, weights, pieces, fvals, p, which, k_max):
    """Gluing functional over ordered cross-piece pairs, fully naive."""
    total = 0.0
    n_pieces = len(pieces)
    for i in range(n_pieces):
        for j in range(n_pieces):
            if i == j:
                continue
            pi, pj = pieces[i], pieces[j]
            for k in range(1, k_max + 1):
                r = 2.0 ** (-k)
                for y in pi.ids:
                    for z in pj.ids:
                        d = float(np.linalg.norm(coords[y] - coords[z]))
                        if d > r * (1 + PAD) + PAD:
                            continue
                        wk = 1.0 / math.sqrt(
                            omass(coords, weights, y, r) * omass(coords, weights, z, r)
                        )
                        if which == 1:
                            t = abs(fvals[y] - fvals[z]) ** p
                        elif which == 2:
                            t = abs(oavg(coords, pi, fvals, k, y) - oavg(coords, pj, fvals, k, z)) ** p
                        else:
                            t = oavg2(coords, pi, pj, fvals, k, y, z) ** p
                        total += 2.0 ** (k * (p - pi.theta - pj.theta)) * pi.w[y] * pj.w[z] * wk * t
    return total ** (1.0 / p)


def otilde_e(coords, s_ids, mk, fvals, x, r):
    """Deviation on the doubled ball against the scale measure, or zero."""
    probe = [i for i in oball(coords, x, r) if i in s_ids]
    if not probe:
        return 0.0
    members = [i for i in oball(coords, x, 2.0 * r) if i in s_ids]
    return oE([fvals[i] for i in members], [mk[i] for i in members])


def osharp(coords, s_ids, mk_per_k, fvals, x, k_max):
    best = 0.0
    for j in range(k_max + 1):
        r = 2.0 ** (-j)
        e = otilde_e(coords, s_ids, mk_per_k[j], fvals, x, r)
        best = max(best, e / r)
    return best


def oporous_mask(coords, s_list, sigma, r, resolution):
    """Porosity mask over s_list at one scale, with the one-cell slack."""
    s_set = set(s_list)
    rho_eff = max(sigma * r - resolution, 0.0)
    mask = []
    for x in s_list:
        found = False
        for y in oball(coords, x, (1.0 - sigma) * r):
            d_s = min(float(np.linalg.norm(coords[y] - coords[z])) for z in s_list)
            if d_s > rho_eff + PAD:
                found = True
                break
        mask.append(found)
    return mask


def obn(coords, weights, s_list, mk_per_k, theta, fvals, p, sigma, k_max, resolution):
    """Besov-type functional: lp + sharp norm + porous-set scale sum."""
    s_ids = set(s_list)
    m0 = mk_per_k[0]
    lp = sum(m0[i] * abs(fvals[i]) ** p for i in s_list) ** (1.0 / p)
    sharp_vals = {x: osharp(coords, s_ids, mk_per_k, fvals, x, k_max) for x in s_list}
    sharp = sum(weights[x] * sharp_vals[x] ** p for x in s_list) ** (1.0 / p)
    scale_p = 0.0
    for k in range(1, k_max + 1):
        r = 2.0 ** (-k)
        mask = oporous_mask(coords, s_list, sigma, r, resolution)
        mk = mk_per_k[k]
        term = 0.0
        for x, porous in zip(s_list, mask):
            if not porous:
                continue
            members = [i for i in oball(coords, x, r) if i in s_ids]
            e = oE([fvals[i] for i in members], [mk[i] for i in members])
            term += mk[x] * e**p
        scale_p += 2.0 ** (k * (p - theta)) * term
    return lp + sharp + scale_p ** (1.0 / p)


def obsn_family(coords, weights, s_list, mk_per_k, fvals, p, c, balls, k_max):
    """Family value of the packing functional plus the lp part."""
    s_ids = set(s_list)
    m0 = mk_per_k[0]
    lp = sum(m0[i] * abs(fvals[i]) ** p for i in s_list) ** (1.0 / p)
    total = 0.0
    for center, r in balls:
        k = min(ok_of_r(r), k_max)
        e = otilde_e(coords, s_ids, mk_per_k[k], fvals, center, c * r)
        total += omass(coords, weights, center, r) / r**p * e**p
    return lp + total ** (1.0 / p)


def osharp_mu_s1(coords, weights, s1_ids, fvals, x, scale_floor, r_top=2.0):
    best = 0.0
    r = r_top
    while r >= scale_floor - PAD:
        members = [i for i in oball(coords, x, r) if i in s1_ids]
        best = max(best, oE([fvals[i] for i in members], [weights[i] for i in members]))
        r /= 2.0
    return best


def ogreedy_cover(n_target, covers, weights):
    """Plain greedy weighted set cover: every pick scans all candidates in
    order and keeps the first minimizer (strict <) of weight per newly
    covered element."""
    uncovered = set(range(n_target))
    chosen = []
    while uncovered:
        best, best_score = -1, math.inf
        for i, cov in enumerate(covers):
            gain = len(uncovered & {int(e) for e in cov})
            if gain and weights[i] / gain < best_score:
                best, best_score = i, weights[i] / gain
        chosen.append(best)
        uncovered -= {int(e) for e in covers[best]}
    return chosen


def oexact_cover(n_target, covers, weights):
    """Cheapest cover by plain enumeration of every candidate subset (at
    most 12 candidates): its summed weight, or None when no subset covers."""
    assert len(covers) <= 12
    sets = [set(map(int, cov)) for cov in covers]
    best = None
    for size in range(len(sets) + 1):
        for sub in itertools.combinations(range(len(sets)), size):
            if set().union(*(sets[i] for i in sub)) >= set(range(n_target)):
                value = sum(weights[i] for i in sub)
                if best is None or value < best:
                    best = value
    return best


def oexact_family(member_sets, terms, budget):
    """Largest summed term over the pairwise disjoint subsets of at most
    ``budget`` candidates, by plain enumeration (at most 12 candidates);
    the empty family counts 0."""
    assert len(member_sets) <= 12
    sets = [set(map(int, m)) for m in member_sets]
    best = 0.0
    for size in range(1, min(budget, len(sets)) + 1):
        for sub in itertools.combinations(range(len(sets)), size):
            if all(not sets[a] & sets[b] for a, b in itertools.combinations(sub, 2)):
                best = max(best, sum(terms[i] for i in sub))
    return best


def ogreedy_net(dist, ids, sep):
    """Greedy separated net: scan ids in order, keep a point at distance
    >= sep * (1 - PAD) from every point kept so far."""
    chosen = []
    for i in ids:
        if all(dist(int(i), c) >= sep * (1 - PAD) for c in chosen):
            chosen.append(int(i))
    return chosen


def osearch_family(member_sets, terms, centers, radii, budget):
    """Greedy nice-family search with a swap pass, on plain sets: candidates
    in order of (-term, center, radius); a disjoint ball is added while the
    budget lasts, a ball beating the summed terms of the chosen balls it
    meets (in chosen order) replaces them, and freed budget is refilled;
    at most three rounds.  Returns the sorted chosen indices.  The package
    search has no swap pass, since no swap can gain; keeping the pass here
    checks that claim."""
    sets = [set(map(int, m)) for m in member_sets]
    order = sorted(range(len(sets)), key=lambda i: (-terms[i], centers[i], radii[i]))
    taken, chosen = set(), []
    for i in order:
        if len(chosen) >= budget or terms[i] <= 0:
            break
        if not sets[i] & taken:
            chosen.append(i)
            taken |= sets[i]
    for _ in range(3):
        improved = False
        for i in order:
            if i in chosen or terms[i] <= 0:
                continue
            conflicts = [j for j in chosen if sets[i] & sets[j]]
            if terms[i] > float(np.sum([terms[j] for j in conflicts])) + PAD:
                for j in conflicts:
                    chosen.remove(j)
                    taken -= sets[j]
                if len(chosen) < budget:
                    chosen.append(i)
                    taken |= sets[i]
                    improved = True
                else:
                    for j in conflicts:
                        chosen.append(j)
                        taken |= sets[j]
        for i in order:
            if len(chosen) >= budget:
                break
            if i not in chosen and terms[i] > 0 and not sets[i] & taken:
                chosen.append(i)
                taken |= sets[i]
                improved = True
        if not improved:
            break
    return sorted(chosen)


def odirichlet_lip(dist, fvals, r):
    """Per point x, one at a time: the largest |f(y) - f(x)| / d(x, y) over
    the other points y within r; raises ValueError(x) at the first point
    without one."""
    lip = []
    for x in range(len(fvals)):
        ys = [y for y in range(len(fvals)) if y != x and dist[x, y] <= r * (1 + PAD) + PAD]
        if not ys:
            raise ValueError(x)
        lip.append(max(abs(fvals[y] - fvals[x]) / dist[x, y] for y in ys))
    return np.array(lip)


# -- reference pair lists ----------------------------------------------------
# A whole-sweep pair-list builder, the reference for the ball layer's blocked
# row builder: one query_pairs call (or one matrix scan) and one int64 key
# array over the whole sweep.


def _opad(r):
    return r * (1 + PAD) + PAD


def oquery_pairs_lists(space, ids, radius):
    """CSR (indptr int64, indices int32) of the radius-balls around every
    point of the sorted ids, restricted to them, from cKDTree.query_pairs."""
    from scipy.spatial import cKDTree

    n, r = ids.size, _opad(radius)
    if space.coords is None:
        keys = np.flatnonzero(space.dist_matrix[np.ix_(ids, ids)] <= r)
    else:
        # both orders of every pair i < j, plus the diagonal
        pairs = cKDTree(space.coords[ids]).query_pairs(r, output_type="ndarray")
        m = pairs.shape[0]
        keys = np.empty(2 * m + n, dtype=np.int64)
        keys[:m] = pairs @ np.array([n, 1])
        keys[m : 2 * m] = pairs @ np.array([1, n])
        keys[2 * m :] = np.arange(n, dtype=np.int64) * (n + 1)
        keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, (keys % n).astype(np.int32)


"""The arrows of a quiver of sections as they were computed before the
pruned walk: every fiber generator of every class c_j - c_i and the
Hilbert basis of S0 as candidates, kept when componentwise minimal."""

from toricell.intlinalg import leq


def minimal_points(points):
    """The (v, t) pairs whose v is componentwise minimal among the points
    (all v distinct), sorted by v; t is any data carried along with v.

    In (degree, v) order every w <= v with w != v comes before v, and a w
    that was dropped lies above a kept point; so v need only be compared
    with the points kept so far.
    """
    kept = []
    for v, t in sorted(points, key=lambda p: (sum(p[0]), p[0])):
        if not any(leq(w, v) for w, _ in kept):
            kept.append((v, t))
    return sorted(kept)


def candidate_arrows(X, collection):
    """The sorted (tail, head, label) arrows of build_quiver without an
    arrow order, from the minimal points among all candidates per tail."""
    loops = X.section_semigroup_hilbert_basis()
    n = len(collection)
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    fibers = dict(zip(pairs, X.fiber_context.fibers(
        [collection.difference(i, j) for i, j in pairs])))
    arrows = []
    for i in range(n):
        candidates = [(s, i) for s in loops]
        for j in range(n):
            if j != i:
                candidates += [(s, j) for s in fibers[i, j]]
        arrows += [(i, j, s) for s, j in minimal_points(candidates)]
    return sorted(arrows)

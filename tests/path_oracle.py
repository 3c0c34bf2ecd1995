"""Path-level oracles: the consistency engine, kept as the oracle for
`superpotential.consistency`, and `reachable`, the oracle for
`QuiverOfSections.path_exists`.

The consistency engine grows every path up to the bound one arrow at a
time, sorts the nonempty paths into buckets (tail, head, div), and joins
the paths of each bucket that one rewrite step u -> v of a relation
(u, v) connects.  Its work grows with the number of paths, so it is for
small cases only.

`reachable` finds the heads of the paths with a given tail and divisor by
a memoized recursion over the arrows out of the tail, where
`path_exists` reads class keys.
"""

import weakref

from toricell.intlinalg import leq, vadd, vsub
from toricell.superpotential import (
    ConsistencyReport,
    FRelation,
    arrow_coverage,
)


_REACH = weakref.WeakKeyDictionary()  # quiver -> {(vertex, div): heads}


def reachable(Q, i, div):
    """The vertices reachable from i along paths of Q with divisor exactly
    div: {i} at div = 0, else the union over the arrows a out of i with
    label <= div of those reachable from h(a) along div - label.

    Results are memoized per quiver and (vertex, divisor).  Missing
    subproblems are solved from an explicit stack, children before
    parents, each entry holding its children's keys, so long paths cannot
    exhaust Python's recursion limit."""
    memo = _REACH.setdefault(Q, {})
    key = (i, tuple(div))
    stack = [(key, None)]
    while stack:
        top, subs = stack[-1]
        if top in memo:
            stack.pop()
            continue
        v, d = top
        if subs is None and any(d):
            subs = [(a.head, vsub(d, a.label)) for a in Q.out[v]
                    if leq(a.label, d)]
            missing = [(s, None) for s in subs if s not in memo]
            if missing:
                stack[-1] = (top, subs)
                stack += missing
                continue
        memo[top] = (frozenset((v,)) if subs is None
                     else frozenset().union(*[memo[s] for s in subs]))
        stack.pop()
    return memo[key]


def _rule_index(rules):
    """{u: [v, ...]}: each rule (u, v) read as the rewrite step u -> v."""
    index = {}
    for u, v in rules:
        index.setdefault(u, []).append(v)
    return index


def _rewrites(path, index, lengths):
    """Every path obtained from path by one step u -> v of the index;
    lengths holds the lengths of the index's keys."""
    n = len(path)
    for k in lengths:
        for idx in range(n - k + 1):
            for v in index.get(path[idx:idx + k], ()):
                yield path[:idx] + v + path[idx + k:]


def rewrite_neighbors(path, rules):
    """All single-step rewrites of a path by the given relation pairs,
    applied in both directions."""
    index = _rule_index(list(rules) + [(v, u) for u, v in rules])
    return list(_rewrites(path, index, {len(u) for u in index}))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


def _bucket_classes(paths, index):
    """Classes of the paths under the rewrite steps of the index.

    Rewriting is symmetric (q = p[u -> v] exactly when p = q[v -> u]), so
    the steps in one direction join the same pairs as both directions.
    """
    uf = _UnionFind(paths)
    members = set(paths)
    lengths = {len(u) for u in index}
    for p in paths:
        for q in _rewrites(p, index, lengths):
            if q in members:
                uf.union(p, q)
    return uf.classes()


def path_buckets(Q, budget):
    """{(tail, head, div): sorted paths} for the nonempty paths with
    divisor <= budget, grown one arrow at a time."""
    buckets = {}
    for i in range(Q.n_vertices):
        layer = [((), i, (0,) * Q.d)]
        while layer:
            grown = []
            for p, v, div in layer:
                for a in Q.out[v]:
                    d = vadd(div, a.label)
                    if leq(d, budget):
                        q = p + (a.idx,)
                        buckets.setdefault((i, a.head, d), []).append(q)
                        grown.append((q, a.head, d))
            layer = grown
    return {key: sorted(paths) for key, paths in buckets.items()}


def class_leasts(Q, rules, bound):
    """{(tail, head, div): the sorted least paths of the bucket's classes}
    for every bucket of nonempty paths with divisor <= bound * (1..1)."""
    index = _rule_index(rules)
    budget = tuple(bound * x for x in Q.ones)
    return {key: sorted(min(c) for c in _bucket_classes(paths, index))
            for key, paths in path_buckets(Q, budget).items()}


def oracle_consistency(Q, W, bound, rels, leasts):
    """The ConsistencyReport of `consistency` for the relations rels, whose
    class_leasts at the bound are leasts."""
    witnesses = [key + tuple(reps[:2]) for key, reps in sorted(leasts.items())
                 if len(reps) > 1]
    quick = [a.idx for a in Q.arrows if not leq(a.label, Q.ones)]
    uncovered = [a.idx for a in arrow_coverage(Q, W)]
    return ConsistencyReport(
        consistent=not quick and not uncovered and not witnesses,
        bound=bound, quick_reject_arrows=quick, witnesses=witnesses,
        n_relations=len(rels), uncovered_arrows=uncovered)


def minimal_relations(Q, bound=None):
    """A minimal generating set for the parallel-path relations up to bound.

    Buckets of parallel equal-divisor paths are processed in increasing
    divisor order; within each bucket, paths already identified by the
    generators emitted so far are merged, and one new generator per
    leftover class is emitted.
    """
    buckets = path_buckets(Q, Q.ones if bound is None else bound)
    gens = []
    index = {}
    order = sorted(buckets, key=lambda k: (sum(k[2]), k[2], k[0], k[1]))
    for key in order:
        paths = buckets[key]
        if len(paths) < 2:
            continue
        classes = _bucket_classes(paths, index)
        if len(classes) <= 1:
            continue
        reps = sorted(min(cls) for cls in classes)
        base = reps[0]
        for other in reps[1:]:
            a, b = sorted((base, other))
            gens.append(FRelation(p_plus=a, p_minus=b))
            index.setdefault(a, []).append(b)
    return gens

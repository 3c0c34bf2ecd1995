"""Superpotentials, F-term relations, and the consistency check.

The superpotential W is the formal sum of all anticanonical cycles (cycles
whose divisor is (1,...,1)), each taken once up to cyclic rotation.  A path
q belongs to the index set P when its cyclic derivative has exactly two
summands sharing neither first nor last arrow; each such q contributes the
binomial relation p_plus - p_minus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intlinalg import leq, vscale, vsub


def cyclic_canonical(cycle):
    """Lexicographically least rotation of an arrow-id tuple."""
    if not cycle:
        return cycle
    return min(tuple(cycle[k:] + cycle[:k]) for k in range(len(cycle)))


@dataclass
class Superpotential:
    quiver: object
    terms: list  # cyclic-canonical arrow-id tuples
    term_set: set = field(default_factory=set)

    def __post_init__(self):
        self.term_set = set(self.terms)

    def __len__(self):
        return len(self.terms)

    def pretty(self):
        return " + ".join(self.quiver.pretty_path(t) for t in self.terms)


def superpotential(Q):
    """W = sum of the anticanonical cycles of Q, up to cyclic rotation."""
    seen = set()
    for i in range(Q.n_vertices):
        for cyc in Q.enumerate_paths(i, i, Q.ones):
            seen.add(cyclic_canonical(cyc))
    return Superpotential(quiver=Q, terms=sorted(seen))


def derivative(Q, q, base_vertex=None):
    """Cyclic derivative of W by the path q: the complementary paths.

    Returns all paths p with tail(p) = head(q), head(p) = tail(q) and
    div(p) = (1..1) - div(q); appending q before p closes an anticanonical
    cycle, so this agrees with collecting the terms of W that contain q.
    """
    div_q = Q.path_div(q)
    if not leq(div_q, Q.ones):
        return []
    if q:
        start, end = Q.arrows[q[-1]].head, Q.arrows[q[0]].tail
    else:
        if base_vertex is None:
            raise ValueError("trivial path needs a base vertex")
        start = end = base_vertex
    return Q.enumerate_paths(start, end, vsub(Q.ones, div_q))


@dataclass(frozen=True)
class FRelation:
    """A binomial relation p_plus - p_minus between parallel paths."""

    p_plus: tuple
    p_minus: tuple

    @property
    def pair(self):
        return (self.p_plus, self.p_minus)

    def endpoints(self, Q):
        return (Q.arrows[self.p_plus[0]].tail, Q.arrows[self.p_plus[-1]].head)

    def div(self, Q):
        return Q.path_div(self.p_plus)

    def pretty(self, Q):
        return f"{Q.pretty_path(self.p_plus)} - {Q.pretty_path(self.p_minus)}"


def relations(Q, W):
    """Deduplicated F-term relations of W (generators of J_W).

    q runs over all paths with divisor <= (1..1), including trivial paths;
    q qualifies when derivative(q) has exactly two summands that share
    neither their first nor their last arrow.
    """
    found = {}
    for i in range(Q.n_vertices):
        for head, q in Q.paths_from(i, Q.ones):
            D = derivative(Q, q, base_vertex=i)
            if len(D) != 2:
                continue
            p1, p2 = D
            if not p1 or not p2:
                continue
            if p1[0] == p2[0] or p1[-1] == p2[-1]:
                continue
            a, b = sorted((p1, p2))
            rel = FRelation(p_plus=a, p_minus=b)
            found.setdefault(rel, []).append((i, q))
    return sorted(found, key=lambda r: (len(r.p_plus), r.pair))


def arrow_coverage(Q, W):
    """Arrows that appear in no term of W (Cor-style consistency necessity)."""
    used = set()
    for t in W.terms:
        used.update(t)
    return [a for a in Q.arrows if a.idx not in used]


# ---------------------------------------------------------------------------
# rewriting and consistency


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


def minimal_relations(Q, bound=None):
    """A minimal generating set for the parallel-path relations up to bound.

    Buckets of parallel equal-divisor paths are processed in increasing
    divisor order; within each bucket, paths already identified by the
    generators emitted so far are merged, and one new generator per
    leftover class is emitted.
    """
    if bound is None:
        bound = Q.ones
    buckets = {}
    for i in range(Q.n_vertices):
        for head, p, remaining in Q._walk(i, bound):
            if p:
                key = (i, head, vsub(bound, remaining))
                buckets.setdefault(key, []).append(p)
    gens = []
    index = {}
    order = sorted(buckets, key=lambda k: (sum(k[2]), k[2], k[0], k[1]))
    for key in order:
        paths = sorted(buckets[key])
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


@dataclass
class ConsistencyReport:
    consistent: bool
    bound: int
    quick_reject_arrows: list
    witnesses: list  # (tail, head, div, path_a, path_b) per failing bucket
    n_relations: int
    uncovered_arrows: list

    def pretty(self, Q):
        lines = [f"verdict: {'consistent' if self.consistent else 'inconsistent'}",
                 f"bound: {self.bound}",
                 f"relations: {self.n_relations}"]
        if self.quick_reject_arrows:
            names = ", ".join(Q.arrows[i].pretty() for i in self.quick_reject_arrows)
            lines.append(f"quick reject: labels of {names} do not divide x1..x{Q.d}")
        if self.uncovered_arrows:
            names = ", ".join(Q.arrows[i].pretty() for i in self.uncovered_arrows)
            lines.append(f"arrows missing from W: {names}")
        for i, j, div, pa, pb in self.witnesses:
            lines.append(
                f"witness: {Q.pretty_path(pa)} and {Q.pretty_path(pb)} "
                f"({i} -> {j}, divisor {div}) are not F-term equivalent")
        return "\n".join(lines)


def consistency(Q, W, bound=2):
    """Check whether the F-term relations identify all parallel equal-divisor
    paths with divisor componentwise <= bound * (1..1).

    Paths stream from one depth-first walk per tail vertex into buckets
    keyed by head and divisor.  The relations are indexed once by side:
    a path's rewrites come from looking up each of its windows whose
    length is that of some relation side.  Only the steps p_plus -> p_minus
    are indexed, because a step and its reverse join the same two paths,
    so the classes are those of rewriting in both directions.
    """
    if bound < 0:
        raise ValueError(f"consistency bound must be nonnegative, got {bound}")
    quick = [a.idx for a in Q.arrows if not leq(a.label, Q.ones)]
    uncovered = [a.idx for a in arrow_coverage(Q, W)]
    rels = relations(Q, W)
    index = _rule_index(r.pair for r in rels)
    witnesses = []
    budget = vscale(bound, Q.ones)
    for i in range(Q.n_vertices):
        buckets = {}
        for head, p, remaining in Q._walk(i, budget):
            if p:
                key = (head, vsub(budget, remaining))
                buckets.setdefault(key, []).append(p)
        for (head, div), paths in sorted(buckets.items()):
            if len(paths) < 2:
                continue
            classes = _bucket_classes(sorted(paths), index)
            if len(classes) > 1:
                reps = sorted(min(cls) for cls in classes)
                witnesses.append((i, head, div, reps[0], reps[1]))
    consistent = not quick and not uncovered and not witnesses
    return ConsistencyReport(consistent=consistent, bound=bound,
                             quick_reject_arrows=quick, witnesses=witnesses,
                             n_relations=len(rels), uncovered_arrows=uncovered)

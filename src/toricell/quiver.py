"""Quivers of sections with divisor labels, paths, and lifts.

Arrows carry labels in N^d recording the divisor of the defining section.
Paths are tuples of arrow ids, first-applied first; the printed form
follows the algebraic convention (rightmost acts first), e.g. (1, 4, 7)
prints as "a8a5a2".

Every walk over paths (`paths_from`, `enumerate_paths`, `reachable`) runs
from an explicit stack, so long paths cannot exhaust Python's recursion
limit.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, InternalError
from .intlinalg import is_zero, leq, vadd, vsub
from .variety import mckay_toric_data


def monomial(label):
    """The monomial of an exponent vector, e.g. (1, 2, 0) prints as
    "x1x2^2" and the zero vector as "1"."""
    parts = []
    for k, e in enumerate(label):
        if e == 1:
            parts.append(f"x{k + 1}")
        elif e > 1:
            parts.append(f"x{k + 1}^{e}")
    return "".join(parts) or "1"


class Arrow(NamedTuple):
    idx: int
    tail: int
    head: int
    label: tuple

    def pretty(self):
        return f"a{self.idx + 1}"


class QuiverOfSections:
    """A quiver from explicit (tail, head, label) arrow data, the arrows
    numbered in the given order.

    Labels are nonzero vectors of one length; loops are allowed.
    `build_quiver` computes the arrow data of a collection on X, and
    `InputDocument.quiver` rebuilds each dimer_quiver document so.

    ``translations``: a group of (vertex map, arrow map) tuple pairs,
    identity first, each sending an arrow (t, h, label) to one (sigma(t),
    sigma(h), label); the identity alone unless `build_quiver` found more.
    """

    def __init__(self, n_vertices, arrows, X=None, collection=None):
        self.n_vertices = n_vertices
        self.arrows = tuple(Arrow(i, a[0], a[1], tuple(a[2]))
                            for i, a in enumerate(arrows))
        self.X = X
        self.collection = collection
        if not self.arrows:
            raise InputError("quiver has no arrows")
        self.d = len(self.arrows[0].label)
        for a in self.arrows:
            if len(a.label) != self.d:
                raise InputError("arrow labels of mixed dimension")
            if is_zero(a.label):
                raise InputError("arrow labels must be nonzero")
            if not (0 <= a.tail < n_vertices and 0 <= a.head < n_vertices):
                raise InputError("arrow endpoint out of range")
        out = [[] for _ in range(n_vertices)]
        for a in self.arrows:
            out[a.tail].append(a)
        self.out = tuple(map(tuple, out))
        self.ones = (1,) * self.d
        self.translations = ((tuple(range(n_vertices)),
                              tuple(range(len(self.arrows)))),)
        self._reach_memo = {}
        self._lifts = None

    # -- basic path machinery ----------------------------------------------

    def path_div(self, path):
        div = (0,) * self.d
        for idx in path:
            div = vadd(div, self.arrows[idx].label)
        return div

    def pretty_path(self, path):
        if not path:
            return "e"
        return "".join(f"a{idx + 1}" for idx in reversed(path))

    def _walk(self, i, budget, target=None):
        """Yield (head, path, remaining) for every path from i with divisor
        componentwise <= budget, where remaining = budget - div(path).

        The walk is depth-first with an explicit stack, so path length is
        not limited by Python's recursion depth: each path is yielded
        before its extensions, and arrows are tried in id order.  With a
        target, only paths that extend to a path ending at target with
        divisor exactly budget are yielded (and extended).
        """
        path = []
        remaining = tuple(budget)
        yield i, (), remaining
        stack = [(remaining, iter(self.out[i]))]
        while stack:
            remaining, arrows = stack[-1]
            for a in arrows:
                if leq(a.label, remaining):
                    rest = vsub(remaining, a.label)
                    if target is not None \
                            and not self.path_exists(a.head, target, rest):
                        continue
                    path.append(a.idx)
                    yield a.head, tuple(path), rest
                    stack.append((rest, iter(self.out[a.head])))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()

    def paths_from(self, i, budget):
        """All (head, path) with tail i and divisor componentwise <= budget,
        in depth-first order."""
        return [(h, p) for h, p, _ in self._walk(i, budget)]

    def enumerate_paths(self, i, j, div):
        """All paths from i to j with divisor exactly div."""
        return [p for h, p, rest in self._walk(i, div, target=j)
                if h == j and is_zero(rest)]

    def reachable(self, i, div):
        """Vertices reachable from i along paths with divisor exactly div.

        Results are memoized per (vertex, divisor).  Missing subproblems
        are solved from an explicit stack, children before parents, each
        entry holding its children's keys.
        """
        memo = self._reach_memo
        key = (i, tuple(div))
        hit = memo.get(key)
        if hit is not None:
            return hit
        stack = [(key, None)]
        while stack:
            top, subs = stack[-1]
            if top in memo:
                stack.pop()
                continue
            v, d = top
            if subs is None and any(d):
                subs = [(a.head, vsub(d, a.label)) for a in self.out[v]
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

    def path_exists(self, i, j, div):
        return j in self.reachable(i, div)

    # -- structural checks --------------------------------------------------

    def is_strongly_connected(self):
        """One search per orbit of the translations suffices: sigma maps
        the vertices reached from u onto those reached from sigma(u)."""
        for start in orbit_representatives(self.translations):
            seen = {start}
            todo = deque([start])
            while todo:
                v = todo.popleft()
                for a in self.out[v]:
                    if a.head not in seen:
                        seen.add(a.head)
                        todo.append(a.head)
            if len(seen) != self.n_vertices:
                return False
        return True

    def preferred_lifts(self):
        """Divisor lifts u_i of the vertices along a BFS spanning tree.

        u_0 = 0 and u_{h(a)} = u_{t(a)} + div(a) for tree arrows, the tree
        being grown breadth-first in the underlying undirected graph with
        arrows scanned in id order.
        """
        if self._lifts is not None:
            return self._lifts
        lifts = {0: (0,) * self.d}
        todo = deque([0])
        incident = [[] for _ in range(self.n_vertices)]
        for a in self.arrows:
            incident[a.tail].append(a)
            if a.head != a.tail:
                incident[a.head].append(a)
        while todo:
            v = todo.popleft()
            for a in sorted(incident[v], key=lambda a: a.idx):
                if a.tail == v and a.head not in lifts:
                    lifts[a.head] = vadd(lifts[v], a.label)
                    todo.append(a.head)
                elif a.head == v and a.tail not in lifts:
                    lifts[a.tail] = vsub(lifts[v], a.label)
                    todo.append(a.tail)
        if len(lifts) != self.n_vertices:
            raise InputError("quiver is not connected")
        self._lifts = tuple(lifts[i] for i in range(self.n_vertices))
        return self._lifts

    # -- export -------------------------------------------------------------

    def to_dot(self):
        lines = ["digraph quiver {"]
        for v in range(self.n_vertices):
            lines.append(f'  v{v} [label="{v}"];')
        for a in self.arrows:
            lines.append(f'  v{a.tail} -> v{a.head} [label="{a.pretty()}: {monomial(a.label)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def orbit_representatives(translations):
    """The least vertex of each orbit of a group of translations."""
    (identity, _), *rest = translations
    return [v for v in identity if all(s[v] >= v for s, _ in rest)]


def build_quiver(X, collection, arrow_order=None):
    """Quiver of sections of a collection on a Gorenstein toric variety.

    The arrows out of a vertex i are its minimal sections.  The
    candidates are the pairs (s, j): s a minimal generator of the fiber of
    class(E_j) - class(E_i) for j != i, or s in the Hilbert basis of the
    degree-zero semigroup S0 for j == i.  The arrows i -> j labelled s are
    the candidates whose s is componentwise minimal among all candidates
    out of i (a section determines its class, so all s are distinct).
    Loops occur for the one-sheaf collection, and in a McKay quiver
    exactly at a coordinate of weight 0.

    Proof that these are the irreducible sections, those that are not a
    sum u + w of nonzero sections u from i to some k and w from k to j.
    Only fiber generators can be irreducible: any other section is a
    smaller section of its class plus a nonzero element of S0.  If
    (u, k) and (s, j) are candidates with u < s, then s - u >= 0 is a
    nonzero section of class c_j - c_k, so s is reducible; here k is
    neither j (the generators of one fiber, and the Hilbert basis of S0,
    are antichains) nor i (s - u would be a point of the fiber of s below
    s).  Conversely, if s = u + w is reducible, then u lies above a
    candidate u' <= u < s out of i, so s is not minimal.

    Proof that one walk per tail finds them.  The fiber generators are the
    points of D (`cones.FiberContext`), so the candidates out of i are the
    points of D of the classes c_j - c_i and the Hilbert basis of S0.  All
    lie in [0, cap]: the Hilbert basis below z, the generators of each
    class in its box, and all of D below z when Cl is finite.  The walk
    stops at the points of these classes and finds exactly the candidates
    strictly above no point it stopped at (`FiberContext.walk`: the pruned
    set is closed upward).  Those are the minimal candidates: one above
    another candidate lies above a minimal one, which the walk found by
    induction on the degree, and a minimal one lies above no candidate.

    Translations.  When the collection is all of a finite Cl (a McKay
    collection), translations[g] is sigma_g: j -> the vertex of class c_j
    + c_g.  Class keys are additive, so these form a group, identity
    first.  The classes c_j - c_i, j != i, are Cl - {0} at every i, so the
    candidates are the same points at every tail, s going from i to the
    vertex of class c_i + [s]: sigma_g maps arrows onto arrows of the same
    label.  The arrow maps are looked up under any arrow_order, and a
    missing image raises InternalError.
    """
    ctx, cl = X.fiber_context, X.cl
    reps = [c.representative for c in collection.classes]
    # class keys are additive modulo cl.moduli (CokernelForm.coordinates)
    keys = [cl.coordinates(r) for r in reps]
    images = [ctx.images(r) for r in reps] if 0 in cl.moduli else None
    arrows, heads_of = [], []
    for i, key_i in enumerate(keys):
        heads = {tuple((a - b) % m if m else a - b
                       for a, b, m in zip(key_j, key_i, cl.moduli)): j
                 for j, key_j in enumerate(keys) if j != i}
        heads_of.append(heads)
        cap = ctx.z
        if images:
            boxes = [ctx.box(im, images[i]) for j, im in enumerate(images) if j != i]
            cap = tuple(map(max, zip(cap, *boxes)))
        found, loops = ctx.walk(cap, stop=heads)
        arrows += [(i, i, s) for s in loops]
        arrows += [(i, heads[key], s) for key, points in found.items()
                   for s in points]
    arrows.sort()
    if arrow_order is not None:
        want = [(t, h, tuple(lab)) for t, h, lab in arrow_order]
        extra, lost = Counter(want) - Counter(arrows), Counter(arrows) - Counter(want)
        if extra or lost:
            t, h, lab = arrow = min([*extra, *lost])
            why = "not computed" if arrow in extra else "computed, not listed"
            raise InputError("arrow_order is not a permutation of the computed "
                             f"arrows: {t} -> {h} ({monomial(lab)}) is {why}")
        arrows = want
    Q = QuiverOfSections(len(collection), arrows, X=X, collection=collection)
    if 0 not in cl.moduli and len(keys) == math.prod(cl.moduli):
        # heads_of[i][key of c_g] is the vertex of class c_i + c_g, g != 0
        sigmas = [tuple([h.get(key, i) for i, h in enumerate(heads_of)])
                  for key in keys]
        arrow = {a[1:]: a.idx for a in Q.arrows}
        try:
            Q.translations = tuple(
                (s, tuple([arrow[s[t], s[h], lab] for _, t, h, lab in Q.arrows]))
                for s in sigmas)
        except KeyError as miss:
            raise InternalError(f"translation misses arrow {miss}") from None
    if not Q.is_strongly_connected():
        raise InputError("quiver of sections is not strongly connected")
    return Q


@lru_cache(maxsize=8)
def mckay_quiver(group):
    """The quiver of sections of A^n / G in the default arrow order,
    built once for each of the 8 groups used last and shared by all its
    callers, so they must not change it; a rejected group always raises."""
    return build_quiver(*mckay_toric_data(group))

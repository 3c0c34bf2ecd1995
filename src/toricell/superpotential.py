"""Superpotentials, F-term relations, and the consistency check.

The superpotential W is the formal sum of all anticanonical cycles (cycles
whose divisor is (1,...,1)), each taken once up to cyclic rotation.  A path
q belongs to the index set P when its cyclic derivative has exactly two
summands sharing neither first nor last arrow; each such q contributes the
binomial relation p_plus - p_minus.  Every cyclic derivative is read off
one index of the terms of W, built with it (`Superpotential`).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import InputError
from .intlinalg import Packing, leq, vscale
from .quiver import orbit_representatives


def cyclic_canonical(cycle):
    """Lexicographically least rotation of an arrow-id tuple."""
    if not cycle:
        return cycle
    return min(tuple(cycle[k:] + cycle[:k]) for k in range(len(cycle)))


class Superpotential:
    """The terms of W and its derivative index.

    ``derivatives`` maps (tail vertex, q) to the set of complements of the
    path q in W: the paths p such that q.p is a rotation of a term.  The
    trivial q is keyed by its vertex.  The index is every split of every
    rotation of every term.  Since W holds every anticanonical cycle once
    up to rotation, p completes q to an anticanonical cycle exactly when
    q.p is a rotation of a term; so the complements of q are the cyclic
    derivative of W by q, the paths from head(q) to tail(q) with divisor
    (1..1) - div(q), and every path q with divisor <= (1..1) whose
    derivative is nonempty is a key.

    ``translations``: those of the quiver known to keep the terms; all
    when `superpotential` built W, else the identity alone.
    """

    def __init__(self, quiver, terms):
        self.quiver = quiver
        self.terms = terms  # cyclic-canonical arrow-id tuples
        self.translations = quiver.translations[:1]
        self.derivatives = {}
        for term in terms:
            for k in range(len(term)):
                rot = term[k:] + term[:k]
                tail = quiver.arrows[rot[0]].tail
                for j in range(len(rot) + 1):
                    self.derivatives.setdefault(
                        (tail, rot[:j]), set()).add(rot[j:])

    def __len__(self):
        return len(self.terms)


def superpotential(Q):
    """W = sum of the anticanonical cycles of Q, up to cyclic rotation.

    The cycles from one vertex u per orbit of Q's translations are moved
    by each: sigma keeps labels, so it maps the anticanonical cycles from
    u onto those from sigma(u), and the translations form a group.
    """
    seen = set()
    for i in orbit_representatives(Q.translations):
        for cyc in Q.enumerate_paths(i, i, Q.ones):
            for _, moved in Q.translations:
                seen.add(cyclic_canonical(tuple(moved[a] for a in cyc)))
    W = Superpotential(quiver=Q, terms=sorted(seen))
    W.translations = Q.translations
    return W


class FRelation(NamedTuple):
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

    q runs over the keys of the derivative index, trivial paths included;
    q qualifies when its derivative has exactly two summands that share
    neither their first nor their last arrow.  A path q with divisor <=
    (1..1) that is not a key has an empty derivative, so it never
    qualifies.
    """
    found = set()
    for D in W.derivatives.values():
        if len(D) == 2:
            u, v = sorted(D)
            if u and v and u[0] != v[0] and u[-1] != v[-1]:
                found.add(FRelation(u, v))
    return sorted(found, key=lambda r: (len(r.p_plus), r.pair))


def arrow_coverage(Q, W):
    """Arrows that appear in no term of W (Cor-style consistency necessity)."""
    used = set()
    for t in W.terms:
        used.update(t)
    return [a for a in Q.arrows if a.idx not in used]


# ---------------------------------------------------------------------------
# consistency

# consistency refuses a bound at which a consistent quiver could have more
# path classes than this: vertex pairs times divisors in the box (the
# fourfold at bound 3 has 262,144)
MAX_CLASSES = 500_000


def _path_classes(Q, rules, i, pk):
    """{(head, div): the least path of each class} for the F-term classes
    of the paths from i with divisor <= pk.bound, div packed by pk.  See
    `consistency`."""
    vb = Q.n_vertices.bit_length()
    mask, H = (1 << vb) - 1, pk.H << vb
    top = (pk.B | pk.H) << vb | mask  # a bucket key is div << vb | head
    out = [[((pk.pack(a.label) << vb) + a.head - h, a.idx) for a in arrows
            if leq(a.label, pk.bound)] for h, arrows in enumerate(Q.out)]
    sides = {}
    for u, v in rules:
        e, tail, head = Q.path_div(u), Q.arrows[u[0]].tail, Q.arrows[u[-1]].head
        if leq(e, pk.bound):
            sides.setdefault(head, []).append(
                (pk.pack(e) << vb, tail - head, u[:-1], u[-1], v[:-1], v[-1]))
    least, buckets, step = [()], {i: range(1)}, {}
    pending, queue = {}, []  # key -> elements (class, arrow)

    def extend(c, key):
        for delta, a in out[key & mask]:
            k = key + delta
            if (top - k) & H == H:
                if k not in pending:
                    pending[k] = []
                    heapq.heappush(queue, k)
                pending[k].append((c, a))

    def find(x):  # union-find with path halving
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    extend(0, i)
    while queue:
        key = heapq.heappop(queue)
        elements = pending.pop(key)
        parent = {e: e for e in elements}
        for E, hop, u, ua, v, va in sides.get(key & mask, ()):
            if ((key | H) - E) & H == H:
                for x in buckets.get(key - E + hop, ()):
                    a, b = x, x
                    for y in u:
                        a = step[a, y]
                    for y in v:
                        b = step[b, y]
                    parent[find((b, va))] = find((a, ua))
        first, ids = len(least), {}
        for e in elements:
            p = least[e[0]] + e[1:]
            c = ids.setdefault(find(e), len(least))
            if c == len(least):
                least.append(p)
            elif p < least[c]:
                least[c] = p
            step[e] = c
        buckets[key] = range(first, len(least))
        for c in buckets[key]:
            extend(c, key)
    return {(key & mask, key >> vb): least[r.start:r.stop]
            for key, r in buckets.items()}


class ConsistencyReport(NamedTuple):
    consistent: bool
    bound: int
    quick_reject_arrows: list
    witnesses: list  # (tail, head, div, path_a, path_b) per failing bucket
    n_relations: int
    uncovered_arrows: list


def consistency(Q, W, bound=2):
    """Check whether the F-term relations identify all parallel equal-divisor
    paths with divisor componentwise <= bound * (1..1).

    F-term equivalence is generated by the steps x.u.y ~ x.v.y for the
    relations (u, v).  Per tail vertex it is decided by a congruence
    closure over classes, closing the buckets (head, div) in increasing
    order of the int div << vb | head, div packed (`intlinalg.Packing`).
    A bucket reads only buckets of a smaller div, as labels and relation
    sides have nonzero divisors, and int order extends the componentwise
    order.  Arrows and sides whose divisor is not <= the budget lie in no
    bucket and are dropped first, so no field overflows.  Three facts make
    the closure exact:

    - A class decides its extensions, since appending an arrow to a chain
      of steps gives a chain of steps.  So each path of a bucket is an
      element (c, a): a class c of (tail a, div - label a) followed by
      the arrow a; paths with equal elements are equivalent.
    - Merges happen at the last arrow only.  A step with y nonempty joins
      two paths with the same element (same last arrow, prefixes one step
      apart).  With y empty it joins the elements of x.u and x.v, found by
      stepping the class of x through the finished tables.  So the
      classes of a bucket are the components of its elements under x.u ~
      x.v for each relation (u, v) ending at its head and each class x of
      (tail u, div - div u), the trivial path included.
    - The least path is made with its class: least(c) is the least
      least(c').a over the elements (c', a) of c.  Labels are nonzero, so
      no path of a bucket is a prefix of another.  If m = m'.a is least
      in c and p' < m' shares the class of m', then p'.a is in c and p'.a
      < m; so m' is least in its class, and m is the least candidate.  So
      the witnesses, the two least representatives of each bucket with two
      classes or more in (tail, head, div) order, are those of comparing
      every path.

    Each class and element is made once, and a relation (u, v) costs
    |u| + |v| table steps per class x and a union of two elements.  The
    unions of a bucket go through a union-find with path halving, so n
    elements and m finds cost O((n + m) log n) (Tarjan and van Leeuwen,
    JACM 1984).  So the work grows with the number of classes (per tail
    at most vertices times divisors in the box when the quiver is
    consistent), not with the number of paths.  A bound at which vertex
    pairs times divisors in the box pass MAX_CLASSES is refused before
    any work.

    One tail per orbit of W's translations is swept: sigma keeps labels
    and relations, so it maps the classes of the bucket (u, head, div)
    onto those of (sigma(u), sigma(head), div).  Witnesses are least
    paths in arrow-id order, which sigma need not keep, so once one
    appears every tail is swept.
    """
    if bound < 0:
        raise InputError(f"consistency bound must be nonnegative, got {bound}")
    classes = Q.n_vertices ** 2 * (bound + 1) ** Q.d
    if classes > MAX_CLASSES:
        raise InputError(
            f"consistency at bound {bound} could create {classes} path "
            f"classes, more than the limit of {MAX_CLASSES}")
    quick = [a.idx for a in Q.arrows if not leq(a.label, Q.ones)]
    uncovered = [a.idx for a in arrow_coverage(Q, W)]
    rels = relations(Q, W)
    rules = [r.pair for r in rels]
    pk = Packing(vscale(bound, Q.ones), 0)

    def sweep(i):
        classes = _path_classes(Q, rules, i, pk).items()
        return [(i, head, pk.unpack(div), *sorted(paths)[:2])
                for (head, div), paths in sorted(classes) if len(paths) > 1]

    found = {i: sweep(i) for i in orbit_representatives(W.translations)}
    if any(found.values()):
        found.update((i, sweep(i)) for i in range(Q.n_vertices)
                     if i not in found)
    witnesses = [w for i in sorted(found) for w in found[i]]
    consistent = not quick and not uncovered and not witnesses
    return ConsistencyReport(consistent=consistent, bound=bound,
                             quick_reject_arrows=quick, witnesses=witnesses,
                             n_relations=len(rels), uncovered_arrows=uncovered)

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
from .intlinalg import leq, vadd, vscale, vsub


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
    """

    def __init__(self, quiver, terms):
        self.quiver = quiver
        self.terms = terms  # cyclic-canonical arrow-id tuples
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
    """W = sum of the anticanonical cycles of Q, up to cyclic rotation."""
    seen = set()
    for i in range(Q.n_vertices):
        for cyc in Q.enumerate_paths(i, i, Q.ones):
            seen.add(cyclic_canonical(cyc))
    return Superpotential(quiver=Q, terms=sorted(seen))


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


def _path_classes(Q, rules, i, budget):
    """F-term classes of the paths from i with divisor <= budget, as
    (buckets, step, heads): buckets maps (head, div) to its class ids,
    class 0 being the trivial path; step maps (class, arrow id) to the
    class of the class's paths followed by the arrow; heads[c] is the head
    of class c.  See `consistency`."""
    sides = {}
    for u, v in rules:
        sides.setdefault(Q.arrows[u[-1]].head, []).append(
            (Q.arrows[u[0]].tail, Q.path_div(u), u, v))
    zero = (0,) * Q.d
    buckets, heads, step = {(i, zero): [0]}, [i], {}
    pending, queue = {}, []  # (|div|, div, head) -> elements (class, arrow)

    def extend(c, head, div):
        for a in Q.out[head]:
            d = vadd(div, a.label)
            if leq(d, budget):
                key = (sum(d), d, a.head)
                if key not in pending:
                    pending[key] = []
                    heapq.heappush(queue, key)
                pending[key].append((c, a.idx))

    def element(x, path):
        for a in path[:-1]:
            x = step[x, a]
        return x, path[-1]

    extend(0, i, zero)
    while queue:
        key = heapq.heappop(queue)
        _, div, head = key
        rep = {e: e for e in pending.pop(key)}  # element -> representative
        for tail, e, u, v in sides.get(head, ()):
            if leq(e, div):
                for x in buckets.get((tail, vsub(div, e)), ()):
                    a, b = rep[element(x, u)], rep[element(x, v)]
                    for f in [f for f, r in rep.items() if r == b]:
                        rep[f] = a
        ids = {r: len(heads) + k
               for k, r in enumerate(dict.fromkeys(rep.values()))}
        heads += [head] * len(ids)
        step.update((e, ids[r]) for e, r in rep.items())
        buckets[head, div] = list(ids.values())
        for c in ids.values():
            extend(c, head, div)
    return buckets, step, heads


def _least_paths(Q, step, heads, wanted):
    """{c: the least path of class c} for the class ids c in wanted, from a
    depth-first walk over the step table that tries arrows in id order and
    enters each class once (see `consistency`)."""
    least, path, seen = {}, [], {0}
    stack = [(0, iter(Q.out[heads[0]]))]
    while stack and len(least) < len(wanted):
        top, arrows = stack[-1]
        for a in arrows:
            c = step.get((top, a.idx))
            if c is not None and c not in seen:
                seen.add(c)
                path.append(a.idx)
                if c in wanted:
                    least[c] = tuple(path)
                stack.append((c, iter(Q.out[heads[c]])))
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return least


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
    |div|; three facts make this exact:

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
    - The least path extends.  Labels are nonzero, so no path of a bucket
      is a prefix of another.  A depth-first walk from the trivial path,
      trying arrows in id order and never entering a class twice, visits
      paths in lexicographic order and enters each class first along its
      least path m: had it cut off a prefix m' of m, the path p' by which
      it entered the class of m' precedes m' and is not its prefix, and p'
      followed by the rest of m would be a smaller path in m's class.  So
      the witnesses, the two least representatives of each bucket with
      two classes or more in (tail, head, div) order, are those of
      comparing every path.

    Each class and element is made once, and a relation (u, v) costs
    |u| + |v| table steps per class x, plus a pass over the bucket's
    elements when it joins two classes.  So the work grows with the number
    of classes (per tail at most vertices times divisors in the box when
    the quiver is consistent), not with the number of paths.  A bound at
    which vertex pairs times divisors in the box pass MAX_CLASSES is
    refused before any work.
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
    budget = vscale(bound, Q.ones)
    witnesses = []
    for i in range(Q.n_vertices):
        buckets, step, heads = _path_classes(Q, rules, i, budget)
        split = sorted(item for item in buckets.items() if len(item[1]) > 1)
        least = _least_paths(Q, step, heads,
                             {c for _, ids in split for c in ids})
        for (head, div), ids in split:
            witnesses.append(
                (i, head, div, *sorted(least[c] for c in ids)[:2]))
    consistent = not quick and not uncovered and not witnesses
    return ConsistencyReport(consistent=consistent, bound=bound,
                             quick_reject_arrows=quick, witnesses=witnesses,
                             n_relations=len(rels), uncovered_arrows=uncovered)

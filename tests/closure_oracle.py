"""The congruence closure that `superpotential.consistency` ran before
its classes made their least paths, kept as an oracle.

`_path_classes` closes the buckets (head, div) of one tail vertex in
increasing (|div|, div, head), relabelling the elements of a bucket on
every join, and builds the step table (class, arrow) -> class.
`_least_paths` finds the least path of each class by a depth-first walk
over that table, trying arrows in id order and never entering a class
twice.  The walk visits paths in lexicographic order and enters each
class first along its least path m: had it cut off a prefix m' of m,
the path p' by which it entered the class of m' precedes m' and is not
its prefix (no path of a bucket is a prefix of another, as labels are
nonzero), and p' followed by the rest of m would be a smaller path in
m's class.  `closure_consistency` is the report built from the two.
"""

import heapq
import importlib

from toricell.errors import InputError
from toricell.intlinalg import leq, vadd, vscale, vsub
from toricell.superpotential import (
    MAX_CLASSES,
    ConsistencyReport,
    arrow_coverage,
)

# the package exports a function of the same name as this module; a test
# that replaces its relations replaces them here too
sp = importlib.import_module("toricell.superpotential")


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


def closure_consistency(Q, W, bound=2):
    """The ConsistencyReport of `consistency`, from the kernels above."""
    if bound < 0:
        raise InputError(f"consistency bound must be nonnegative, got {bound}")
    classes = Q.n_vertices ** 2 * (bound + 1) ** Q.d
    if classes > MAX_CLASSES:
        raise InputError(
            f"consistency at bound {bound} could create {classes} path "
            f"classes, more than the limit of {MAX_CLASSES}")
    quick = [a.idx for a in Q.arrows if not leq(a.label, Q.ones)]
    uncovered = [a.idx for a in arrow_coverage(Q, W)]
    rels = sp.relations(Q, W)
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

"""Seeded input documents for the three workloads.

The library only ever sees the JSON documents built here, and the same
seed always gives the same documents.  Each document comes with the
settings its chain uses and a short description of what the seed chose.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import random

from toricell.variety import AbelianGroupData

WORKLOADS = ("fourfold", "mckay_exactness", "threefold_consistency")

THREEFOLD_FIXTURES = ("threefold_three_sheaves", "threefold_four_sheaves",
                      "threefold_five_sheaves", "conifold")

# The drawn McKay group has a fixed order: the work of its exactness check
# grows with the square of the order (r^2 (b+1)^3 graded pieces), so
# drawing the order would make run times differ between seeds far more
# than any change in the code.  The seed draws the weights instead.
MCKAY_ORDER = 7


def load_fixture(root, name):
    with open(os.path.join(root, "inputs", name + ".json")) as fh:
        return json.load(fh)


def isolated_weights(order):
    """All weight triples of isolated cyclic subgroups of SL(3) of an order.

    The group generated by diag(z^a, z^b, z^c), z a primitive root of unity
    of the given order, lies in SL(3) when a + b + c = 0 mod order, and
    acts freely off the origin when every weight is a unit mod order.
    """
    return [w for w in itertools.product(range(1, order), repeat=3)
            if sum(w) % order == 0
            and all(math.gcd(x, order) == 1 for x in w)]


def cyclic_document(order, weights):
    group = AbelianGroupData.cyclic(order, weights)
    if not (group.in_sl() and group.is_small()):
        raise ValueError(f"Z/{order}{tuple(weights)} is not a small "
                         "subgroup of SL(3)")
    return {"kind": "cyclic_quotient", "order": order,
            "weights": list(weights)}


def relabel(doc, perm):
    """The toric document with collection member i moved to index perm[i].

    perm[0] must be 0 (the trivial member stays first).  The vertex
    indices in arrow_order and the rows of lifts follow the members, and
    the arrow ids do not change.
    """
    if perm[0] != 0 or sorted(perm) != list(range(len(perm))):
        raise ValueError(f"{perm} does not fix 0")
    out = copy.deepcopy(doc)

    def moved(rows):
        new = [None] * len(rows)
        for i, row in enumerate(rows):
            new[perm[i]] = row
        return new

    out["collection"] = moved(doc["collection"])
    opts = out.get("options", {})
    if "arrow_order" in opts:
        opts["arrow_order"] = [[perm[t], perm[h], lab]
                               for t, h, lab in opts["arrow_order"]]
    if "lifts" in opts:
        opts["lifts"] = moved(opts["lifts"])
    return out


def documents(workload, seed, root="."):
    """The (label, document, settings) entries of a workload for a seed,
    and a description of the choices the seed made."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fourfold":
        return ([("fourfold", load_fixture(root, "fourfold"), {})],
                {"seed_effect": "none; the fixture is fixed"})
    if workload == "mckay_exactness":
        weights = rng.choice(isolated_weights(MCKAY_ORDER))
        label = f"z{MCKAY_ORDER}_" + "".join(map(str, weights))
        entries = [("z6_123", cyclic_document(6, (1, 2, 3)), {"bound": 5}),
                   (label, cyclic_document(MCKAY_ORDER, weights),
                    {"bound": 3})]
        return entries, {"group": {"order": MCKAY_ORDER,
                                   "weights": list(weights)}}
    if workload == "threefold_consistency":
        entries, perms = [], {}
        for name in THREEFOLD_FIXTURES:
            doc = load_fixture(root, name)
            rest = list(range(1, len(doc["collection"])))
            rng.shuffle(rest)
            perm = [0] + rest
            perms[name] = perm
            entries.append((name, relabel(doc, perm), {}))
        return entries, {"permutations": perms}
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{WORKLOADS}")

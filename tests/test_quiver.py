import itertools
import json
import math
import os
import random

import pytest

from toricell import cones
from toricell.cones import FiberContext
from toricell.errors import InputError, InternalError
from toricell.intlinalg import mat_vec
from toricell.quiver import QuiverOfSections, build_quiver, monomial
from toricell.variety import (
    AbelianGroupData,
    Collection,
    GorensteinToricVariety,
    mckay_toric_data,
)

from conftest import INPUTS, load
from path_oracle import reachable
from quiver_oracle import candidate_arrows

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def labels(Q):
    return [(a.tail, a.head, a.label) for a in Q.arrows]


def test_quiver_arrows_fixed_order(quiver_four_sheaves):
    Q = quiver_four_sheaves
    assert Q.n_vertices == 4
    assert len(Q.arrows) == 10
    assert labels(Q) == [
        (0, 1, (1, 0, 0, 0)), (0, 1, (0, 0, 1, 0)), (0, 2, (0, 0, 0, 1)),
        (1, 2, (0, 1, 0, 0)), (1, 3, (0, 0, 0, 1)), (2, 3, (1, 0, 0, 0)),
        (2, 3, (0, 0, 1, 0)), (3, 0, (0, 0, 0, 1)), (3, 0, (1, 1, 0, 0)),
        (3, 0, (0, 1, 1, 0))]
    assert Q.is_strongly_connected()


def test_arrow_order_must_be_permutation():
    X = GorensteinToricVariety([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (0, -1, 1)])
    coll = Collection(X, [(0, 0, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(InputError, match="not a permutation"):
        build_quiver(X, coll, arrow_order=[(0, 1, (1, 0, 0, 0))])
    arrows = [a[1:] for a in build_quiver(X, coll).arrows]
    for order, why in [(arrows + [(0, 0, (1, 1, 1, 1))],
                        "0 -> 0 (x1x2x3x4) is not computed"),
                       (arrows[1:], f"0 -> 1 ({monomial(arrows[0][2])}) "
                        "is computed, not listed")]:
        with pytest.raises(InputError) as err:
            build_quiver(X, coll, arrow_order=order)
        assert str(err.value) == ("arrow_order is not a permutation of the "
                                  "computed arrows: " + why)


def test_trivial_collection_gives_loops(quiver_trivial_a3):
    Q = quiver_trivial_a3
    assert Q.n_vertices == 1
    assert sorted(a.label for a in Q.arrows) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(a.tail == a.head == 0 for a in Q.arrows)


def test_path_div_and_pretty(quiver_four_sheaves):
    Q = quiver_four_sheaves
    # a8 a7 a4 a1 is an anticanonical cycle (ids 0, 3, 6, 7)
    p = (0, 3, 6, 7)
    assert Q.path_div(p) == (1, 1, 1, 1)
    assert Q.pretty_path(p) == "a8a7a4a1"
    assert Q.pretty_path(()) == "e"


def test_enumerate_paths_buckets(quiver_four_sheaves):
    Q = quiver_four_sheaves
    # two parallel paths 0 -> 3 with divisor x1 x4
    paths = Q.enumerate_paths(0, 3, (1, 0, 0, 1))
    assert sorted(Q.pretty_path(p) for p in paths) == ["a5a1", "a6a3"]
    assert Q.enumerate_paths(0, 3, (0, 0, 0, 0)) == []


def test_path_exists_matches_enumeration(quiver_four_sheaves):
    """Also at divisors with an entry -1, some of a class that a path
    carries, such as (1, 0, -1, 0) of class 0: no path carries them."""
    Q = quiver_four_sheaves
    for i in range(4):
        for j in range(4):
            for div in itertools.product(range(-1, 3), repeat=4):
                assert Q.path_exists(i, j, div) == bool(
                    Q.enumerate_paths(i, j, div))


def test_preferred_lifts_follow_tree_arrows(quiver_four_sheaves):
    Q = quiver_four_sheaves
    lifts = Q.preferred_lifts()
    assert lifts[0] == (0, 0, 0, 0)
    assert len(lifts) == 4
    # each lift difference along some arrow is the label up to the period
    # lattice; for the tree arrows it is the label on the nose
    assert lifts[1] == (1, 0, 0, 0)  # along a1


def test_quiver_from_data_validation():
    with pytest.raises(InputError, match="must be nonzero"):
        QuiverOfSections(2, [(0, 1, (0, 0))])  # zero label
    with pytest.raises(InputError, match="endpoint out of range"):
        QuiverOfSections(2, [(0, 2, (1, 0))])  # endpoint out of range


def test_multi_vertex_quiver_with_loops_accepted():
    Q = QuiverOfSections(2, [(0, 0, (0, 0, 1)), (0, 1, (1, 0, 0)),
                             (1, 0, (0, 1, 0)), (1, 1, (0, 0, 1))])
    assert Q.is_strongly_connected()
    assert [a.idx for a in Q.out[1]] == [2, 3]
    cycles = [p for h, p in Q.paths_from(0, (1, 1, 1))
              if h == 0 and Q.path_div(p) == (1, 1, 1)]
    assert cycles == [(0, 1, 2), (1, 2, 0), (1, 3, 2)]


def test_bare_quiver_answers_no_path_query():
    """Paths are named by the classes of a collection, so a quiver built
    without one refuses every path query as a bug."""
    Q = QuiverOfSections(2, [(0, 1, (1, 0)), (1, 0, (0, 1))])
    for query in (lambda: Q.path_exists(0, 1, (1, 0)),
                  lambda: Q.enumerate_paths(0, 0, (1, 1))):
        with pytest.raises(InternalError, match="no collection"):
            query()


def test_to_dot_mentions_all_arrows(quiver_four_sheaves):
    dot = quiver_four_sheaves.to_dot()
    assert dot.count("->") == 10
    assert "x1x2" in dot


def test_conifold_quiver(quiver_conifold):
    Q = quiver_conifold
    assert labels(Q) == [
        (0, 1, (1, 0, 0, 0)), (0, 1, (0, 1, 0, 0)),
        (1, 0, (0, 0, 1, 0)), (1, 0, (0, 0, 0, 1))]


def recursive_paths_from(Q, i, budget):
    """Reference: depth-first recursion, each path before its extensions."""
    out = []

    def dfs(v, path, remaining):
        out.append((v, path))
        for a in Q.out[v]:
            if all(x <= r for x, r in zip(a.label, remaining)):
                dfs(a.head, path + (a.idx,),
                    tuple(r - x for x, r in zip(a.label, remaining)))

    dfs(i, (), tuple(budget))
    return out


def test_walk_order_matches_recursion(quiver_four_sheaves, quiver_five_sheaves,
                                      quiver_trivial_a3):
    for Q in (quiver_four_sheaves, quiver_five_sheaves, quiver_trivial_a3):
        budget = tuple(2 * x for x in Q.ones)
        for i in range(Q.n_vertices):
            want = recursive_paths_from(Q, i, budget)
            assert Q.paths_from(i, budget) == want
            for j in range(Q.n_vertices):
                for div in [Q.ones, budget]:
                    assert Q.enumerate_paths(i, j, div) == [
                        p for h, p in want
                        if h == j and Q.path_div(p) == div]


def test_long_paths_do_not_recurse(quiver_conifold):
    """A 1,200-arrow path is deeper than Python's default recursion limit:
    on the conifold, a1 and a3 alternate along the one path of divisor
    (600, 0, 600, 0), and the path oracle's recursion over it runs from a
    stack too."""
    Q, div = quiver_conifold, (600, 0, 600, 0)
    found = Q.paths_from(0, div)
    assert len(found) == 1201
    assert found[-1] == (0, (0, 2) * 600)
    assert reachable(Q, 0, div) == {0}
    assert reachable(Q, 1, (599, 0, 600, 0)) == {0}
    assert reachable(Q, 1, (600, 0, 599, 0)) == set()
    assert Q.path_exists(0, 0, div) and not Q.path_exists(0, 1, div)
    assert Q.path_exists(1, 0, (599, 0, 600, 0))
    assert not Q.path_exists(1, 0, (600, 0, 599, 0))
    assert Q.enumerate_paths(0, 0, div) == [(0, 2) * 600]


def small_abelian_groups(n, max_order):
    """Every finite subgroup of the diagonal torus of SL(n) of order
    <= max_order without quasireflections, one per orbit under permuting
    the coordinates, as AbelianGroupData.

    An element diag(exp(2 pi i x_k / L)) is the tuple of the x_k mod L,
    for L = max_order!.  Since the groups are abelian, the subgroup
    generated by H and K is {h + k}, so every group is found by joining
    cyclic groups one at a time.
    """
    L = math.factorial(max_order)

    def add(a, b):
        return tuple((x + y) % L for x, y in zip(a, b))

    def cyclic(g):
        out = {(0,) * n}
        h = g
        while h not in out:
            out.add(h)
            h = add(h, g)
        return frozenset(out)

    cyclics = set()
    for m in range(2, max_order + 1):
        for w in itertools.product(range(m), repeat=n - 1):
            g = tuple(x * (L // m) for x in w + (-sum(w) % m,))
            cyclics.add(cyclic(g))
    cyclics = [C for C in cyclics if len(C) <= max_order]
    groups = set(cyclics)
    todo = list(cyclics)
    while todo:
        H = todo.pop()
        for C in cyclics:
            if len(H) * len(C) <= max_order * len(H & C):
                G = frozenset(add(h, c) for h in H for c in C)
                if G not in groups:
                    groups.add(G)
                    todo.append(G)
    found = {}
    for G in groups:
        if len(G) > 1 and all(sum(x != 0 for x in e) != 1 for e in G):
            key = min(tuple(sorted(tuple(e[k] for k in perm) for e in G))
                      for perm in itertools.permutations(range(n)))
            found.setdefault(key, G)
    return [_as_group_data(found[key], L) for key in sorted(found)]


def _as_group_data(G, L):
    """Generators of G whose orders multiply to |G|, so that every element
    is one combination of them."""
    def order(e):
        return L // math.gcd(L, *e)

    for k in (1, 2, 3):
        for gens in itertools.combinations(sorted(G), k):
            orders = [order(g) for g in gens]
            if math.prod(orders) != len(G):
                continue
            span = {tuple(sum(c * x for c, x in zip(cs, xs)) % L
                          for xs in zip(*gens))
                    for cs in itertools.product(*map(range, orders))}
            if span == G:
                return AbelianGroupData(
                    generators=tuple((o, tuple(x * o // L for x in g))
                                     for o, g in zip(orders, gens)),
                    n=len(gens[0]))
    raise AssertionError("no generating set found")


def mckay_quiver(group, collection):
    """The closed-form McKay quiver: one vertex per character chi of the
    group and an arrow chi -> chi + w_k labelled e_k for each coordinate
    k, where w_k is the weight of coordinate k."""
    index = {group.character(c.representative): i
             for i, c in enumerate(collection.classes)}
    n = group.n
    arrows = []
    for chi, i in index.items():
        for k in range(n):
            e_k = tuple(int(x == k) for x in range(n))
            head = tuple((x + y) % order for x, y, (order, _) in
                         zip(chi, group.character(e_k), group.generators))
            arrows.append((i, index[head], e_k))
    return sorted(arrows)


SMALL_GROUPS = {n: small_abelian_groups(n, 8) for n in (2, 3, 4)}


def test_small_group_enumeration():
    """Every cyclic order up to 8 occurs, the non-cyclic groups are
    Z/2 x Z/2, Z/2 x Z/4 and (Z/2)^3, and 26 groups have a coordinate of
    weight 0."""
    cyclic = {(m,) for m in range(2, 9)}
    shapes = {n: {tuple(sorted(o for o, _ in G.generators)) for G in groups}
              for n, groups in SMALL_GROUPS.items()}
    assert shapes == {2: cyclic, 3: cyclic | {(2, 2), (2, 4)},
                      4: cyclic | {(2, 2), (2, 4), (2, 2, 2)}}
    assert {n: len(groups) for n, groups in SMALL_GROUPS.items()} == {
        2: 7, 3: 19, 4: 54}
    assert {n: sum(any(all(w[k] == 0 for _, w in G.generators)
                       for k in range(n)) for G in groups)
            for n, groups in SMALL_GROUPS.items()} == {2: 0, 3: 7, 4: 19}


@pytest.mark.parametrize("n", sorted(SMALL_GROUPS))
def test_build_quiver_matches_closed_form_mckay_quiver(n):
    for G in SMALL_GROUPS[n]:
        X, coll = mckay_toric_data(G)
        Q = build_quiver(X, coll)
        assert labels(Q) == mckay_quiver(G, coll), G
        assert labels(Q) == candidate_arrows(X, coll), G


def test_weight_zero_fixture_matches_closed_form():
    """The quiver of Z/2(1,1,0), and its CLI golden, carry a loop x3 at
    each vertex, as the closed form says."""
    doc = load("mckay_z2_110.json")
    X, coll = mckay_toric_data(doc.group)
    want = mckay_quiver(doc.group, coll)
    assert labels(doc.quiver()) == want
    with open(os.path.join(GOLDEN, "quiver", "mckay_z2_110.stdout")) as fh:
        golden = json.load(fh)
    assert [(t, h, tuple(lab)) for t, h, lab in golden["arrows"]] == want
    assert [(t, h) for t, h, lab in want if lab == (0, 0, 1)] == [
        (0, 0), (1, 1)]


# ---------------------------------------------------------------------------
# the pruned walk against the candidate oracle


def variety_and_collection(doc):
    if doc.kind == "toric":
        X = GorensteinToricVariety(doc.rays)
        return X, Collection(X, doc.collection_reps)
    return mckay_toric_data(doc.group)


@pytest.mark.parametrize("name", sorted(os.listdir(INPUTS)))
def test_build_quiver_matches_candidate_oracle(name):
    X, coll = variety_and_collection(load(name))
    assert labels(build_quiver(X, coll)) == candidate_arrows(X, coll)


@pytest.mark.parametrize("order, weights", [
    (16, (1, 2, 13)), (32, (1, 1, 1, 29)), (64, (1, 2, 61))])
def test_large_quotient_matches_candidate_oracle(order, weights):
    G = AbelianGroupData.cyclic(order, weights)
    X, coll = mckay_toric_data(G)
    Q = build_quiver(X, coll)
    assert labels(Q) == candidate_arrows(X, coll) == mckay_quiver(G, coll)


def relabelled(doc, seed):
    """A toric document with its rays permuted, its members permuted and
    twisted so that another one is trivial, and every representative
    moved within its class by a random B u; with the map of the arrows
    (t, h, s) of the document onto those of the relabelled collection."""
    rng = random.Random(seed)
    d, n = len(doc.rays), len(doc.collection_reps)
    rays = list(range(d))
    rng.shuffle(rays)
    members = list(range(n))
    rng.shuffle(members)
    X = GorensteinToricVariety([doc.rays[r] for r in rays])
    first = doc.collection_reps[members[0]]
    reps = []
    for m in members:
        shift = mat_vec(X.B, [rng.randint(-2, 2) for _ in range(X.n)])
        reps.append(tuple(doc.collection_reps[m][r] - first[r] + b
                          for r, b in zip(rays, shift)))
    vertex = {m: k for k, m in enumerate(members)}

    def move(arrow):
        t, h, s = arrow
        return vertex[t], vertex[h], tuple(s[r] for r in rays)

    return X, Collection(X, reps), move


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", [
    "threefold_three_sheaves.json", "threefold_four_sheaves.json",
    "threefold_five_sheaves.json"])
def test_relabelled_threefolds_match_candidate_oracle(name, seed):
    """Relabelling rays, members and representatives moves the arrows
    along, with and without the document's arrow order."""
    doc = load(name)
    X, coll, move = relabelled(doc, seed)
    want = sorted(map(move, labels(doc.quiver())))
    assert labels(build_quiver(X, coll)) == want == candidate_arrows(X, coll)
    order = [move((t, h, tuple(s))) for t, h, s in doc.options["arrow_order"]]
    assert labels(build_quiver(X, coll, arrow_order=order)) == order


def test_mckay_walks_extend_only_the_origin(monkeypatch):
    """On Z/64(1,1,1,61) every e_k has a nonzero character, so each is an
    arrow out of every vertex: the one walk per tail stops at the unit
    vectors and extends no point but the origin.  With _BOX_LIMIT at 0
    any other extended point raises, as it would for a walk that lists
    whole fibers."""
    G = AbelianGroupData.cyclic(64, (1, 1, 1, 61))
    X, coll = mckay_toric_data(G)
    X.fiber_context  # the S0 walk, over all of D, before the limit drops
    walks = []
    walk = FiberContext.walk
    monkeypatch.setattr(FiberContext, "walk", lambda ctx, *args, **kw: (
        walks.append(args) or walk(ctx, *args, **kw)))
    monkeypatch.setattr(cones, "_BOX_LIMIT", 0)
    Q = build_quiver(X, coll)
    assert len(walks) == 64
    assert labels(Q) == mckay_quiver(G, coll)

import itertools
import json
import random
from fractions import Fraction

import pytest

from toricell.cli import main
from toricell.errors import InputError
from toricell.inputs import parse_document, quiver_document
from toricell.quiver import build_quiver
from toricell.variety import (
    AbelianGroupData,
    Collection,
    GorensteinToricVariety,
    mckay_toric_data,
    toric_variety,
)

from conftest import load
from test_quiver import SMALL_GROUPS

F1_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (0, -1, 1)]


def e(*idx, d=4):
    v = [0] * d
    for i in idx:
        v[i - 1] += 1
    return tuple(v)


def test_gorenstein_covector():
    X = GorensteinToricVariety(F1_RAYS)
    assert X.gorenstein_covector == (0, 0, 1)


@pytest.mark.parametrize("rays", [
    # rays at height 2: u = (0, 0, 1/2) solves B u = 1 over Q only
    [(1, 0, 2), (0, 1, 2), (-1, 0, 2), (0, -1, 2)],
    # no plane through the four rays: B u = 1 has no solution at all,
    # and the left inverse's least-squares u is not one
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)],
])
def test_covector_on_non_gorenstein_cones(rays):
    with pytest.raises(InputError, match="not Gorenstein"):
        GorensteinToricVariety(rays)


def test_rejects_non_gorenstein():
    # no covector pairs to 1 on both rays
    with pytest.raises(InputError, match="not Gorenstein"):
        GorensteinToricVariety([(1, 0), (2, 3)])


def test_rejects_unpointed():
    with pytest.raises(InputError, match="not pointed"):
        GorensteinToricVariety([(1, 0), (-1, 0), (0, 1)])


def test_rejects_not_full_dimensional():
    # rank 2 in N = Z^3: the variety checks this before building the cone
    with pytest.raises(InputError, match="not full-dimensional"):
        GorensteinToricVariety([(1, 0, 0), (0, 1, 0)])


def test_rejects_non_extremal_input_ray():
    # (1, 1, 2) is the sum of the first two rays
    with pytest.raises(InputError, match="not the extremal rays"):
        GorensteinToricVariety([(1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 2)])


def test_divisor_class_relations():
    X = GorensteinToricVariety(F1_RAYS)
    # the class group is generated by D1 and D4 with D1 + 2 D4 trivial
    zero = X.divisor_class(e())
    assert X.divisor_class(e(1, 4, 4)) == zero
    assert X.divisor_class(e(1)) != zero
    assert X.divisor_class(e(4)) != zero
    # the anticanonical class pairs to 1 on each ray, hence is trivial
    assert X.divisor_class(e(1, 2, 3, 4)) == zero
    # D2 and D3 in terms of the generators: D3 ~ D1 and D2 ~ D4 - D1
    assert X.divisor_class(e(3)) == X.divisor_class(e(1))
    assert X.divisor_class(e(2)) == X.divisor_class((-1, 0, 0, 1))


def test_hom_sections_reproduce_arrow_labels():
    X = GorensteinToricVariety(F1_RAYS)
    coll = Collection(X, [e(), e(1), e(4)])
    assert sorted(X.hom_sections(coll.difference(0, 1))) == sorted(
        [e(1), e(3)])
    # generators of larger fibers contain the arrow labels (the quiver
    # builder then filters out those factoring through a third vertex)
    assert e(4, 4) in X.hom_sections(coll.difference(1, 0))
    two_to_zero = X.hom_sections(coll.difference(2, 0))
    for lab in [e(1, 4), e(3, 4), e(1, 1, 2), e(1, 2, 3), e(2, 3, 3)]:
        assert lab in two_to_zero


def test_section_semigroup_hilbert_basis_affine_space():
    X = GorensteinToricVariety([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(X.section_semigroup_hilbert_basis()) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_collection_rejects_duplicates():
    X = GorensteinToricVariety(F1_RAYS)
    with pytest.raises(InputError, match="pairwise distinct"):
        Collection(X, [e(), e(1), e(1, 1, 4, 4)])  # second class repeated
    with pytest.raises(InputError, match="start with the trivial class"):
        Collection(X, [e(1), e()])  # must start with the trivial class


def test_cyclic_group_data():
    G = AbelianGroupData.cyclic(6, (1, 2, 3))
    assert G.order() == 6
    assert G.in_sl()
    assert G.is_small()
    assert G.character((1, 0, 0)) == (1,)
    assert G.character((0, 1, 1)) == (5,)


def test_group_not_small():
    G = AbelianGroupData.cyclic(2, (0, 1))
    assert not G.is_small()


def fraction_is_small(G):
    """Oracle: the diagonal action of each element as fractions mod 1, and
    a quasireflection moves exactly one coordinate."""
    for exponents in G.elements():
        act = [sum(Fraction(e * w[i], order) for e, (order, w)
                   in zip(exponents, G.generators)) % 1 for i in range(G.n)]
        if sum(1 for f in act if f) == 1:
            return False
    return True


def test_is_small_matches_fraction_oracle():
    """1,000 seeded groups with one to three generators of order <= 6 in
    dimension 2 to 4, both verdicts among them."""
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(1000):
        n = rng.randint(2, 4)
        gens = tuple((o, tuple(rng.randrange(o) for _ in range(n)))
                     for o in (rng.randint(1, 6)
                               for _ in range(rng.randint(1, 3))))
        G = AbelianGroupData(generators=gens, n=n)
        assert G.is_small() == fraction_is_small(G), G
        verdicts.add(G.is_small())
    assert verdicts == {True, False}


@pytest.mark.parametrize("order, weights", [
    (4, (2, 2, 0)), (6, (2, 2, 2)), (2, (0, 0, 0))])
def test_mckay_rejects_non_faithful_group(order, weights):
    """The elements act by fewer than order() distinct diagonal matrices."""
    G = AbelianGroupData.cyclic(order, weights)
    assert G.in_sl() and G.is_small()
    assert len(set(G.actions())) < G.order()
    with pytest.raises(InputError, match="does not act faithfully"):
        mckay_toric_data(G)


def test_group_not_sl():
    G = AbelianGroupData.cyclic(3, (1, 1))
    assert not G.in_sl()


def test_mckay_toric_data_z6():
    G = AbelianGroupData.cyclic(6, (1, 2, 3))
    X, coll = mckay_toric_data(G)
    assert X.n == 3
    assert X.d == 3
    assert len(coll) == 6
    # one divisor class per character, pairwise distinct
    chars = {G.character(c.representative) for c in coll.classes}
    assert len(chars) == 6


def test_mckay_toric_data_z2():
    G = AbelianGroupData.cyclic(2, (1, 1))
    X, coll = mckay_toric_data(G)
    assert X.n == 2
    assert len(coll) == 2


def compositions(total, n):
    """Every v in N^n of total degree total, in increasing lex order."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, n - 1):
            yield (head,) + rest


def representatives_by_enumeration(group):
    """The lex-least representative of least degree of every character,
    from the compositions of each degree in turn, sorted as the
    collection lists them."""
    reps, total = {}, 0
    while len(reps) < group.order():
        for v in compositions(total, group.n):
            reps.setdefault(group.character(v), v)
        total += 1
    return sorted(reps.values(), key=lambda v: (sum(v), v))


@pytest.mark.parametrize("n", sorted(SMALL_GROUPS))
def test_representatives_match_enumeration(n):
    """The level sweep of mckay_toric_data picks the representatives the
    enumeration of compositions by degree picks, on the small groups and
    a few larger ones."""
    groups = SMALL_GROUPS[n] + {
        2: [AbelianGroupData.cyclic(33, (1, 32))],
        3: [AbelianGroupData.cyclic(50, (1, 1, 48)),
            AbelianGroupData.cyclic(16, (1, 2, 13))],
        4: [AbelianGroupData.cyclic(64, (1, 1, 1, 61))]}[n]
    for G in groups:
        _, coll = mckay_toric_data(G)
        assert [c.representative for c in coll.classes] == \
            representatives_by_enumeration(G), G


def test_toric_variety_is_shared_per_ray_order():
    """A list and a tuple of the same rays, in one order, give one shared
    variety with one fiber context; the same rays reordered give another."""
    X = toric_variety(F1_RAYS)
    assert toric_variety(tuple(F1_RAYS)) is X
    assert toric_variety([list(r) for r in F1_RAYS]) is X
    assert X.fiber_context is toric_variety(F1_RAYS).fiber_context
    Y = toric_variety(F1_RAYS[1:] + F1_RAYS[:1])
    assert Y is not X and sorted(Y.rays) == sorted(X.rays)


def test_rejected_ray_list_raises_every_time(tmp_path, capsys):
    """A ray list that is refused is not memoized: it raises InputError on
    every call, and a document with it exits 2 every time."""
    bad = [(1, 0, 2), (0, 1, 2), (-1, 0, 2), (0, -1, 2)]
    for _ in range(2):
        with pytest.raises(InputError, match="not Gorenstein"):
            toric_variety(bad)
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"kind": "toric", "rays": bad,
                               "collection": [[0, 0, 0, 0]]}))
    for _ in range(2):
        assert main(["quiver", str(doc)]) == 2
        assert "not Gorenstein" in capsys.readouterr().err


SAME_CONE = ["threefold_three_sheaves.json", "threefold_four_sheaves.json",
             "threefold_five_sheaves.json"]


def test_documents_on_one_cone_share_it_in_every_order():
    """The three threefold documents on one cone, built in all 6 orders in
    one process, share one variety, and their arrows are those of builds
    on fresh varieties."""
    docs = {name: load(name) for name in SAME_CONE}
    fresh = {}
    for name, doc in docs.items():
        X = GorensteinToricVariety(doc.rays)
        fresh[name] = build_quiver(X, Collection(X, doc.collection_reps),
                                   arrow_order=doc.options.get("arrow_order")
                                   ).arrows
    for order in itertools.permutations(SAME_CONE):
        quivers = [docs[name].quiver() for name in order]
        assert len({id(Q.X) for Q in quivers}) == 1
        assert [Q.arrows for Q in quivers] == [fresh[name] for name in order]


def test_dimer_quiver_document_with_rays_shares_the_variety():
    """A dimer_quiver document that carries rays reads the variety of its
    rays from the memo; one without rays reads that of its recovered rays,
    another basis of the same class group."""
    Q = load("threefold_four_sheaves.json").quiver()
    doc = quiver_document(Q)
    assert parse_document(doc).quiver().X is Q.X
    del doc["rays"], doc["collection"]
    X = parse_document(doc).quiver().X
    assert X is toric_variety(X.rays) and X.cl.moduli == Q.X.cl.moduli


def test_shared_variety_cannot_be_changed():
    """The variety that documents on one cone share is made of tuples:
    changing its rays, B or facets in place raises, so the next document
    on the cone reads the rays it was built from."""
    X = load("threefold_four_sheaves.json").quiver().X
    with pytest.raises(AttributeError):
        X.rays.reverse()
    with pytest.raises(TypeError):
        X.B[0][0] = 7
    with pytest.raises(TypeError):
        X.facets[0] = (0, 0, 1)
    assert load("threefold_three_sheaves.json").quiver().X is X
    assert X.rays == X.B == tuple(F1_RAYS)

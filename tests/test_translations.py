"""The translations of a quotient's quiver, and every layer that works on
one vertex per orbit of them, against a copy of the quiver rebuilt from
the same arrow data, which has the identity alone."""

import importlib
import itertools
import random

import pytest

from toricell.cones import FiberContext
from toricell.complexes import ToricCellComplex, hypercube_complex, mckay_complex
from toricell.errors import InternalError
from toricell.inputs import parse_document
from toricell.quiver import QuiverOfSections, build_quiver, mckay_quiver
from toricell.resolution import (
    CellularResolution,
    _automorphisms,
    build_resolution,
    mckay_sign_crosscheck,
    verify_exactness,
)
from toricell.superpotential import (
    Superpotential,
    consistency,
    cyclic_canonical,
    superpotential,
)
from toricell.variety import AbelianGroupData, mckay_toric_data

from conftest import load
from path_oracle import reachable
from test_complexes import is_face_poset
from test_quiver import SMALL_GROUPS
from test_resolution import small_complexes

Z64 = AbelianGroupData.cyclic(64, (1, 1, 1, 61))
Z63 = AbelianGroupData.cyclic(63, (1, 2, 60))
Z6 = {"kind": "cyclic_quotient", "order": 6, "weights": [1, 2, 3]}


def identity_copy(Q):
    """Q rebuilt from its arrow data: the identity is its only
    translation."""
    P = QuiverOfSections(Q.n_vertices, [a[1:] for a in Q.arrows], X=Q.X,
                         collection=Q.collection)
    assert len(P.translations) == 1
    return P


def check_translations(Q):
    """Brute force: one translation per vertex, identity first, a group
    acting simply transitively on the vertices, and each arrow map a
    permutation sending every arrow (t, h, label) to one (sigma(t),
    sigma(h), label)."""
    n, arrows = Q.n_vertices, Q.arrows
    assert Q.translations[0] == (tuple(range(n)), tuple(range(len(arrows))))
    maps = [sigma for sigma, _ in Q.translations]
    assert [sigma[0] for sigma in maps] == list(range(n))
    group = set(maps)
    assert all(tuple(s[x] for x in t) in group for s in maps for t in maps)
    for sigma, moved in Q.translations:
        assert sorted(sigma) == list(range(n))
        assert sorted(moved) == list(range(len(arrows)))
        for a in arrows:
            b = arrows[moved[a.idx]]
            assert b[1:] == (sigma[a.tail], sigma[a.head], a.label)


def check_class_fact(Q, bound, copy=None):
    """On a quiver that build_quiver made, the paths from t with divisor d
    reach s (`path_oracle.reachable`) iff class(d) = c_s - c_t, for every
    d <= bound: so at most one s.  `Q.path_exists`, which reads class keys,
    and the same on a copy of Q, answer as the oracle does."""
    X, reps = Q.X, [E.representative for E in Q.collection.classes]
    heads = [{X.class_of_difference(u, v): s for s, v in enumerate(reps)}
             for u in reps]
    for d in itertools.product(range(bound + 1), repeat=Q.d):
        cls = X.divisor_class(d)
        for t, head in enumerate(heads):
            want = {head[cls]} if cls in head else set()
            assert reachable(Q, t, d) == want, (t, d)
            for P in filter(None, (Q, copy)):
                assert {s for s in range(P.n_vertices)
                        if P.path_exists(t, s, d)} == want, (t, d)


def check_layers(C, bound, full_exactness=True):
    """W, consistency and the vertices reached along each divisor in
    the box (`check_class_fact`) of C's quiver equal those of its identity
    copy.  C's cells rebuilt with singleton orbits, D, validate every
    incidence and build every route group: D is a face poset, its solve is
    as feasible as C's, and C's solved signs, which are constant on C's
    orbits, and closed-form signs pass D's full sweep.  With
    full_exactness D is built on the copy, which has the identity alone,
    and has no closed-form signs, so the exactness report computes every
    vertex pair and must equal C's.  Else D is built on C's quiver with
    C's closed-form signs, which keep the translations through the gauge
    check."""
    Q = C.Q
    P = identity_copy(Q)
    W, V = superpotential(Q), superpotential(P)
    assert W.terms == V.terms
    assert consistency(Q, W, bound) == consistency(P, V, bound)
    check_class_fact(Q, bound, P)
    D = ToricCellComplex(P if full_exactness else Q, C.n, C.cells,
                         C.incidences)
    sol = C.solve_incidence()
    assert D.solve_incidence().feasible == sol.feasible
    assert not D.sign_failures(sol.signs)
    assert not D.sign_failures(C.explicit_signs)
    assert is_face_poset(D)
    if not full_exactness:
        D.explicit_signs = C.explicit_signs
    assert (verify_exactness(build_resolution(C, C.explicit_signs), bound)
            == verify_exactness(CellularResolution(D, C.explicit_signs),
                                bound))


def test_translations_on_quotients():
    """On the 80 small quotients and Z/64(1,1,1,61): the translations map
    labelled arrows onto labelled arrows, paths carry exactly their class
    difference, and every orbit layer, the sign layer included, agrees
    with the identity copy at bound 2 (on Z/64 the copy's complex keeps
    its translations, as a sweep of all 4,096 vertex pairs takes
    seconds).  About 3.5 s on a 2-CPU machine, the complexes of the small
    quotients already built."""
    for n in sorted(SMALL_GROUPS):
        for C in small_complexes(n):
            check_translations(C.Q)
            check_layers(C, 2)
    C = mckay_complex(Z64)
    check_translations(C.Q)
    check_layers(C, 2, full_exactness=False)


def invariance_violations(C):
    """Brute force: the incidences i and translations sigma for which
    the cell map (j, S) -> (sigma(j), S) does not send i to an incidence
    with the same closed-form sign."""
    ids = {c.payload[1:]: c.id for c in C.cells}

    def move(sigma, c):
        _cube, j, S = C.cells[c].payload
        return ids[sigma[j], S]

    E = C.explicit_signs
    return [(i, sigma) for sigma, _ in C.Q.translations for i in C.incidences
            if E.get(i._replace(parent=move(sigma, i.parent),
                                facet=move(sigma, i.facet))) != E[i]]


def test_closed_form_signs_are_translation_invariant():
    """On the 80 small quotients, Z/64(1,1,1,61) and Z/63(1,2,60), every
    translation of the quiver keeps the closed-form signs, as
    `resolution._automorphisms` assumes.  About 1 s on a 2-CPU machine."""
    complexes = [C for n in sorted(SMALL_GROUPS) for C in small_complexes(n)]
    for C in complexes + [mckay_complex(Z64), mckay_complex(Z63)]:
        assert len(C.Q.translations) == C.Q.n_vertices
        assert not invariance_violations(C)


@pytest.mark.parametrize("group, order", [(Z64, 64), (Z63, 63)],
                         ids=["z64", "z63"])
def test_large_quotient_solver_signs(group, order):
    """On the largest admitted quotients the solver's signs are the
    closed-form ones up to a gauge that is +1 on the 0-cells, so the
    solver's resolution keeps all |G| translations.  About 0.6 s on a
    2-CPU machine."""
    delta = mckay_sign_crosscheck(group)
    C = mckay_complex(group)
    assert all(delta[c.id] == 1 for c in C.by_dim[0])
    auts = _automorphisms(build_resolution(C))
    assert len(auts) == order
    assert auts == [sigma for sigma, _ in C.Q.translations]


@pytest.mark.parametrize("name", [
    "threefold_three_sheaves.json", "threefold_four_sheaves.json",
    "threefold_five_sheaves.json", "conifold.json", "fourfold.json"])
def test_superpotential_fixtures_have_identity_alone(name):
    """A class group with a free part has no translations."""
    Q = load(name).quiver()
    assert 0 in Q.X.cl.moduli
    assert Q.translations == identity_copy(Q).translations


def spy_path_classes(monkeypatch):
    """The tails `consistency` sweeps, one per call of _path_classes."""
    tails = []
    module = importlib.import_module("toricell.superpotential")
    real = module._path_classes

    def wrapper(Q, rules, i, pk):
        tails.append(i)
        return real(Q, rules, i, pk)

    monkeypatch.setattr(module, "_path_classes", wrapper)
    return tails


def test_dropped_term_sweeps_every_tail(monkeypatch):
    """On Z/6(1,2,3): the full W sweeps the one tail of its orbit.  A W
    with one term dropped is not closed under the translations and has
    the identity alone.  A W with one orbit of terms dropped keeps them,
    finds witnesses at the first tail and sweeps every tail.  Both
    reports, witnesses included, are those of the identity copy."""
    Q = load("mckay_z6_123.json").quiver()
    P = identity_copy(Q)
    W = superpotential(Q)
    tails = spy_path_classes(monkeypatch)
    assert consistency(Q, W, 2).consistent and tails == [0]
    orbit = {cyclic_canonical(tuple(moved[a] for a in W.terms[0]))
             for _, moved in Q.translations}
    one = Superpotential(Q, W.terms[1:])
    closed = Superpotential(Q, [t for t in W.terms if t not in orbit])
    closed.translations = Q.translations
    assert len(one.translations) == 1 and len(orbit) == 6
    kept = set(closed.terms)
    assert all(cyclic_canonical(tuple(moved[a] for a in t)) in kept
               for t in kept for _, moved in Q.translations)
    for V in (one, closed):
        tails.clear()
        rep = consistency(Q, V, 2)
        assert sorted(tails) == list(range(6))
        assert not rep.consistent and rep.witnesses
        assert rep == consistency(P, Superpotential(P, V.terms), 2)


def test_permuted_arrow_order_keeps_translations():
    """Z/6(1,2,3) in a shuffled arrow order: the arrow maps are valid in
    that order, and W, consistency, the class table and exactness are
    those of the identity copy, with the default order's verdicts."""
    default = parse_document(Z6).quiver()
    order = [[a.tail, a.head, list(a.label)] for a in default.arrows]
    random.Random(0).shuffle(order)
    doc = parse_document(dict(Z6, options={"arrow_order": order}))
    Q = doc.quiver()
    assert Q is not mckay_quiver(doc.group)
    assert [[a.tail, a.head, list(a.label)] for a in Q.arrows] == order
    check_translations(Q)
    C = hypercube_complex(Q)
    check_layers(C, 2)
    for bound in (2, 3):
        W, V = superpotential(Q), superpotential(default)
        assert len(W) == len(V)
        assert consistency(Q, W, bound)[:2] == consistency(default, V,
                                                            bound)[:2]
    assert (verify_exactness(build_resolution(C, C.explicit_signs), 3)
            == verify_exactness(build_resolution(mckay_complex(doc.group)), 3))


def test_translation_missing_an_arrow_raises(monkeypatch):
    """The translations are certified, not assumed: a walk that loses one
    arrow out of vertex 0 of Z/6(1,2,3) leaves an arrow elsewhere with no
    image, and the build raises instead of recording them."""
    X, coll = mckay_toric_data(AbelianGroupData.cyclic(6, (1, 2, 3)))
    X.fiber_context  # the S0 walk, before the walk loses anything
    walk, walks = FiberContext.walk, []

    def lossy(ctx, *args, **kw):
        found, loops = walk(ctx, *args, **kw)
        if not walks:
            key = min(found)
            found[key] = found[key][1:]
        walks.append(args)
        return found, loops

    monkeypatch.setattr(FiberContext, "walk", lossy)
    with pytest.raises(InternalError, match="translation misses arrow"):
        build_quiver(X, coll)

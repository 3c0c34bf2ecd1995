import ast
import collections
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from toricell import cones
from toricell.cones import (
    FiberContext,
    dual_cone_rays,
)
from toricell.errors import InputError
from toricell.inputs import MAX_GROUP_ORDER
from toricell.intlinalg import (
    CokernelForm,
    dot,
    left_inverse,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    smith_normal_form,
    transpose,
    vsub,
)
from toricell.quiver import build_quiver
from toricell.variety import (
    AbelianGroupData,
    Collection,
    GorensteinToricVariety,
    mckay_toric_data,
)

from conftest import INPUTS, load
from test_quiver import SMALL_GROUPS


def random_pointed_cones(count, seed=20240818, max_dim=5):
    """Full-dimensional pointed cones with small integer generators, as
    (generators, facet normals)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, max_dim)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 3))]
        if rank(gens) != dim:
            continue
        facets = dual_cone_rays(gens)
        if rank(facets) == dim:
            out.append((gens, facets))
    return out


def check_double_dualization(count=50):
    """The rays of the double dual are the extremal generators: each is a
    primitive generator, and every generator satisfies every facet."""
    for gens, facets in random_pointed_cones(count):
        back = dual_cone_rays(facets)
        assert set(back) <= {primitive(g) for g in gens if any(g)}
        assert all(cone_contains(facets, g) for g in gens)
    return count


def test_double_dualization_random_cones():
    check_double_dualization(50)


def test_dual_cone_rays_orthant():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert sorted(dual_cone_rays(gens)) == sorted(gens)


def test_extremal_rays_drop_interior_generators():
    gens = [(1, 0), (0, 1), (1, 1), (2, 3)]
    assert dual_cone_rays(dual_cone_rays(gens)) == [(0, 1), (1, 0)]


def fiber_context(B):
    return FiberContext(B, CokernelForm(B), dual_cone_rays(B))


def hilbert_basis(facets):
    """Hilbert basis of cone ∩ Z^n for the pointed full-dimensional cone
    with the given facet normals.

    The cone is {x : F x >= 0} for its facet matrix F, which has full
    column rank because the cone is pointed.  So x |-> F x maps
    cone ∩ Z^n onto the degree-zero semigroup of the fiber context of F,
    and x is recovered from v = F x by a left inverse of F.
    """
    F = [list(f) for f in facets]
    assert rank(F) == len(F[0])
    N, det = left_inverse(F)
    out = []
    for v in fiber_context(F).s0_hilbert:
        x = mat_vec(N, v)
        assert all(a % det == 0 for a in x)
        out.append(tuple(a // det for a in x))
    return sorted(out)


def cone_contains(facets, v):
    """Real membership of the integer vector v in the cone, through its
    facets."""
    return all(dot(f, v) >= 0 for f in facets)


def _brute_hilbert(facets, box):
    pts = [p for p in itertools.product(*(range(b + 1) for b in box))
           if any(p) and cone_contains(facets, p)]
    basis = []
    for p in pts:
        reducible = False
        for q in pts:
            if q != p and all(x <= y for x, y in zip(q, p)):
                r = vsub(p, q)
                if not any(r) or (cone_contains(facets, r)
                                  and _in_semigroup(r, pts)):
                    reducible = True
                    break
        if reducible:
            continue
        basis.append(p)
    return sorted(basis)


def _in_semigroup(v, pts):
    if not any(v):
        return True
    return v in pts or any(
        all(x <= y for x, y in zip(q, v)) and _in_semigroup(vsub(v, q), pts)
        for q in pts)


def check_hilbert_basis_brute_force(count=12):
    rng = random.Random(20240819)
    done = 0
    while done < count:
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 2))]
        if rank(gens) != dim:
            continue
        facets = dual_cone_rays(gens)
        if rank(facets) != dim:
            continue
        box = tuple(5 for _ in range(dim))
        pts = [p for p in itertools.product(*(range(b + 1) for b in box))
               if any(p) and cone_contains(facets, p)]
        if not pts or len(pts) > 200:
            continue
        # only sound when the Hilbert basis fits well inside the box
        if any(any(2 * r[k] > box[k] for k in range(dim))
               for r in dual_cone_rays(facets)):
            continue
        hb = sorted(hilbert_basis(facets))
        assert hb == _brute_hilbert(facets, box)
        done += 1
    return done


def test_hilbert_basis_brute_force():
    check_hilbert_basis_brute_force(12)


def test_hilbert_basis_quadric_cone():
    # cone over a square: four rays, five Hilbert basis elements
    gens = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    hb = sorted(hilbert_basis(dual_cone_rays(gens)))
    assert hb == sorted(gens)


def test_hilbert_basis_singular_quadrant():
    # the cone of the A_1 singularity: (1,0), (1,2)
    facets = dual_cone_rays([(1, 0), (1, 2)])
    assert sorted(hilbert_basis(facets)) == [(1, 0), (1, 1), (1, 2)]


# ---------------------------------------------------------------------------
# oracles: a zonotope-box Hilbert basis of S0, and S0 with every fiber
# by brute force over a box


def _box_s0_hilbert(B):
    """Hilbert basis of S0 = N^d ∩ im(B) by a zonotope box.

    C = {t : B t >= 0} is full-dimensional and pointed, and t |-> B t
    maps C ∩ Z^n isomorphically onto S0.  Every Hilbert basis element of
    C ∩ Z^n lies in the zonotope spanned by the primitive rays of C, so
    the box around it holds them all; they are the nonzero points of the
    box that no other one lies below in C."""
    rays = dual_cone_rays([tuple(row) for row in B])

    def member(t):
        return any(t) and min(mat_vec(B, t)) >= 0

    box = [range(sum(min(0, r[j]) for r in rays),
                 sum(max(0, r[j]) for r in rays) + 1)
           for j in range(len(B[0]))]
    candidates = [t for t in itertools.product(*box) if member(t)]
    return sorted(mat_vec(B, t) for t in candidates
                  if not any(member(vsub(t, w)) for w in candidates if w != t))


def _brute_fibers(X, classes, group=None):
    """(S0 Hilbert basis, [fiber generators of each class]) by brute force
    over a box [0, m]^d in lexicographic order, which lists every point
    after those below it.  Each point carries the set (a bitmask) of the
    classes of the nonzero points at or below it; a point is minimal in
    its fiber iff no point strictly below it has its class, and the
    minimal nonzero points of class 0 are the Hilbert basis of S0.  The
    class of a point is its character when X is the quotient by group.

    When Cl is finite every generator has v_i < |Cl|, because |Cl| e_i
    lies in S0, and every element of the Hilbert basis has v_i <= |Cl|;
    so m = |Cl| holds them all.  Otherwise m doubles until two boxes agree
    (a heuristic stop)."""
    d = X.d
    cls = group.character if group else lambda v: tuple(X.cl.canonical(v))
    bits = {}

    def minimal_upto(m):
        place = [(m + 1) ** (d - 1 - j) for j in range(d)]
        below = [0] * (m + 1) ** d
        minimal = {}
        points = itertools.product(range(m + 1), repeat=d)
        next(points)  # the origin, whose class 0 must not count
        for code, v in enumerate(points, 1):
            under = 0
            for j in range(d):
                if v[j]:
                    under |= below[code - place[j]]
            c = cls(v)
            bit = bits.setdefault(c, 1 << len(bits))
            if not under & bit:
                minimal.setdefault(c, []).append(v)
            below[code] = under | bit
        return (minimal.get(cls((0,) * d), []),
                [minimal.get(cls(c), []) for c in classes])

    if d == X.n:
        order = math.prod(abs(smith_normal_form(X.B).S[i][i]) for i in range(d))
        return minimal_upto(order)
    m = 2
    found = minimal_upto(m)
    while True:
        m *= 2
        bigger = minimal_upto(m)
        if bigger == found:
            return found
        found = bigger


def _variety_and_classes(doc):
    """(X, the distinct classes E_j - E_i, i != j) of an input document."""
    if doc.kind == "toric":
        X = GorensteinToricVariety(doc.rays)
        coll = Collection(X, doc.collection_reps)
    else:
        X, coll = mckay_toric_data(doc.group)
    classes = {coll.difference(i, j)
               for i, j in itertools.permutations(range(len(coll)), 2)}
    return X, sorted(classes)


SMALL_FIXTURES = ["conifold", "mckay_z2_11", "mckay_z6_123",
                  "threefold_five_sheaves", "threefold_four_sheaves",
                  "threefold_three_sheaves", "trivial_a3"]


def small_cyclic_groups(max_order):
    """Faithful cyclic subgroups of SL(3) without quasireflections, one per
    sorted weight triple."""
    out = []
    for r in range(2, max_order + 1):
        for w in itertools.combinations_with_replacement(range(r), 3):
            G = AbelianGroupData.cyclic(r, w)
            if sum(w) % r == 0 and math.gcd(r, *w) == 1 and G.is_small():
                out.append(G)
    return out


def test_fibers_match_box_oracle():
    """S0 and every fiber equal the brute-force oracle on the small
    fixtures, the cyclic subgroups of SL(3) of order <= 8, the subgroups
    of SL(4) of order <= 8 and Z/16(1,1,1,13); where the zonotope box is
    small, S0 also equals the box oracle."""
    varieties = [_variety_and_classes(load(name + ".json"))
                 for name in SMALL_FIXTURES]
    groups = small_cyclic_groups(8)
    assert len(groups) == 39
    for X, _ in varieties:
        assert X.fiber_context.s0_hilbert == _box_s0_hilbert(X.B)
    varieties = [(X, classes, None) for X, classes in varieties]
    groups += SMALL_GROUPS[4] + [AbelianGroupData.cyclic(16, (1, 1, 1, 13))]
    for G in groups:
        X, coll = mckay_toric_data(G)
        varieties.append((X, sorted(
            {coll.difference(0, j) for j in range(1, len(coll))}), G))
    for X, classes, group in varieties:
        s0, fibers = _brute_fibers(X, classes, group)
        assert X.fiber_context.s0_hilbert == s0
        assert X.fiber_context.fibers(classes) == fibers


GOLDEN_FIBERS = os.path.join(os.path.dirname(__file__), "golden", "fibers.json")
with open(GOLDEN_FIBERS) as fh:
    FIBERS = json.load(fh)


@pytest.mark.parametrize("fixture", sorted(FIBERS))
def test_fibers_golden(fixture):
    """S0 Hilbert basis and hom sections of every distinct class, as the
    zonotope-box and expanding-box code computed them: all classes from
    one walk, as build_quiver asks for them, and then X.hom_sections from
    the same cache."""
    want = FIBERS[fixture]
    X, classes = _variety_and_classes(load(fixture + ".json"))
    assert [list(v) for v in X.section_semigroup_hilbert_basis()] == \
        want["s0_hilbert"]
    fibers = X.fiber_context.fibers(classes)
    assert [[list(c), [list(v) for v in gens]]
            for c, gens in zip(classes, fibers)] == want["fibers"]
    assert [X.hom_sections(c) for c in classes] == fibers


def test_point_cap_raises(monkeypatch):
    """_BOX_LIMIT caps the points of the S0 walk and of every fiber walk."""
    monkeypatch.setattr(cones, "_BOX_LIMIT", 50)
    with pytest.raises(InputError, match="_BOX_LIMIT = 50"):
        fiber_context([[1, 0], [-1, 50]])
    ctx = fiber_context([[1, 0], [0, 1], [1, 1]])
    assert ctx.fibers([(0, 0, -3)]) == [[
        (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0)]]
    with pytest.raises(InputError, match="_BOX_LIMIT = 50"):
        ctx.fibers([(0, 0, -40)])


def test_largest_admitted_quotient_fibers(monkeypatch):
    """Z/64(1,1,1,61), of the largest order an input may have: one walk
    finds S0 and one more, at the same cap z (Cl is finite), gives all 64
    hom fibers, none empty, and each generator has its class and
    coordinates < 64."""
    walks = []
    walk = FiberContext.walk
    monkeypatch.setattr(FiberContext, "walk",
                        lambda ctx, *args: walks.append(args) or walk(ctx, *args))
    G = AbelianGroupData.cyclic(64, (1, 1, 1, 61))
    assert G.order() == MAX_GROUP_ORDER
    X, coll = mckay_toric_data(G)
    classes = [coll.difference(0, j) for j in range(len(coll))]
    assert len(set(classes)) == 64
    for c, gens in zip(classes, X.fiber_context.fibers(classes)):
        assert gens
        for v in gens:
            assert max(v) < 64 and X.divisor_class(v) == c
    assert [args[0] for args in walks] == [X.fiber_context.z] * 2


# ---------------------------------------------------------------------------
# oracles: the fiber caps and the dual cone seed over Fraction, as they
# were computed before the integer adjugate


def fraction_inverse(A):
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination
    over Fraction."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next(i for i in range(col, n) if M[i][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        p = M[col][col]
        M[col] = [x / p for x in M[col]]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [row[n:] for row in M]


def fraction_box(ctx, c):
    """FiberContext.box with rational vertex maps K = B B_S^{-1}: the cap
    z + floor(c - K c_S) over every S whose vertex is >= 0."""
    cap = ctx.z
    for S in itertools.combinations(range(ctx.d), ctx.n):
        rows = [ctx.B[i] for i in S]
        if rank(rows) != ctx.n:
            continue
        v = vsub(c, mat_vec(mat_mul(ctx.B, fraction_inverse(rows)),
                            [c[i] for i in S]))
        if min(v) >= 0:
            cap = tuple(max(a, math.floor(x) + b)
                        for a, x, b in zip(cap, v, ctx.z))
    return cap


def fraction_seed(A):
    """The simplicial seed of dual_cone_rays from fraction_inverse, shaped
    as adjugate's (adj, det): each column of A^{-1} times the lcm of its
    denominators, made primitive."""
    cols = [primitive(tuple(int(f * math.lcm(*(g.denominator for g in col)))
                            for f in col))
            for col in zip(*fraction_inverse(A))]
    return transpose(cols), 1


def test_integer_caps_and_seeds_match_fraction_oracle(monkeypatch):
    """build_quiver takes one cap per ordered pair of members on every
    fixture with a free class group, from the vertex images of the two
    members, and each equals the Fraction cap of c_j - c_i; on finite
    class groups, those of Z/16(1,2,13) and Z/32(1,1,1,29) among them, it
    takes none.  dual_cone_rays of the rays and of the facets of each
    variety equal the rays grown from the Fraction seed."""
    used = []
    box = FiberContext.box

    def recorded(ctx, images, base):
        cap = box(ctx, images, base)
        used.append((ctx, (id(ctx), tuple(images), tuple(base)), cap))
        return cap

    monkeypatch.setattr(FiberContext, "box", recorded)
    quivers = [load(name).quiver() for name in sorted(os.listdir(INPUTS))]
    for G in [AbelianGroupData.cyclic(16, (1, 2, 13)),
              AbelianGroupData.cyclic(32, (1, 1, 1, 29))]:
        quivers.append(build_quiver(*mckay_toric_data(G)))
    contexts = [Q.X.fiber_context for Q in quivers]
    assert len(contexts) == 11
    want = {}
    pairs = collections.Counter()
    for Q in quivers:
        if 0 not in Q.X.cl.moduli:
            continue
        ctx, reps = Q.X.fiber_context, [c.representative
                                        for c in Q.collection.classes]
        for ci, cj in itertools.permutations(reps, 2):
            key = id(ctx), tuple(ctx.images(cj)), tuple(ctx.images(ci))
            want[key] = fraction_box(ctx, vsub(cj, ci))
            pairs[key] += 1
    assert collections.Counter(key for _, key, _ in used) == pairs
    moved = 0
    for ctx, key, cap in used:
        assert cap == want[key]
        moved += cap != ctx.z
    assert moved > 0  # some vertex raises a cap above z
    cones_in = [gens for ctx in contexts
                for gens in ([tuple(row) for row in ctx.B],
                             dual_cone_rays(ctx.B))]
    integer = [dual_cone_rays(gens) for gens in cones_in]
    monkeypatch.setattr(cones, "adjugate", fraction_seed)
    assert [dual_cone_rays(gens) for gens in cones_in] == integer


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _imports(tree, name):
    """The statements of a module's tree that import the module name."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == name
            or isinstance(node, ast.Import)
            and any(alias.name == name for alias in node.names)]


def _modules():
    """The source files of the toricell package, by name."""
    package = os.path.dirname(cones.__file__)
    return {name: os.path.join(package, name)
            for name in sorted(os.listdir(package)) if name.endswith(".py")}


def test_polyhedral_layer_is_integer_only():
    """No module of toricell imports fractions or names Fraction: the
    polyhedral layer, the lattice answers and the tiling all stay in
    integers, and only the CLI divides, where it prints."""
    for name, path in _modules().items():
        tree = _parse(path)
        assert _imports(tree, "fractions") == [], name
        assert not any(isinstance(node, ast.Name) and node.id == "Fraction"
                       or isinstance(node, ast.Attribute)
                       and node.attr == "Fraction"
                       for node in ast.walk(tree)), name


def test_no_module_imports_dataclasses():
    """Records are named tuples: no module of toricell imports dataclasses,
    whose import alone pulls inspect, dis, tokenize and ast into start-up."""
    for name, path in _modules().items():
        assert _imports(_parse(path), "dataclasses") == [], name

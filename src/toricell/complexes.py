"""Toric cell complexes: cells with head, tail and divisor data, facet
incidences carrying left and right derivative classes, the duality
involution tau, and the parity solver for incidence functions.

Cells are combinatorial: a payload (vertex, arrow, relation, dual arrow,
dual vertex, or hypercube face) plus head vertex, tail vertex and divisor.
A facet incidence stores the divisors of the left class (a path from the
head of the facet to the head of the parent) and the right class (a path
from the tail of the parent to the tail of the facet).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import xor
from types import MappingProxyType
from typing import NamedTuple

from .errors import ConstructionError
from .intlinalg import Packing, leq, vadd, vsub
from .quiver import mckay_quiver, orbit_representatives
from .superpotential import cyclic_canonical, relations


class Cell(NamedTuple):
    id: int
    dim: int
    head: int
    tail: int
    divisor: tuple
    payload: tuple

    def describe(self, Q):
        kind = self.payload[0]
        if kind == "vertex":
            return f"vertex {self.payload[1]}"
        if kind == "arrow":
            return f"arrow a{self.payload[1] + 1}"
        if kind == "dual_arrow":
            return f"dual of a{self.payload[1] + 1}"
        if kind == "dual_vertex":
            return f"dual of vertex {self.payload[1]}"
        if kind == "relation":
            return f"relation {self.payload[1].pretty(Q)}"
        if kind == "cube":
            return f"cube face ({self.payload[1]}, {set(self.payload[2]) or '{}'})"
        return kind


class FacetIncidence(NamedTuple):
    parent: int
    facet: int
    left: tuple   # divisor of the left derivative class
    right: tuple  # divisor of the right derivative class


class ToricCellComplex:
    """Cells, deduplicated facet incidences and cells by dimension, all
    read-only: a complex may be shared (`mckay_complex`).  explicit_signs
    are closed-form signs that Q's translations keep, acting on cells by
    (j, S) -> (sigma(j), S), or None (all but `hypercube_complex`), and
    solved_signs the read-only signs the last `solve_incidence` verified.

    orbits (`hypercube_complex`) maps each incidence to a key of its orbit
    under Q's translations; else each incidence is its own orbit.  The
    sign layer works at the parents whose tail is an orbit representative,
    and every parent is the image of one.  A translation sigma keeps
    labels, so path_exists, and sends each incidence to one of its orbit
    with the same dims, divisors and classes.  So at sigma(p), `_validate`,
    the route groups, their equations in one unknown per orbit and the
    sums of signs constant on the orbits are those at p, moved by sigma.

    Each cell's divisor is carried from its tail to its head, as the
    exactness engine needs (`resolution._one_sided_failures`): a cell
    with no facet at a representative tail that breaks it is refused.  A
    validated incidence (p, f, L, R) has div(p) = L + div(f) + R, so p
    inherits the condition from f along paths of class R and L, and a
    translate from its preimage.  No complex built here has a cell of
    dimension >= 1 without a facet."""

    def __init__(self, Q, n, cells, incidences, orbits=None):
        self.Q = Q
        self.n = n
        self.cells = cells = tuple(cells)
        self.by_dim = MappingProxyType(
            {k: tuple(c for c in cells if c.dim == k) for k in range(n + 1)})
        self.incidences = tuple(dict.fromkeys(incidences))
        self._orbit = orbits or {}
        self._reps = set(orbit_representatives(
            Q.translations if orbits else Q.translations[:1]))
        self._facets_of = {c.id: [] for c in cells}
        for inc in self.incidences:
            if cells[inc.parent].tail in self._reps:
                self._validate(inc)
            self._facets_of[inc.parent].append(inc)
        for c in cells:
            if c.tail in self._reps and not self._facets_of[c.id] \
                    and not Q.path_exists(c.tail, c.head, c.divisor):
                raise ConstructionError(f"no path carries the divisor of "
                                        f"{c.describe(Q)} from tail to head")
        self._local_groups = self._route_groups(
            [i for i in self.incidences if cells[i.parent].tail in self._reps])
        self.explicit_signs = self.solved_signs = None
        self._tau = self._composites = None

    def _validate(self, inc):
        p, f = self.cells[inc.parent], self.cells[inc.facet]
        if f.dim != p.dim - 1:
            raise ConstructionError("facet is not of codimension one")
        if vadd(vadd(inc.left, f.divisor), inc.right) != p.divisor:
            raise ConstructionError(
                f"divisor mismatch on incidence {p.describe(self.Q)} / "
                f"{f.describe(self.Q)}")
        if not self.Q.path_exists(f.head, p.head, inc.left):
            raise ConstructionError(
                f"left class of {p.describe(self.Q)} / {f.describe(self.Q)} "
                "is not realizable")
        if not self.Q.path_exists(p.tail, f.tail, inc.right):
            raise ConstructionError(
                f"right class of {p.describe(self.Q)} / {f.describe(self.Q)} "
                "is not realizable")

    def counts(self):
        return tuple(len(self.by_dim[k]) for k in range(self.n + 1))

    def facet_incidences(self, cell_id):
        return list(self._facets_of[cell_id])

    # -- duality ------------------------------------------------------------

    def tau(self):
        """The involution pairing each k-cell with its dual (n-k)-cell, as
        a read-only mapping built once and shared: if c2 is c's only dual
        candidate, c is one of c2's, so its only one or tau raises on c2."""
        if self._tau is not None:
            return self._tau
        ones, pairing, index = self.Q.ones, {}, {}
        for c in self.cells:
            index.setdefault((c.dim, c.tail, c.head, c.divisor), []).append(c)
        for c in self.cells:
            matches = index.get(
                (self.n - c.dim, c.head, c.tail, vsub(ones, c.divisor)), [])
            if len(matches) != 1:
                raise ConstructionError(
                    f"{c.describe(self.Q)} has {len(matches)} dual candidates")
            pairing[c.id] = matches[0].id
        self._tau = MappingProxyType(pairing)
        return self._tau

    def tau_antisymmetry_violations(self):
        """Pairs breaking 'f facet of c iff tau(c) facet of tau(f)'."""
        t = self.tau()
        have = {(i.parent, i.facet) for i in self.incidences}
        return [(p, f) for p, f in have if (t[f], t[p]) not in have]

    # -- two-step composites and the face poset -----------------------------

    def _route_groups(self, incidences):
        """`composite_groups` of the parents of the incidences, each class
        packed once (`intlinalg.Packing`) so that composing is an int sum."""
        pk = Packing((max((x for c in self.cells for x in c.divisor),
                          default=0),) * self.Q.d, 0)
        pack, unpack = lru_cache(None)(pk.pack), lru_cache(None)(pk.unpack)
        packed, groups = {i: (pack(i.left), pack(i.right))
                          for i in self.incidences}, {}
        for inc1 in incidences:
            l1, r1 = packed[inc1]
            for inc2 in self._facets_of[inc1.facet]:
                l2, r2 = packed[inc2]
                groups.setdefault((inc1.parent, inc2.facet, l1 + l2, r1 + r2),
                                  []).append((inc1, inc2))
        return {(p, g, unpack(L), unpack(R)): tuple(routes)
                for (p, g, L, R), routes in groups.items()}

    def composite_groups(self):
        """Two-step facet routes grouped by (parent, grandchild, left, right).

        Each group collects the pairs of incidences eta -> eta' -> eta''
        whose composed left and right divisors agree; for a cell complex
        with an incidence function every group has exactly two routes whose
        signs cancel.  The incidences are fixed at construction, so the
        groups are built once and shared, read-only, by every caller.
        """
        if self._composites is None:
            self._composites = MappingProxyType(
                self._route_groups(self.incidences))
        return self._composites

    # -- incidence function -------------------------------------------------

    def solve_incidence(self):
        """Find signs for all incidences satisfying the cancellation parity.

        One unknown per orbit of incidences (sign = (-1)^x).  Each two-step
        group at a representative tail gives x1+x2+x3+x4 = 1 over GF(2),
        each such 1-cell x(head incidence) + x(tail incidence) = 1 (the
        empty cell below the 0-cells has sign +1).  A face poset needs two
        routes in every group, so ConstructionError is raised if some group
        has another number, or if the solved signs fail `sign_failures`.
        """
        if any(len(routes) != 2 for routes in self._local_groups.values()):
            bad = sum(len(r) != 2 for r in self.composite_groups().values())
            raise ConstructionError(f"face poset check failed on {bad} flags")
        index = {}
        var = {inc: index.setdefault(self._orbit.get(inc, inc), len(index))
               for inc in self.incidences}
        rows = [(("flag", key), sum(routes, ()))
                for key, routes in sorted(self._local_groups.items())]
        rows += [(("boundary", c.id), self._facets_of[c.id])
                 for c in self.by_dim.get(1, ()) if c.tail in self._reps]
        equations = [(reduce(xor, [1 << var[i] for i in incs], 0), 1, meta)
                     for meta, incs in rows]
        assignment, certificate = solve_gf2(equations, len(index))
        if assignment is None:
            return IncidenceSolution(signs=None, feasible=False,
                                     certificate=certificate)
        signs = MappingProxyType({inc: (-1) ** assignment[i]
                                  for inc, i in var.items()})
        if failures := self.sign_failures(signs):
            raise ConstructionError(failures[0][1])
        self.solved_signs = signs
        return IncidenceSolution(signs=signs, feasible=True, certificate=None)

    def sign_failures(self, signs):
        """(parent cell, why) for each two-step route group, and each 1-cell
        under the augmentation, whose signs do not cancel.  Signs constant
        on the orbits get every group only if a representative one fails."""
        first, orbit, failures = {}, self._orbit, []
        if orbit and not all(first.setdefault(orbit.get(i, i), signs[i])
                             == signs[i] for i in self.incidences) or any(
                sum(signs[i1] * signs[i2] for i1, i2 in routes)
                for routes in self._local_groups.values()):
            failures = [(key[0], f"d.d != 0 on flag {key}")
                        for key, routes in self.composite_groups().items()
                        if sum(signs[i1] * signs[i2] for i1, i2 in routes)]
        failures += [(c.id, f"augmentation . d1 != 0 on cell {c.id}")
                     for c in self.by_dim.get(1, [])
                     if sum(signs[i] for i in self._facets_of[c.id])]
        return failures


class IncidenceSolution(NamedTuple):
    signs: object      # read-only {FacetIncidence: +1 or -1}; None if infeasible
    feasible: bool
    certificate: object  # conflicting flag descriptions when infeasible


def solve_gf2(equations, n_vars):
    """Gaussian elimination over GF(2) with a conflict certificate.

    equations: list of (bitmask, rhs, meta).  Returns (assignment, None) or
    (None, metas of an inconsistent subset).

    Rows are keyed by their pivot, the lowest set bit.  In any order of
    elimination, a consistent system has the lowest set bits of its row
    space as pivots, and back-substitution by descending pivot gives the
    one solution that is 0 off them: two such differ by a kernel vector z
    that is 0 off the pivots, and row p, which has no bit below p, gives
    z_p = 0 from the highest pivot p down.  So the equations are
    eliminated by descending lowest set bit, sparse rows first.  An
    inconsistent system is eliminated again in the given order, each row
    with the bitmask of its equations, and the first equation to reduce
    to 0 = 1 gives the certificate.
    """
    by_low = sorted(range(len(equations)),
                    key=lambda k: -(equations[k][0] & -equations[k][0]))
    for order, track in ((by_low, 0), (range(len(equations)), 1)):
        rows, lows = {}, 0  # pivot bit -> (mask, rhs, origin bitmask)
        for k in order:
            mask, rhs, _meta = equations[k]
            origin = track << k
            while hit := mask & lows:
                pmask, prhs, porigin = rows[hit & -hit]
                mask ^= pmask
                rhs ^= prhs
                origin ^= porigin
            if mask:
                rows[mask & -mask] = (mask, rhs, origin)
                lows |= mask & -mask
            elif rhs:
                break
        else:
            x = 0  # bit j is variable j
            for low, (mask, rhs, _) in sorted(rows.items(), reverse=True):
                if (rhs + (mask & x).bit_count()) % 2:
                    x |= low
            return [x >> j & 1 for j in range(n_vars)], None
    return None, [equations[i][2] for i in range(len(equations))
                  if origin >> i & 1]


# ---------------------------------------------------------------------------
# hypercube complexes of abelian quotients


def hypercube_complex(Q):
    """The cell complex of hypercube faces of a quiver of sections whose
    collection is all of a finite Cl, as for an abelian quotient A^n / G.

    Cells are pairs (vertex, S) for S a subset of the coordinate directions;
    the facet dropping the nu-th direction of S shares the tail (left class
    an arrow, sign (-1)^nu) or the head (right class an arrow, sign
    (-1)^(nu+1)).  The closed-form signs are recorded alongside, read-only.
    (j, S) ends at the vertex of class c_j + [e_S]: sigma(j) for the
    translation sigma adding the class of e_S, that of the vertex
    Q.path_head(0, e_S) (`quiver.build_quiver`).  Translations commute, so
    sigma sends (j, S) to (sigma(j), S) and each incidence to one with the
    same classes and closed-form sign; they act transitively, so orbits
    are keyed by S, nu and the side.
    """
    n, r = Q.X.n, Q.n_vertices
    faces = [tuple(i for i in range(n) if bits >> i & 1)
             for bits in range(1 << n)]
    cube = {S: tuple(int(i in S) for i in range(n)) for S in faces}
    shift = {S: Q.translations[Q.path_head(0, e_S)][0]
             for S, e_S in cube.items()}
    cells = [Cell(id=j * len(faces) + k, dim=len(S), head=shift[S][j], tail=j,
                  divisor=cube[S], payload=("cube", j, S))
             for j in range(r) for k, S in enumerate(faces)]
    ids = {c.payload[1:]: c.id for c in cells}
    zero, incidences, explicit, orbits = cube[()], [], {}, {}
    for j in range(r):
        for S in faces:
            parent = ids[j, S]
            for nu, i in enumerate(S, start=1):
                rest = tuple(k for k in S if k != i)
                tail_facet = FacetIncidence(parent=parent, facet=ids[j, rest],
                                            left=cube[i,], right=zero)
                head_facet = FacetIncidence(
                    parent=parent, facet=ids[shift[i,][j], rest],
                    left=zero, right=cube[i,])
                incidences += (tail_facet, head_facet)
                explicit[tail_facet] = (-1) ** nu
                explicit[head_facet] = (-1) ** (nu + 1)
                orbits[tail_facet] = S, -nu
                orbits[head_facet] = S, nu
    complex_ = ToricCellComplex(Q, n, cells, incidences, orbits)
    complex_.explicit_signs = MappingProxyType(explicit)
    # the 1-skeleton must be the quiver itself
    one_cells = {(c.tail, c.head, c.divisor) for c in complex_.by_dim[1]}
    arrows = {(a.tail, a.head, a.label) for a in Q.arrows}
    if one_cells != arrows:
        raise ConstructionError("1-cells do not match the quiver arrows")
    return complex_


@lru_cache(maxsize=8)
def mckay_complex(group):
    """The hypercube complex of `mckay_quiver(group)`, shared read-only."""
    return hypercube_complex(mckay_quiver(group))


# ---------------------------------------------------------------------------
# complexes from superpotential data, n = 3 and 4


def _embeddings(W, arrow_idx, rel):
    """Each way a relation embeds in the cyclic words of W through an arrow.

    Yields (term, t_path, s_path, other): term, rotated to start at the
    arrow, reads arrow . t_path . p_plus . s_path, and other is the cyclic
    word with p_minus in place of p_plus, which is also a term of W.  The
    rotations of the terms that start at the arrow are the arrow followed
    by its complements in the derivative index, so both words are looked
    up there.
    """
    p_plus, p_minus = rel.pair
    k = len(p_plus)
    arrow = (arrow_idx,)
    bodies = W.derivatives.get((W.quiver.arrows[arrow_idx].tail, arrow), ())
    for body in bodies:
        for cut in range(len(body) - k + 1):
            if body[cut:cut + k] != p_plus:
                continue
            t_path, s_path = body[:cut], body[cut + k:]
            other = t_path + p_minus + s_path
            if other in bodies:
                yield (cyclic_canonical(arrow + body), t_path, s_path,
                       cyclic_canonical(arrow + other))


def general_complex(Q, W, rels=None):
    """Cell complex of a consistent algebra in dimension n = 3 or 4.

    Layers: vertices, arrows, deduplicated relations, duals of arrows,
    duals of vertices; for n = 3 the relation layer and the dual-arrow
    layer coincide (each arrow determines the relation pair of its
    derivative).
    """
    n = Q.X.n
    if n not in (3, 4):
        raise ConstructionError(f"no cell complex construction for dimension {n}")
    for a in Q.arrows:
        if not leq(a.label, Q.ones):
            raise ConstructionError(
                f"label of {a.pretty()} does not divide the anticanonical monomial")
    if rels is None:
        rels = relations(Q, W)

    cells = []

    def add(dim, head, tail, divisor, payload):
        cell = Cell(id=len(cells), dim=dim, head=head, tail=tail,
                    divisor=tuple(divisor), payload=payload)
        cells.append(cell)
        return cell

    zero = (0,) * Q.d
    vertex_cells = [add(0, i, i, zero, ("vertex", i))
                    for i in range(Q.n_vertices)]
    arrow_cells = [add(1, a.head, a.tail, a.label, ("arrow", a.idx))
                   for a in Q.arrows]

    rel_cells = {}
    if n == 3:
        if len(rels) != len(Q.arrows):
            raise ConstructionError(
                f"{len(rels)} relations for {len(Q.arrows)} arrows; the "
                "dimension-three construction needs one per arrow")
        rel_of_pair = {tuple(sorted(r.pair)): r for r in rels}
        dual_arrow_cells = {}
        for a in Q.arrows:
            # the relation attached to the arrow: the two summands of its
            # derivative
            D = W.derivatives.get((a.tail, (a.idx,)), ())
            if len(D) != 2:
                raise ConstructionError(
                    f"derivative of {a.pretty()} does not have two summands")
            rel = rel_of_pair.get(tuple(sorted(D)))
            if rel is None:
                raise ConstructionError(
                    f"derivative pair of {a.pretty()} is not a relation")
            cell = add(2, a.tail, a.head, vsub(Q.ones, a.label),
                       ("dual_arrow", a.idx, rel))
            rel_cells[rel] = cell
            dual_arrow_cells[a.idx] = cell
    else:
        for r in rels:
            tail, head = r.endpoints(Q)
            rel_cells[r] = add(2, head, tail, r.div(Q), ("relation", r))
        dual_arrow_cells = {
            a.idx: add(3, a.tail, a.head, vsub(Q.ones, a.label),
                       ("dual_arrow", a.idx))
            for a in Q.arrows}
    dual_vertex_cells = [add(n, i, i, Q.ones, ("dual_vertex", i))
                         for i in range(Q.n_vertices)]

    incidences = []
    for a in Q.arrows:
        cell = arrow_cells[a.idx]
        incidences.append(FacetIncidence(
            parent=cell.id, facet=vertex_cells[a.head].id,
            left=zero, right=a.label))
        incidences.append(FacetIncidence(
            parent=cell.id, facet=vertex_cells[a.tail].id,
            left=a.label, right=zero))
    # a relation 2-cell has one facet per arrow occurrence, left class the
    # suffix and right class the prefix
    for rel, cell in rel_cells.items():
        for path in rel.pair:
            for idx, arrow_id in enumerate(path):
                incidences.append(FacetIncidence(
                    parent=cell.id, facet=arrow_cells[arrow_id].id,
                    left=Q.path_div(path[idx + 1:]),
                    right=Q.path_div(path[:idx])))
    if n == 4:
        # the dual 3-cell of an arrow has one facet per complement group
        # (div(s), div(t)) embedding a relation in it, both words s.p.t.a
        # of W (`_embeddings`)
        for a in Q.arrows:
            parent = dual_arrow_cells[a.idx]
            facets = [FacetIncidence(parent=parent.id, facet=facet.id,
                                     left=s_div, right=t_div)
                      for rel, facet in rel_cells.items()
                      for s_div, t_div in sorted(
                          {(Q.path_div(s_path), Q.path_div(t_path))
                           for _, t_path, s_path, _
                           in _embeddings(W, a.idx, rel)})]
            if not facets:
                raise ConstructionError(
                    f"dual cell of {a.pretty()} has no relation facets")
            incidences += facets
    for i in range(Q.n_vertices):
        parent = dual_vertex_cells[i]
        for a in Q.arrows:
            if a.tail == i:
                incidences.append(FacetIncidence(
                    parent=parent.id, facet=dual_arrow_cells[a.idx].id,
                    left=zero, right=a.label))
            if a.head == i:
                incidences.append(FacetIncidence(
                    parent=parent.id, facet=dual_arrow_cells[a.idx].id,
                    left=a.label, right=zero))
    return ToricCellComplex(Q, n, cells, incidences)


# ---------------------------------------------------------------------------
# parity of the term cycle around a dual 3-cell


class SignParityReport(NamedTuple):
    arrow: int
    n_terms: int
    edges: list        # pairs of term indices linked by a relation facet
    two_colorable: bool
    odd_cycle: object  # list of term indices when not two-colorable


def sign_infeasibility(Q, W, rels, arrow_idx):
    """Try to 2-color the terms of W through one arrow.

    Terms are adjacent when a relation embeds both into the dual cell of
    the arrow (they differ by one relation); recovering relation signs from
    a signed superpotential needs adjacent terms to carry opposite signs,
    which is possible iff the adjacency graph is bipartite.
    """
    arrow = Q.arrows[arrow_idx]
    terms = [t for t in W.terms if arrow_idx in t]
    index = {t: k for k, t in enumerate(terms)}
    edges = set()
    for rel in rels:
        for term, _, _, other in _embeddings(W, arrow_idx, rel):
            u, v = index[term], index[other]
            if u != v:
                edges.add((min(u, v), max(u, v)))
    # depth-first 2-coloring with parent tracking for an odd-cycle witness
    color = {}
    parent = {}
    depth = {}
    adj = {k: [] for k in range(len(terms))}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    odd_cycle = None
    for start in range(len(terms)):
        if start in color or odd_cycle:
            continue
        color[start] = 0
        depth[start] = 0
        stack = [start]
        while stack and not odd_cycle:
            u = stack.pop()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    stack.append(v)
                elif color[v] == color[u] and parent.get(u) != v:
                    left, right = [u], [v]
                    a, b = u, v
                    while a != b:
                        if depth[a] >= depth[b]:
                            a = parent[a]
                            left.append(a)
                        else:
                            b = parent[b]
                            right.append(b)
                    odd_cycle = left + right[:-1][::-1]
                    break
    return SignParityReport(arrow=arrow_idx, n_terms=len(terms),
                            edges=sorted(edges),
                            two_colorable=odd_cycle is None,
                            odd_cycle=odd_cycle)
